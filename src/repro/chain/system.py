"""Order-Execute configuration: HarmonyBC, AriaBC, RBC, serial.

:class:`OEConfig` names one Order-Execute deployment (DCC protocol,
block shape, consensus, storage, pricing), :func:`build_executor` turns
it into a replica's DCC executor, and :func:`decision_digest` fingerprints
a run's commit/abort decisions.

There is one Order-Execute driver:
:class:`~repro.shard.system.ShardedBlockchain`. :func:`OEBlockchain`
builds it at one shard, where routing, federation and the vote exchange
reduce to no-ops and the run is the plain order → execute → commit
pipeline of one replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.consensus.network import NetworkPreset
from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.dcc.aria import AriaExecutor
from repro.dcc.rbc import RBCExecutor
from repro.dcc.serial import SerialExecutor
from repro.sim.costs import StorageProfile
from repro.storage.engine import StorageEngine


def decision_digest(per_block_txns) -> str:
    """A digest of every block's commit/abort decisions.

    ``per_block_txns`` yields ``(block_id, txns)`` in block order. The
    digest is a pure function of the decision layer (TIDs and statuses,
    never timings), so two runs are decision-identical iff their digests
    match — the contract fault drills, replica replays and traced runs are
    held to against an undisturbed run of the same seed.
    """
    from repro.consensus.crypto import sha256_hex

    parts = []
    for block_id, txns in per_block_txns:
        committed = ",".join(str(t.tid) for t in txns if t.committed)
        aborted = ",".join(str(t.tid) for t in txns if t.aborted)
        parts.append(f"{block_id}:{committed}|{aborted}")
    return sha256_hex(";".join(parts).encode())


#: ordering services a config may name
CONSENSUS_PROTOCOLS = frozenset({"kafka", "hotstuff"})
#: DCC protocols an Order-Execute config may name
OE_SYSTEMS = frozenset({"harmony", "aria", "rbc", "serial"})


@dataclass
class OEConfig:
    """Configuration of one Order-Execute system run."""

    system: str = "harmony"  # harmony | aria | rbc | serial
    block_size: int = 25
    num_blocks: int = 40
    num_replicas: int = 4
    cores: int = 8
    consensus: str = "kafka"  # kafka | hotstuff
    network: NetworkPreset = NetworkPreset.DEFAULT_1G
    profile: StorageProfile = StorageProfile.SSD
    pool_pages: int = 48
    checkpoint_interval: int = 10
    #: delta-chain the durable checkpoints (False = the seed's full
    #: deepcopy per interval, kept as the differential reference)
    checkpoint_incremental: bool = True
    #: delta checkpoints between base compactions of the chain
    checkpoint_base_interval: int = 8
    harmony: HarmonyConfig = field(default_factory=HarmonyConfig)
    aria_reordering: bool = True
    seed: int = 7
    measure_false_aborts: bool = True
    #: clients resubmit aborted transactions; retries consume block slots,
    #: so high-abort protocols pay for their aborts in throughput
    retry_aborted: bool = True

    def __post_init__(self) -> None:
        """Fail loudly, at construction, on configs that would run silently
        as something else (an unknown consensus falls through to Kafka),
        name no executor (an unknown system) or run empty."""
        if self.system not in OE_SYSTEMS:
            raise ValueError(
                f"unknown OE system {self.system!r}; have {sorted(OE_SYSTEMS)}"
            )
        if self.consensus not in CONSENSUS_PROTOCOLS:
            raise ValueError(
                f"unknown consensus {self.consensus!r}; "
                f"have {sorted(CONSENSUS_PROTOCOLS)}"
            )
        for name in ("block_size", "num_blocks", "num_replicas"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def build_executor(config: OEConfig, engine: StorageEngine, registry):
    if config.system == "harmony":
        return HarmonyExecutor(engine, registry, config.harmony)
    if config.system == "aria":
        return AriaExecutor(engine, registry, config.aria_reordering)
    if config.system == "rbc":
        return RBCExecutor(engine, registry)
    if config.system == "serial":
        return SerialExecutor(engine, registry)
    raise ValueError(f"unknown OE system {config.system!r}")




def OEBlockchain(config: OEConfig, workload):
    """The Order-Execute blockchain for ``config`` bound to ``workload``:
    :class:`~repro.shard.system.ShardedBlockchain` at one shard."""
    from repro.shard.system import ShardConfig, ShardedBlockchain

    values = {f.name: getattr(config, f.name) for f in fields(OEConfig)}
    return ShardedBlockchain(ShardConfig(**values, num_shards=1), workload)
