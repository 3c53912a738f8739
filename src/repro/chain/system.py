"""Order-Execute blockchain assembly: HarmonyBC, AriaBC, RBC, serial.

``OEBlockchain.run()`` drives the full pipeline for one replica (all
replicas are deterministic copies — ``consistency_check`` proves it by
running a second one) and prices the run:

- the ordering service paces block arrivals (consensus model: Kafka or
  HotStuff — never the bottleneck for disk-oriented layers, Figure 1);
- each block executes through the replica's DCC executor, yielding decision
  stats and task durations;
- the pipeline scheduler (with inter-block parallelism iff the executor
  supports it) turns durations into makespan, latency and CPU utilization;
- the serializability oracle counts false aborts per block (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.node import ReplicaNode
from repro.chain.ordering import OrderingService
from repro.consensus.crypto import Signer
from repro.consensus.hotstuff import HotStuffConsensus
from repro.consensus.kafka import KafkaOrdering
from repro.consensus.network import NetworkModel, NetworkPreset
from repro.core.harmony import HarmonyConfig, HarmonyExecutor
from repro.dcc.aria import AriaExecutor
from repro.dcc.oracle import SerializabilityOracle
from repro.dcc.rbc import RBCExecutor
from repro.dcc.serial import SerialExecutor
from repro.sim.costs import CostModel, StorageProfile
from repro.sim.metrics import RunMetrics
from repro.sim.rng import SeededRng
from repro.sim.scheduler import BlockTiming, PipelineSimulator
from repro.storage.engine import StorageEngine
from repro.storage.wal import LogMode

#: bytes shipped per transaction command in an OE block (vs the ~1.5 KB
#: endorsed read-write sets SOV ships — the Figures 15/16 asymmetry).
COMMAND_BYTES = 128


def decision_digest(per_block_txns) -> str:
    """A digest of every block's commit/abort decisions.

    ``per_block_txns`` yields ``(block_id, txns)`` in block order. The
    digest is a pure function of the decision layer (TIDs and statuses,
    never timings), so two runs are decision-identical iff their digests
    match — the contract the sharded pipeline's single-shard configuration
    is held to against :class:`OEBlockchain`.
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
        """Fail loudly on configs that would otherwise run silently as
        something else (an unknown consensus falls through to Kafka) or as
        an empty run."""
        if self.consensus not in CONSENSUS_PROTOCOLS:
            raise ValueError(
                f"unknown consensus {self.consensus!r}; "
                f"have {sorted(CONSENSUS_PROTOCOLS)}"
            )
        for name in ("block_size", "num_blocks", "num_replicas"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def append_block_latencies(
    metrics: RunMetrics,
    commit_finish_us: list[float],
    interval_us: float,
    consensus_latency_us: float,
    reply_us: float,
    per_block_committed: list[int],
) -> None:
    """Record per-block service latency for every committed transaction.

    Backlog excluded: what a client observes at sustainable load —
    consensus, execution from the moment the replica could start the
    block, and the reply hop. Shared by the unsharded and sharded runs so
    their latency models can never drift apart.
    """
    for i, committed in enumerate(per_block_committed):
        started = i * interval_us
        if i > 0:
            started = max(started, commit_finish_us[i - 1])
        block_latency = (
            consensus_latency_us + (commit_finish_us[i] - started) + reply_us
        )
        metrics.latencies_us.extend([block_latency] * committed)


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


def build_system(config: OEConfig, workload) -> "OEBlockchain":
    """Convenience constructor used by the bench harness and examples."""
    return OEBlockchain(config, workload)


class OEBlockchain:
    """One Order-Execute blockchain bound to a workload."""

    def __init__(self, config: OEConfig, workload) -> None:
        self.config = config
        self.workload = workload
        self.costs = CostModel()
        self.network = NetworkModel.preset(config.network)
        self.orderer_signer = Signer("ordering-service")
        self.ordering = OrderingService(self.orderer_signer)
        self.node = self._build_node("replica-0")
        if config.consensus == "hotstuff":
            self.consensus = HotStuffConsensus(
                self.network, self.costs, num_nodes=max(4, config.num_replicas)
            )
        else:
            self.consensus = KafkaOrdering(self.network, self.costs)
        #: span/metric sink (:class:`~repro.obs.trace.Tracer`); ``None``
        #: (the default) costs one attribute check per emission site.
        self.tracer = None

    def _build_node(self, name: str) -> ReplicaNode:
        engine = StorageEngine(
            costs=self.costs,
            profile=self.config.profile,
            pool_pages=self.config.pool_pages,
            log_mode=LogMode.LOGICAL,
            checkpoint_interval=self.config.checkpoint_interval,
            incremental_checkpoints=self.config.checkpoint_incremental,
            checkpoint_base_interval=self.config.checkpoint_base_interval,
        )
        engine.preload(self.workload.initial_state())
        registry = self.workload.build_registry()
        executor = build_executor(self.config, engine, registry)
        return ReplicaNode(name, executor, self.orderer_signer)

    # ------------------------------------------------------------------ run
    def _block_bytes(self) -> int:
        return self.config.block_size * COMMAND_BYTES

    def _inter_block_enabled(self) -> bool:
        return self.config.system == "harmony" and self.config.harmony.inter_block

    def run(self) -> RunMetrics:
        config = self.config
        rng = SeededRng(config.seed, f"oe/{config.system}/{self.workload.name}")
        metrics = RunMetrics(system=config.system, workload=self.workload.name)

        interval = self.consensus.min_block_interval_us(
            self._block_bytes(), config.num_replicas
        )

        timings: list[BlockTiming] = []
        executions = []
        retry_queue: list = []
        for i in range(config.num_blocks):
            retries = retry_queue[: config.block_size]
            retry_queue = retry_queue[config.block_size :]
            fresh = self.workload.generate_block(
                config.block_size - len(retries), rng
            )
            block = self.ordering.form_block(retries + fresh)
            if self.tracer is not None:
                self.tracer.event(
                    "enqueue",
                    block=block.block_id,
                    attrs={"retries": len(retries), "backlog": len(retry_queue)},
                )
            execution = self.node.process_block(block)
            self._absorb_execution(metrics, timings, executions, i, interval, execution)
            if config.retry_aborted:
                retry_queue.extend(t.spec for t in execution.txns if t.aborted)
        return self._finalize_metrics(metrics, timings, executions, interval)

    # ------------------------------------------------- run bookkeeping
    def _absorb_execution(
        self, metrics, timings, executions, i, interval, execution
    ) -> None:
        config = self.config
        # serial front-end: deserialize + dispatch each transaction
        execution.pre_exec_serial_us += len(execution.txns) * self.costs.ingest_us
        if config.measure_false_aborts:
            execution.stats.false_aborts = SerializabilityOracle.count_false_aborts(
                execution.txns
            )
        metrics.merge_block(execution.stats)
        if self.tracer is not None:
            self.tracer.stage(
                "execute",
                block=execution.block_id,
                attrs={
                    "committed": execution.stats.committed,
                    "aborted": execution.stats.aborted,
                    "false_aborts": execution.stats.false_aborts,
                },
                timing={
                    "sim_us": sum(execution.sim_durations_us)
                    + sum(execution.commit_durations_us)
                    + execution.post_commit_serial_us
                },
            )
        executions.append(execution)
        timings.append(
            BlockTiming(
                arrival_us=i * interval,
                sim_durations=execution.sim_durations_us,
                commit_durations=execution.commit_durations_us,
                serial_commit=execution.serial_commit,
                pre_exec_serial_us=execution.pre_exec_serial_us,
                post_commit_serial_us=execution.post_commit_serial_us,
            )
        )

    def _finalize_metrics(self, metrics, timings, executions, interval) -> RunMetrics:
        config = self.config
        consensus_latency = self._consensus_latency_us()
        lag = config.harmony.snapshot_lag if self._inter_block_enabled() else 2
        scheduler = PipelineSimulator(
            num_cores=config.cores,
            inter_block=self._inter_block_enabled(),
            snapshot_lag=lag,
        )
        result = scheduler.simulate(timings)

        metrics.sim_time_us = result.makespan_us
        metrics.cpu_utilization = result.cpu_utilization
        append_block_latencies(
            metrics,
            result.commit_finish_us,
            interval,
            consensus_latency,
            self.network.worst_one_way_us(config.num_replicas),
            [e.stats.committed for e in executions],
        )
        engine = self.node.engine
        metrics.io_reads = engine.io_reads
        metrics.io_writes = engine.io_writes
        metrics.buffer_hits = engine.buffer_hits
        metrics.buffer_misses = engine.buffer_misses
        metrics.extra["state_hash"] = self.node.state_hash()
        metrics.extra["ledger_ok"] = self.node.ledger.verify_chain()
        metrics.extra["decision_digest"] = decision_digest(
            (e.block_id, e.txns) for e in executions
        )
        if self.tracer is not None:
            self.tracer.event(
                "run_end",
                attrs={
                    "blocks": len(executions),
                    "committed": metrics.committed,
                    "aborted": metrics.aborted,
                    "decision_digest": metrics.extra["decision_digest"][:16],
                },
            )
            self.tracer.anno(
                "run_summary",
                timing={
                    "makespan_us": result.makespan_us,
                    "cpu_utilization": result.cpu_utilization,
                },
            )
            latency_hist = self.tracer.metrics.histogram("block_latency_us")
            for latency in metrics.latencies_us:
                latency_hist.observe(latency)
        return metrics

    def _consensus_latency_us(self) -> float:
        if isinstance(self.consensus, HotStuffConsensus):
            return self.consensus.block_latency_us()
        return self.consensus.block_latency_us(
            self._block_bytes(), self.config.num_replicas
        )

    # -------------------------------------------------------------- checks
    def consistency_check(self) -> bool:
        """Run a second replica over the same chain; states must match.

        Deterministic DCC means replicas need no coordination — this check
        is the paper's core replica-consistency claim, exercised for real.
        """
        other = self._build_node("replica-1")
        for block in self.node.ledger.blocks():
            other.process_block(block)
        return other.state_hash() == self.node.state_hash()
