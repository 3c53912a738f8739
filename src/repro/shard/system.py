"""The sharded Order-Execute blockchain: N pipelines, one global order.

:class:`ShardedBlockchain` runs one full OE pipeline per shard — each with
its own :class:`~repro.storage.engine.StorageEngine`, DCC executor,
hash-chained ledger and :class:`~repro.sim.scheduler.PipelineSimulator`
lane — under a single global ordering service. Per global block:

1. the ordering service cuts the global block; the
   :class:`~repro.chain.ordering.ShardSequencer` derives per-shard
   sub-blocks (global TIDs preserved, empty sub-blocks keep every shard
   block-locked);
2. every shard *prepares* its sub-block (simulate against a
   :class:`~repro.shard.federated.FederatedSnapshot`, validate with its
   own DCC protocol) — the prepare outcome is its 2PC vote;
3. votes on cross-shard transactions are exchanged and folded into a
   hash-chained :class:`~repro.shard.twopc.CommitCertificate`;
4. every shard *commits*, honouring the certificate's vetoes and
   installing only the writes it owns.

With ``num_shards=1`` every hook degenerates to the unsharded pipeline
(no federation, no scope, no votes) and the run is decision-identical to
:class:`~repro.chain.system.OEBlockchain` on the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.node import ReplicaNode
from repro.chain.ordering import OrderingService, ShardSequencer
from repro.chain.system import (
    COMMAND_BYTES,
    OEConfig,
    append_block_latencies,
    build_executor,
    decision_digest,
)
from repro.consensus.crypto import Signer
from repro.consensus.hotstuff import HotStuffConsensus
from repro.consensus.kafka import KafkaOrdering
from repro.consensus.network import NetworkModel
from repro.dcc.oracle import SerializabilityOracle
from repro.shard.federated import FederatedSnapshot
from repro.shard.rebalance import (
    RebalancePolicy,
    build_migration_record,
    migration_store_deltas,
)
from repro.shard.router import ShardRouter
from repro.shard.twopc import CertificateLog, derive_votes
from repro.sim.costs import CostModel
from repro.sim.metrics import BlockStats, RunMetrics
from repro.sim.rng import SeededRng
from repro.sim.scheduler import BlockTiming, PipelineSimulator, merge_shard_results
from repro.storage.engine import StorageEngine
from repro.storage.mvstore import combine_state_hashes
from repro.storage.wal import LogMode
from repro.txn.transaction import AbortReason


@dataclass
class ShardConfig(OEConfig):
    """An :class:`~repro.chain.system.OEConfig` plus the sharding knobs."""

    num_shards: int = 1
    #: ``workload`` aligns with the workload's partition layout (falls back
    #: to ``hash`` when the workload has no index hints); ``hash`` and
    #: ``range`` are the generic policies.
    router_policy: str = "workload"
    #: explicit split points for ``router_policy="range"``
    range_boundaries: tuple = ()
    #: core budget of each shard's replica (scale-out: every shard is its
    #: own machine group); ``None`` = same budget as the unsharded replica
    cores_per_shard: int | None = None
    #: bytes of one batched remote-read round (request + values)
    cross_read_bytes: int = 256
    #: bytes of one prepare vote on the wire
    vote_bytes: int = 64
    #: retain per-block executions + merged transactions (tests/oracles)
    keep_history: bool = False
    #: live re-keying: ``"off"`` pins the epoch-0 static routing; ``"adaptive"``
    #: arms a :class:`~repro.shard.rebalance.RebalancePolicy` that watches
    #: decision-layer telemetry and re-keys hot keys mid-run
    rebalance: str = "off"
    #: blocks between rebalance decision points (telemetry window length)
    rebalance_check_interval: int = 4
    #: blocks before the first decision point may fire
    rebalance_warmup_blocks: int = 4
    #: blocks a committed migration suppresses the next one
    rebalance_cooldown_blocks: int = 4
    #: window load skew (max/mean) at which the offload trigger fires
    rebalance_skew_threshold: float = 2.0
    #: cross-shard txn ratio at which the co-location trigger fires
    rebalance_cross_threshold: float = 0.5
    #: most keys one migration record may move
    rebalance_max_keys: int = 32
    #: compile workload scan footprints into exact participant sets
    #: (``False`` restores broadcast routing for scans — the differential
    #: reference the footprint bench compares against)
    scan_footprints: bool = True

    def __post_init__(self) -> None:
        """Also reject unknown routing and rebalancing modes, which would
        otherwise run as hash routing and as static routing."""
        super().__post_init__()
        for name, allowed in (
            ("router_policy", ("workload", "hash", "range")),
            ("rebalance", ("off", "adaptive")),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"{name} must be one of {'|'.join(allowed)}, got {value!r}"
                )


def build_router(config: ShardConfig, workload) -> ShardRouter:
    """The deterministic router for ``config``."""
    if config.router_policy == "workload":
        router = ShardRouter.for_workload(workload, config.num_shards)
    elif config.router_policy == "range":
        router = ShardRouter(
            config.num_shards,
            policy="range",
            boundaries=list(config.range_boundaries),
        )
    else:
        router = ShardRouter(config.num_shards, policy="hash")
    router.use_footprints = getattr(config, "scan_footprints", True)
    return router


@dataclass
class GlobalBlockRecord:
    """One global block's outcome, kept when ``keep_history`` is set."""

    block_id: int
    merged_txns: list
    executions: dict
    participants: list
    certificate: object


@dataclass
class GlobalBlockOutcome:
    """The decision layer's result for one global block."""

    block: object
    participants: list
    cross_tids: set
    sub_blocks: dict
    certificate: object
    #: shard -> BlockExecution; shards crashed by the fault hook have no
    #: entry — they voted but never committed
    executions: dict


@dataclass
class _ShardedRunState:
    """Accumulators of one :meth:`ShardedBlockchain.run`."""

    metrics: RunMetrics
    interval: float
    remote_round_us: float
    shard_timings: list
    merged_blocks: list = None
    per_block_committed: list = None
    cross_txns_total: int = 0
    cross_aborted_total: int = 0

    def __post_init__(self) -> None:
        self.merged_blocks = [] if self.merged_blocks is None else self.merged_blocks
        self.per_block_committed = (
            [] if self.per_block_committed is None else self.per_block_committed
        )


class ShardGroup:
    """One replica's full set of shard pipelines (nodes + wiring).

    Both the primary and the consistency-check replica are instances of
    this class: building one wires each shard executor's federated
    snapshot source and key scope, so replaying the same sub-blocks +
    certificates reproduces the same state anywhere.
    """

    def __init__(
        self,
        config: ShardConfig,
        workload,
        router: ShardRouter,
        costs: CostModel,
        orderer_signer: Signer,
        name_prefix: str = "replica-0",
    ) -> None:
        self.config = config
        self.router = router
        shard_states = router.split_state(workload.initial_state())
        self.nodes: list[ReplicaNode] = []
        for shard in range(config.num_shards):
            engine = StorageEngine(
                costs=costs,
                profile=config.profile,
                pool_pages=config.pool_pages,
                log_mode=LogMode.LOGICAL,
                checkpoint_interval=config.checkpoint_interval,
                incremental_checkpoints=config.checkpoint_incremental,
                checkpoint_base_interval=config.checkpoint_base_interval,
            )
            engine.preload(shard_states[shard])
            executor = build_executor(config, engine, workload.build_registry())
            self.nodes.append(
                ReplicaNode(f"{name_prefix}/shard-{shard}", executor, orderer_signer)
            )
        #: the shared store list captured (by reference) in every shard's
        #: federation closures — :meth:`rejoin` mutates slots in place so
        #: peers re-point at a recovered store without rewiring
        self._stores: list | None = None
        #: ``listener(shard, node)`` callbacks fired by :meth:`rejoin` —
        #: the tracer registers one so recovered shards keep tracing
        self.rejoin_listeners: list = []
        if config.num_shards > 1:
            stores = [node.engine.store for node in self.nodes]
            self._stores = stores
            for shard, node in enumerate(self.nodes):
                node.executor.snapshot_source = (
                    lambda snap_block_id, _stores=stores: FederatedSnapshot(
                        router, _stores, snap_block_id
                    )
                )
                node.executor.key_scope = (
                    lambda key, _shard=shard: router.shard_of(key) == _shard
                )

    def prepare(self, sub_blocks: dict, skip: frozenset = frozenset()) -> dict:
        """Phase one on every live shard; all prepares precede any commit.

        Shards in ``skip`` (crash-before-prepare injection) died before
        the sub-block arrived: they never log or prepare it and get no
        entry — a supervisor must catch them up after recovery.
        """
        return {
            shard: node.prepare_block(sub_blocks[shard])
            for shard, node in enumerate(self.nodes)
            if shard not in skip
        }

    def finish(
        self, prepared: dict, abort_tids: frozenset, skip: frozenset = frozenset()
    ) -> dict:
        """Phase two on every prepared shard, honouring the certificate's
        vetoes.

        Shards in ``skip`` (crash injection) never commit and get no entry;
        shards absent from ``prepared`` never even prepared.
        """
        return {
            shard: self.nodes[shard].finish_block(prepared[shard], abort_tids)
            for shard in sorted(prepared)
            if shard not in skip
        }

    def rejoin(self, shard: int, node: ReplicaNode) -> None:
        """Swap a recovered replica back into the fleet as a full peer.

        The federation closures capture the shared store list by
        reference, so mutating the slot in place re-points every peer's
        cross-shard reads at the recovered store. The recovered executor
        itself was wired against a *copy* of the list (see
        :func:`~repro.shard.recovery.recover_shard_node`), so it is
        re-wired against the shared one here.
        """
        self.nodes[shard] = node
        if self._stores is not None:
            self._stores[shard] = node.engine.store
            stores = self._stores
            router = self.router
            node.executor.snapshot_source = (
                lambda snap_block_id, _stores=stores: FederatedSnapshot(
                    router, _stores, snap_block_id
                )
            )
            node.executor.key_scope = (
                lambda key, _shard=shard: router.shard_of(key) == _shard
            )
        for listener in self.rejoin_listeners:
            listener(shard, node)

    def state_hashes(self) -> list[str]:
        return [node.state_hash() for node in self.nodes]

    def combined_state_hash(self) -> str:
        return combine_state_hashes(self.state_hashes())

    def ledgers_ok(self) -> bool:
        return all(node.ledger.verify_chain() for node in self.nodes)


class ShardedBlockchain:
    """N partitioned OE pipelines with deterministic cross-shard commit."""

    def __init__(self, config: ShardConfig, workload) -> None:
        if config.system == "serial" and config.num_shards > 1:
            # serial reads its in-block predecessors, which only exist on
            # the shard that executed them — no deterministic federation.
            raise ValueError("serial execution does not support num_shards > 1")
        self.config = config
        self.workload = workload
        self.costs = CostModel()
        self.network = NetworkModel.preset(config.network)
        self.orderer_signer = Signer("ordering-service")
        self.ordering = OrderingService(self.orderer_signer)
        self.sequencer = ShardSequencer(config.num_shards, self.orderer_signer)
        self.router = build_router(config, workload)
        self.group = ShardGroup(
            config, workload, self.router, self.costs, self.orderer_signer
        )
        if config.consensus == "hotstuff":
            self.consensus = HotStuffConsensus(
                self.network, self.costs, num_nodes=max(4, config.num_replicas)
            )
        else:
            self.consensus = KafkaOrdering(self.network, self.costs)
        self.cert_log = CertificateLog()
        #: adaptive re-keying policy (``config.rebalance="adaptive"``);
        #: ``None`` pins the static epoch-0 routing for the whole run
        self.rebalance_policy = (
            RebalancePolicy.from_config(config)
            if config.rebalance == "adaptive" and config.num_shards > 1
            else None
        )
        #: migration fault point (``hook(block_id) -> {shard: "skip"|"torn"}``)
        #: consulted by :meth:`apply_migration` — armed by
        #: :mod:`repro.faults.inject` for the migration-crash family
        self.migration_hook = None
        #: per-shard shipment watermark: the highest migration epoch whose
        #: store deltas landed on each live store. A store behind the
        #: boundary (open partition window) skips the live shipment; the
        #: supervisor's catch-up re-applies it from the certified record,
        #: keyed off this mark so nothing applies twice.
        self._store_mig_epochs = [0] * config.num_shards
        #: participant sets per global block (replayed by replicas)
        self.participants_log: list[list[frozenset]] = []
        self.history: list[GlobalBlockRecord] = []
        #: fault-point hook (``hook(block_id) -> (skip_prepare, skip_commit)
        #: | None``) consulted by :meth:`process_global_block`; ``None``
        #: (the default) costs one attribute check per block. Armed by
        #: :mod:`repro.faults.inject`.
        self.fault_hook = None
        #: vote-exchange medium; ``None`` means perfect delivery. A
        #: :class:`~repro.shard.twopc.VoteChannel` here lets fault plans
        #: drop/duplicate/delay votes on the wire.
        self.vote_channel = None
        #: span/metric sink (:class:`~repro.obs.trace.Tracer`); ``None``
        #: (the default) costs one attribute check per emission site.
        #: Armed by :func:`repro.obs.trace.attach_tracer`.
        self.tracer = None

    # ------------------------------------------------------------------ run
    def _block_bytes(self) -> int:
        return self.config.block_size * COMMAND_BYTES

    def _inter_block_enabled(self) -> bool:
        return self.config.system == "harmony" and self.config.harmony.inter_block

    def _cores_per_shard(self) -> int:
        return self.config.cores_per_shard or self.config.cores

    def _remote_read_round_us(self) -> float:
        """One batched remote-read exchange of a cross-shard simulation."""
        return self.network.rtt_us(self.config.num_shards) + self.network.transfer_us(
            self.config.cross_read_bytes
        )

    def _vote_exchange_us(self, num_cross_local: int) -> float:
        """Prepare-vote broadcast + decide hop for one shard's sub-block."""
        return 2.0 * self.network.worst_one_way_us(
            self.config.num_shards
        ) + self.network.broadcast_us(
            self.config.vote_bytes * num_cross_local, self.config.num_shards - 1
        )

    # -------------------------------------------------------------- tracing
    # Span emission helpers, shared by the run driver and the fault
    # supervisor (which runs prepare/commit itself). Deterministic fields
    # only carry decision-layer quantities; engine sim durations ride in
    # the ``timing`` annotation dict. Every per-shard loop iterates sorted shard
    # ids so the span order is independent of dict iteration order.
    def _trace_order(
        self, tracer, block, cross_tids, sub_blocks, skip_prepare, skip_commit
    ) -> None:
        tracer.event(
            "order",
            block=block.block_id,
            attrs={
                "size": block.size,
                "cross": len(cross_tids),
                "sub_sizes": [sub_blocks[s].size for s in sorted(sub_blocks)],
            },
        )
        if skip_prepare or skip_commit:
            tracer.fault(
                "fault_directive",
                block=block.block_id,
                attrs={
                    "skip_prepare": sorted(skip_prepare),
                    "skip_commit": sorted(skip_commit),
                },
            )

    def _trace_prepared(self, tracer, block_id: int, prepared: dict) -> None:
        for shard in sorted(prepared):
            prep = prepared[shard]
            tracer.stage(
                "prepare",
                block=block_id,
                shard=shard,
                attrs={"txns": len(prep.txns)},
                timing={"sim_us": sum(prep.sim_durations_us)},
            )

    def _trace_commits(self, tracer, block_id: int, executions: dict) -> None:
        for shard in sorted(executions):
            execution = executions[shard]
            stats = execution.stats
            tracer.stage(
                "commit",
                block=block_id,
                shard=shard,
                attrs={
                    "committed": stats.committed
                    if stats is not None
                    else len(execution.committed_txns),
                    "aborted": stats.aborted
                    if stats is not None
                    else len(execution.aborted_txns),
                },
                timing={
                    "sim_us": sum(execution.commit_durations_us)
                    + execution.post_commit_serial_us
                },
            )

    # ---------------------------------------------------------- rebalancing
    def plan_rebalance(self, block_id: int):
        """The armed policy's proposal for the start of ``block_id``
        (telemetry through ``block_id - 1``), or ``None``. Side-effect-free
        so the fault supervisor can land in-flight work between the plan
        and the commit."""
        policy = self.rebalance_policy
        if policy is None:
            return None
        return policy.propose(block_id, self.router)

    def commit_rebalance(self, block_id: int, proposal):
        """Materialize ``proposal`` into the certified record and install
        it (router, stores). Every shard's store must be at height
        ``block_id - 1`` — the fault supervisor enforces that barrier
        before calling."""
        router = self.router
        nodes = self.group.nodes

        def value_of(key):
            return nodes[router.shard_of(key)].engine.store._latest_entry(key)

        record = build_migration_record(
            block_id, router.ownership_epoch + 1, proposal, value_of
        )
        self.apply_migration(record)
        self.rebalance_policy.committed(block_id)
        return record

    def apply_migration(self, record) -> None:
        """Install a certified ownership change on this replica.

        Router epoch first (shipment routing below resolves sources at the
        pre-boundary height, which is append-order independent), then the
        per-shard store loads at the ``block_id - 1`` boundary. The armed
        ``migration_hook`` may fate a shard's shipment ``"skip"`` (crashed
        before the delta arrived) or ``"torn"`` (crashed mid-apply) — those
        shards also crash per the fault plan, and recovery re-derives the
        full shipment from the certificate stream.
        """
        fates = (
            self.migration_hook(record.block_id)
            if self.migration_hook is not None
            else None
        ) or {}
        self.router.apply_migration(record)
        fence = frozenset(dict(record.moves))
        for node in self.group.nodes:
            node.executor.migration_fences[record.block_id] = fence
        incoming, outgoing = migration_store_deltas(record, self.router)
        boundary = record.block_id - 1
        for shard in sorted(set(incoming) | set(outgoing)):
            fate = fates.get(shard)
            if fate == "skip":
                continue
            engine = self.group.nodes[shard].engine
            if engine.store.last_committed_block != boundary:
                # a lagging store (open partition window) misses the live
                # shipment; catch-up re-applies it from the certified
                # record, keyed off the watermark
                continue
            items = dict(outgoing.get(shard, ()))
            items.update(incoming.get(shard, ()))
            if fate == "torn":
                items = dict(list(items.items())[: len(items) // 2])
            engine.apply_migration(boundary, items)
            if fate is None:
                self._store_mig_epochs[shard] = record.epoch
        tracer = self.tracer
        if tracer is not None:
            tracer.event(
                "migrate",
                block=record.block_id,
                attrs={
                    "epoch": record.epoch,
                    "keys": len(record.moves),
                    "shipped": len(record.deltas),
                    "reason": record.reason,
                },
            )
            if fates:
                tracer.fault(
                    "migration_fault",
                    block=record.block_id,
                    attrs={"fates": {s: fates[s] for s in sorted(fates)}},
                )
            tracer.metrics.counter("rebalance.migrations").inc()
            tracer.metrics.gauge("rebalance.epoch").set(record.epoch)

    def route_global_block(self, block, migration_barrier=None):
        """The routing front half shared by the run driver and the fault
        supervisor: decide/apply any due migration, route every spec, feed
        the policy telemetry, log the participant sets and split the block.

        Returns ``(migration_record, participants, cross_tids,
        sub_blocks)``. ``migration_barrier`` (fault supervisor) runs after
        a proposal is made but before the record is built, so in-flight
        work can land and every store reaches the boundary height first.
        """
        migration = None
        policy = self.rebalance_policy
        if policy is not None:
            proposal = self.plan_rebalance(block.block_id)
            if proposal is not None:
                if migration_barrier is not None:
                    migration_barrier()
                migration = self.commit_rebalance(block.block_id, proposal)
            policy.begin_block(block.block_id)
            participants = []
            for spec in block.specs:
                parts, routed = self.router.route_spec(self.workload, spec)
                participants.append(parts)
                policy.observe_txn(routed, parts)
        else:
            participants = [
                self.router.participants_of(self.workload, spec)
                for spec in block.specs
            ]
        self.participants_log.append(participants)
        cross_tids = {
            block.first_tid + j
            for j, shards in enumerate(participants)
            if len(shards) > 1
        }
        sub_blocks = self.sequencer.split(block, participants)
        return migration, participants, cross_tids, sub_blocks

    def process_global_block(self, block, fault_hook=None) -> GlobalBlockOutcome:
        """Decision layer for one global block: route, split, prepare,
        exchange votes, certify, commit.

        ``fault_hook`` (or the armed ``self.fault_hook``) is the fault
        point: called with the block id, it returns ``None`` (no fault) or
        a ``(skip_prepare, skip_commit)`` pair of shard sets. Shards in ``skip_prepare`` die *before* the
        sub-block arrives (never logged, never voted — with the vote
        missing, the certificate's timeout degradation vetoes their
        cross-shard transactions); shards in ``skip_commit`` die between
        their prepare vote and the certificate append: the deterministic
        votes were cast, the certificate lands, but the shard never
        commits — its block log holds the input block, so recovery
        replays it under the certificate's recorded decisions.
        """
        skip_prepare: frozenset = frozenset()
        skip_commit: frozenset = frozenset()
        hook = fault_hook if fault_hook is not None else self.fault_hook
        if hook is not None:
            directive = hook(block.block_id)
            if directive is not None:
                before, after = directive
                skip_prepare = before
                skip_commit = before | after
        migration, participants, cross_tids, sub_blocks = self.route_global_block(
            block
        )
        tracer = self.tracer
        if tracer is not None:
            self._trace_order(
                tracer, block, cross_tids, sub_blocks, skip_prepare, skip_commit
            )
        prepared = self.group.prepare(sub_blocks, skip=skip_prepare)
        if tracer is not None:
            self._trace_prepared(tracer, block.block_id, prepared)

        # --- ordered vote exchange: prepare outcomes become the block
        # stream's commit certificate (deterministic all-yes rule).
        votes = derive_votes(prepared, cross_tids)
        if self.vote_channel is not None:
            votes = self.vote_channel.deliver(votes, block.block_id)
        # expected participant sets arm the timeout→abort degradation for
        # any vote that never arrived; with a full vote set (the
        # fault-free case) they change nothing.
        expected = {
            block.first_tid + j: shards
            for j, shards in enumerate(participants)
            if len(shards) > 1
        }
        certificate = self.cert_log.append(
            votes, block.block_id, expected=expected, migration=migration
        )
        executions = self.group.finish(
            prepared, certificate.abort_tids, skip=skip_commit
        )
        if tracer is not None:
            self._trace_commits(tracer, block.block_id, executions)
        return GlobalBlockOutcome(
            block=block,
            participants=participants,
            cross_tids=cross_tids,
            sub_blocks=sub_blocks,
            certificate=certificate,
            executions=executions,
        )

    def run(self) -> RunMetrics:
        config = self.config
        rng = SeededRng(config.seed, f"oe/{config.system}/{self.workload.name}")
        state = _ShardedRunState(
            metrics=RunMetrics(system=config.system, workload=self.workload.name),
            interval=self.consensus.min_block_interval_us(
                self._block_bytes(), config.num_replicas
            ),
            remote_round_us=self._remote_read_round_us(),
            shard_timings=[[] for _ in range(config.num_shards)],
        )
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
                self.tracer.metrics.histogram("retry_queue_depth").observe(
                    len(retry_queue)
                )
            outcome = self.process_global_block(block)
            merged_txns = self._absorb_block(state, i, outcome)
            if config.retry_aborted:
                retry_queue.extend(t.spec for t in merged_txns if t.aborted)
        return self._finish_run(state)

    # ------------------------------------------------- run bookkeeping
    def _absorb_block(self, state, i: int, outcome: GlobalBlockOutcome) -> list:
        config = self.config
        block = outcome.block
        executions = outcome.executions
        cross_tids = outcome.cross_tids
        state.cross_txns_total += len(cross_tids)
        state.cross_aborted_total += len(outcome.certificate.abort_tids)

        # --- merged (global) view: one runtime record per transaction,
        # taken from its coordinator shard (lowest participant id).
        by_shard_tid = {
            shard: {t.tid: t for t in e.txns} for shard, e in executions.items()
        }
        participants = outcome.participants
        merged_txns = [
            by_shard_tid[min(participants[j])][block.first_tid + j]
            for j in range(block.size)
        ]
        state.merged_blocks.append((block.block_id, merged_txns))

        stats = BlockStats(block_id=block.block_id)
        for txn in merged_txns:
            if txn.committed:
                stats.committed += 1
            elif txn.aborted:
                stats.aborted += 1
        if config.measure_false_aborts:
            stats.false_aborts = SerializabilityOracle.count_false_aborts(
                merged_txns
            )
        # validator events are per-shard observations (a cross-shard
        # transaction is validated at every participant)
        stats.dangerous_structure_hits = sum(
            e.stats.dangerous_structure_hits for e in executions.values()
        )
        state.metrics.merge_block(stats)
        state.per_block_committed.append(stats.committed)

        tracer = self.tracer
        if tracer is not None:
            tracer.event(
                "decide",
                block=block.block_id,
                attrs={
                    "committed": stats.committed,
                    "aborted": stats.aborted,
                    "false_aborts": stats.false_aborts,
                },
            )
            participant_hist = tracer.metrics.histogram("cross_participants")
            for shards in outcome.participants:
                if len(shards) > 1:
                    participant_hist.observe(len(shards))

        for shard in sorted(executions):
            execution = executions[shard]
            # serial front-end: each shard ingests only its sub-block
            execution.pre_exec_serial_us += (
                outcome.sub_blocks[shard].size * self.costs.ingest_us
            )
            sim_durations = list(execution.sim_durations_us)
            cross_here = 0
            for idx, txn in enumerate(execution.txns):
                if txn.tid in cross_tids:
                    cross_here += 1
                    if idx < len(sim_durations):
                        # the cross-shard simulation waits one batched
                        # remote-read round
                        sim_durations[idx] += state.remote_round_us
            post_commit = execution.post_commit_serial_us
            if cross_here:
                # the vote exchange separates prepare from commit; in
                # the lane model the serial tail position is equivalent
                # (commit_finish shifts by the same amount either way)
                vote_us = self._vote_exchange_us(cross_here)
                post_commit += vote_us
                if tracer is not None:
                    tracer.stage(
                        "vote_exchange",
                        block=block.block_id,
                        shard=shard,
                        sim_us=vote_us,
                        attrs={
                            "cross": cross_here,
                            "remote_read_us": cross_here * state.remote_round_us,
                        },
                    )
            if tracer is not None:
                shard_stats = execution.stats
                tracer.metrics.counter(f"shard{shard}.committed").inc(
                    shard_stats.committed if shard_stats is not None else 0
                )
                tracer.metrics.counter(f"shard{shard}.aborted").inc(
                    shard_stats.aborted if shard_stats is not None else 0
                )
                tracer.metrics.histogram(f"shard{shard}.prepare_us").observe(
                    sum(execution.sim_durations_us)
                )
                tracer.metrics.histogram(f"shard{shard}.commit_us").observe(
                    sum(execution.commit_durations_us)
                )
            state.shard_timings[shard].append(
                BlockTiming(
                    arrival_us=i * state.interval,
                    sim_durations=sim_durations,
                    commit_durations=execution.commit_durations_us,
                    serial_commit=execution.serial_commit,
                    pre_exec_serial_us=execution.pre_exec_serial_us,
                    post_commit_serial_us=post_commit,
                )
            )

        if config.keep_history:
            self.history.append(
                GlobalBlockRecord(
                    block_id=block.block_id,
                    merged_txns=merged_txns,
                    executions=executions,
                    participants=outcome.participants,
                    certificate=outcome.certificate,
                )
            )
        return merged_txns

    def _finish_run(self, state) -> RunMetrics:
        metrics = state.metrics
        # --- timing: one pipeline lane per shard, merged into one timeline.
        lag = self.config.harmony.snapshot_lag if self._inter_block_enabled() else 2
        results = [
            PipelineSimulator(
                num_cores=self._cores_per_shard(),
                inter_block=self._inter_block_enabled(),
                snapshot_lag=lag,
            ).simulate(timings)
            for timings in state.shard_timings
        ]
        merged_result = merge_shard_results(results)

        metrics.sim_time_us = merged_result.makespan_us
        metrics.cpu_utilization = merged_result.cpu_utilization
        append_block_latencies(
            metrics,
            merged_result.commit_finish_us,
            state.interval,
            self._consensus_latency_us(),
            self.network.worst_one_way_us(self.config.num_replicas),
            state.per_block_committed,
        )

        for node in self.group.nodes:
            engine = node.engine
            metrics.io_reads += engine.io_reads
            metrics.io_writes += engine.io_writes
            metrics.buffer_hits += engine.buffer_hits
            metrics.buffer_misses += engine.buffer_misses
        metrics.extra["state_hash"] = self.group.combined_state_hash()
        metrics.extra["shard_state_hashes"] = self.group.state_hashes()
        metrics.extra["ledger_ok"] = self.group.ledgers_ok()
        metrics.extra["decision_digest"] = decision_digest(state.merged_blocks)
        metrics.extra["num_shards"] = self.config.num_shards
        metrics.extra["cross_shard_txns"] = state.cross_txns_total
        metrics.extra["cross_shard_aborted"] = state.cross_aborted_total
        metrics.extra["certificates_ok"] = self.cert_log.verify_chain()
        metrics.extra["cert_head"] = self.cert_log.head_hash
        metrics.extra["ownership_epoch"] = self.router.ownership_epoch
        metrics.extra["migrations"] = sum(
            1 for cert in self.cert_log.certificates() if cert.migration is not None
        )
        tracer = self.tracer
        if tracer is not None:
            tracer.event(
                "run_end",
                attrs={
                    "blocks": len(state.merged_blocks),
                    "committed": metrics.committed,
                    "aborted": metrics.aborted,
                    "decision_digest": metrics.extra["decision_digest"][:16],
                    "cert_head": self.cert_log.head_hash[:16],
                },
            )
            tracer.anno(
                "run_summary",
                timing={
                    "makespan_us": merged_result.makespan_us,
                    "cpu_utilization": merged_result.cpu_utilization,
                },
            )
            latency_hist = tracer.metrics.histogram("block_latency_us")
            for latency in metrics.latencies_us:
                latency_hist.observe(latency)
            for shard, result in enumerate(results):
                tracer.metrics.gauge(f"shard{shard}.busy_core_us").set(
                    result.busy_core_us
                )
        return metrics

    def _consensus_latency_us(self) -> float:
        if isinstance(self.consensus, HotStuffConsensus):
            return self.consensus.block_latency_us()
        return self.consensus.block_latency_us(
            self._block_bytes(), self.config.num_replicas
        )

    # -------------------------------------------------------------- checks
    def consistency_check(self) -> bool:
        """Replay blocks + certificates on a fresh replica; states must match.

        The replica never re-runs the vote exchange: the certificates *are*
        the decision stream, so a correct replica reaches the identical
        per-shard states from (sub-blocks, certificates) alone — the
        sharded analogue of the paper's replica-consistency claim.
        """
        from repro.shard.recovery import replay_group_serial

        other = replay_group_serial(self, name_prefix="replica-1")
        return other.combined_state_hash() == self.group.combined_state_hash()

    # ------------------------------------------------------------ reporting
    def cross_shard_abort_reasons(self) -> dict:
        """Histogram of veto reasons recorded in the certificate stream."""
        reasons: dict[str, int] = {}
        for cert in self.cert_log.certificates():
            for vote in cert.votes:
                if not vote.commit and vote.reason:
                    reasons[vote.reason] = reasons.get(vote.reason, 0) + 1
        return reasons


def build_sharded_system(config: ShardConfig, workload) -> ShardedBlockchain:
    """Convenience constructor matching :func:`repro.chain.system.build_system`."""
    return ShardedBlockchain(config, workload)


# re-exported for callers that reason about forced aborts
CROSS_SHARD_ABORT = AbortReason.CROSS_SHARD_ABORT
