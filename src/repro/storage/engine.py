"""The disk-oriented database layer: everything behind one facade.

``StorageEngine`` wires the simulated disk, buffer pool, heap file, the
multi-versioned store, the WAL and the checkpoint manager together, and
exposes cost-metered operations to the execution layer:

- ``read_cost(key)`` / ``write_cost(key)`` — charge an index probe and a
  buffer-pool access (possible page miss + eviction write-back);
- ``apply_block(...)`` — install a block's ordered writes and charge the
  group commit;
- ``checkpoint_if_due(...)`` — flush dirty pages every *p* blocks.

Protocol code never touches the disk or pool directly, so swapping the
storage profile (SSD / RAMDisk / memory — Figure 21) is a constructor
argument, not a code path.
"""

from __future__ import annotations

from repro.sim.costs import CostModel, StorageProfile
from repro.storage.bufferpool import BufferPool
from repro.storage.checkpoint import BlockLog, CheckpointManager
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.mvstore import MIGRATION_SEQ_BASE, MVStore, SnapshotView, TOMBSTONE
from repro.storage.wal import LogMode, WriteAheadLog

#: Default pool size: holds ~25% of a 10K-record table's pages, so buffer
#: behaviour matters but the working set of a skewed workload stays hot.
DEFAULT_POOL_PAGES = 48


class StorageEngine:
    """A cost-metered, multi-versioned, disk-oriented storage engine."""

    def __init__(
        self,
        costs: CostModel | None = None,
        profile: StorageProfile = StorageProfile.SSD,
        pool_pages: int = DEFAULT_POOL_PAGES,
        log_mode: LogMode = LogMode.LOGICAL,
        checkpoint_interval: int = 10,
        incremental_checkpoints: bool = True,
        checkpoint_base_interval: int = 8,
    ) -> None:
        base = costs or CostModel()
        self.profile = profile
        self.costs = base.with_profile(profile)
        self.disk = SimulatedDisk(self.costs)
        self.pool = BufferPool(pool_pages, self.disk, self.costs)
        self.heap = HeapFile(self.pool, self.costs)
        self.store = MVStore()
        self.wal = WriteAheadLog(self.disk, self.costs, log_mode)
        self.checkpoints = CheckpointManager(
            checkpoint_interval,
            incremental=incremental_checkpoints,
            base_interval=checkpoint_base_interval,
        )
        self.block_log = BlockLog()
        #: initial database state, kept for replay-from-genesis recovery
        self.genesis_state: dict[object, object] = {}
        #: the last applied block's (id, ordered writes) — lets a
        #: checkpoint taken right after the apply record them without
        #: rescanning the store's version chains
        self._last_block_writes: tuple[int, list[tuple[object, object]]] | None = None
        #: ordered (block_id, writes) of every block applied since the last
        #: checkpoint — the next delta checkpoint's payload (drained there);
        #: bounded by the checkpoint interval, like the block log segment
        self._delta_writes: list[tuple[int, list[tuple[object, object]]]] = []

    # ------------------------------------------------------------------ load
    def preload(self, items: dict[object, object]) -> None:
        """Bulk-load initial database state without charging runtime stats."""
        self.genesis_state = dict(items)
        # the implicit base the delta-checkpoint chain folds from (shares
        # values with genesis_state, which recovery already trusts to be
        # immutable-in-place)
        self.checkpoints.genesis = dict(items)
        self.store.load(items)
        for key in items:
            self.heap.insert(key)
        self.reset_stats()

    def reset_stats(self) -> None:
        self.disk.stats.page_reads = 0
        self.disk.stats.page_writes = 0
        self.disk.stats.fsyncs = 0
        self.pool.stats.hits = 0
        self.pool.stats.misses = 0
        self.pool.stats.evictions = 0
        self.pool.stats.dirty_writebacks = 0

    # ---------------------------------------------------------------- access
    def read_cost(self, key: object) -> float:
        """Charge one read access on ``key``'s page; returns us."""
        return self.heap.access(key, write=False)

    def write_cost(self, key: object, insert_if_absent: bool = True) -> float:
        """Charge one write access on ``key``'s page; returns us."""
        if key not in self.heap:
            if not insert_if_absent:
                return self.heap.access(key, write=True)
            return self.heap.insert(key)
        return self.heap.access(key, write=True)

    def scan_cost(self, num_records: int) -> float:
        """Approximate cost of a range scan touching ``num_records`` rows."""
        per_page = max(1, self.heap.num_pages and (len(self.heap) // self.heap.num_pages) or 1)
        pages = max(1, num_records // max(1, per_page))
        cost = self.costs.index_lookup_us
        cost += pages * (self.costs.buffer_admin_us + self.costs.dram_access_us)
        cost += num_records * self.costs.op_cpu_us * 0.25
        return cost

    def snapshot(self, block_id: int) -> SnapshotView:
        return self.store.snapshot(block_id)

    # ---------------------------------------------------------------- commit
    def apply_block(
        self,
        block_id: int,
        ordered_writes: list[tuple[object, object]],
    ) -> float:
        """Install a block's writes (already reordered/coalesced) and charge
        the log + group commit; returns the serial tail cost in us.

        Per-key page-write costs are charged by the caller per committing
        transaction (they happen *inside* the parallel commit step); this
        method charges only the shared serial tail: the WAL group commit.
        """
        cost = 0.0
        for key, value in ordered_writes:
            if self.wal.mode is LogMode.PHYSICAL:
                cost += self.wal.append("write", (block_id, key))
        self.store.apply_block(block_id, ordered_writes)
        self._last_block_writes = (block_id, ordered_writes)
        if self.checkpoints.incremental:
            self._delta_writes.append((block_id, ordered_writes))
        cost += self.wal.group_commit()
        return cost

    def apply_migration(self, block_id: int, items: dict[object, object]) -> None:
        """Install ownership-migration loads into boundary block ``block_id``.

        ``items`` maps moved keys to their shipped values (incoming) or to
        TOMBSTONE (outgoing). Versions land inside the already-applied
        boundary block at :data:`MIGRATION_SEQ_BASE` offsets, and the batch
        is buffered for the next delta checkpoint — a checkpoint taken
        after the boundary must capture migrated values or a recovered
        replica would diverge from one that never crashed.
        """
        if not items:
            return
        self.store.load(items, block_id=block_id, seq_start=MIGRATION_SEQ_BASE)
        for key, value in items.items():
            if value is not TOMBSTONE and key not in self.heap:
                self.heap.insert(key)
        if self.checkpoints.incremental:
            self._delta_writes.append((block_id, list(items.items())))

    def log_block_input(self, block: object) -> float:
        """Logical logging: persist the input block before execution."""
        self.block_log.append(block)
        cost = self.wal.append("block", getattr(block, "block_id", None))
        return cost

    def checkpoint_if_due(self, block_id: int, meta: dict | None = None) -> float:
        """Flush dirty pages every ``p`` blocks; returns flush cost in us.

        On the incremental path the durable record is one *delta* — the
        interval's buffered per-block writes, O(interval writes) — so no
        ``materialize`` / deepcopy of the whole keyspace ever runs here.
        ``incremental_checkpoints=False`` retains the seed's full-snapshot
        path as the differential reference.
        """
        if (block_id + 1) % self.checkpoints.interval_blocks != 0:
            return 0.0
        cost = self.pool.flush_all()
        if self.checkpoints.incremental:
            buffered = self._delta_writes
            taken = [entry for entry in buffered if entry[0] <= block_id]
            self._delta_writes = [entry for entry in buffered if entry[0] > block_id]
            # Blocks applied without going through engine.apply_block
            # (tests, manual store pokes) never entered the buffer; the
            # delta must still cover the *whole* interval since the last
            # chain entry, so rescan the store for each missing block —
            # only this degenerate path pays that.
            have = {entry[0] for entry in taken}
            missing = [
                bid
                for bid in range(self.checkpoints.last_checkpoint_block + 1, block_id + 1)
                if bid not in have
            ]
            if missing:
                taken.extend(
                    (bid, self.store.writes_in_block(bid)) for bid in missing
                )
                taken.sort(key=lambda entry: entry[0])
            self.checkpoints.delta_checkpoint(block_id, taken, meta=meta)
            return cost
        # Every executor checkpoints right after apply_block, so the
        # block's writes are in hand; only a checkpoint of some other
        # block (tests, manual calls) pays the store rescan.
        last = self._last_block_writes
        if last is not None and last[0] == block_id:
            block_writes = last[1]
        else:
            block_writes = self.store.writes_in_block(block_id)
        self.checkpoints.force_checkpoint(
            block_id,
            self.store.materialize(),
            prev_state=self.store.materialize_at(block_id - 1),
            meta=meta,
            block_writes=block_writes,
        )
        return cost

    # ----------------------------------------------------------------- stats
    @property
    def io_reads(self) -> int:
        return self.disk.stats.page_reads

    @property
    def io_writes(self) -> int:
        return self.disk.stats.page_writes

    @property
    def buffer_hits(self) -> int:
        return self.pool.stats.hits

    @property
    def buffer_misses(self) -> int:
        return self.pool.stats.misses

    def state_hash(self) -> str:
        return self.store.state_hash()
