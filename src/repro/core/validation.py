"""Abort-minimizing validation: Rule 1 (Algorithm 1) and Rule 3.

Rule 1 — a transaction ``Tj`` aborts iff it sits in a *backward dangerous
structure* ``Ti <--rw-- Tj <--rw-- Tk`` with ``i < j`` and ``i <= k``.
Algorithm 1 folds the rw-subgraph into two counters per transaction:

- ``min_out``: the minimal TID that ``Tj`` rw-points to (init ``j + 1``);
- ``max_in``: the maximal TID that rw-points to ``Tj`` (init ``-inf``);

and aborts ``Tj`` when ``min_out < j and min_out <= max_in`` — an O(edges)
check with no graph traversal and no cross-thread coordination.

Rule 3 — with inter-block parallelism, block *i* simulates against the
snapshot of block *i−2*, so a committed writer in block *i−1* can induce an
*inter-block* rw edge. The generalized structure is resolved with a
deterministic abort policy: when the structure closes within one block the
middle transaction aborts (same as Rule 1); when the closing edge comes from
a later block, the later transaction aborts — so every replica, regardless
of message timing, reaches the same decision (Figure 6).

The implementation keeps a :class:`CommittedRecord` per committed
transaction of the previous block: its TID, final ``min_out``, the keys it
wrote, and whether its write commands were read-modify-write. Validation of
block *i* consults those records for:

- (ii) incoming inter-block ww/wr dependencies that close a structure on a
  current-block middle transaction, and
- (iii) outgoing inter-block rw edges into a previous-block transaction that
  was itself a structure middle (``min_out < tid``) — the Figure 6 case.

Performance: the hot loops run against sorted-key / interval indexes
(``indexed=True``, the default) — range reads slice the previous block's
written keys with two bisects, written keys stab the committed range
readers, and the committed-block reachability closure is computed with
per-node bitsets instead of one DFS per node. The naive quadratic paths
are retained behind ``indexed=False`` as the differential-testing
reference; both produce bit-identical commit/abort decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dependencies import BlockDependencyIndex
from repro.intervals import RangeIndex, SortedKeys, covers
from repro.txn.transaction import AbortReason, Txn

NEG_INF = float("-inf")


def bitset_closure(succ: list[int]) -> list[int]:
    """Transitive closure of a graph given as per-node successor bitsets.

    ``succ[i]`` has bit ``j`` set for every edge ``i -> j``; the result's
    ``reach[i]`` has bit ``j`` set for every node reachable from ``i`` via
    at least one edge (so ``i`` reaches itself iff it lies on a cycle).
    Nodes are propagated in reverse index order, so when every edge points
    to a higher index one pass closes the graph (a second confirms it); the
    passes repeat to a fixpoint so backward edges, and the cycles they
    form, still close exactly.
    """
    reach = list(succ)
    changed = True
    while changed:
        changed = False
        for i in range(len(succ) - 1, -1, -1):
            acc = succ[i]
            bits = succ[i]
            while bits:
                j = (bits & -bits).bit_length() - 1
                acc |= reach[j]
                bits &= bits - 1
            if acc != reach[i]:
                reach[i] = acc
                changed = True
    return reach


@dataclass(frozen=True)
class CommittedRecord:
    """What later blocks need to know about a committed transaction."""

    tid: int
    min_out: int
    written_keys: frozenset
    rmw_keys: frozenset  # written keys whose command reads the prior value
    #: position in the block's serial witness order (ascending min_out, tid)
    witness_pos: int = 0

    @property
    def was_structure_middle(self) -> bool:
        return self.min_out < self.tid


@dataclass
class PrevBlockRecords:
    """Committed-transaction facts of the previous block (Rule 3 inputs).

    Treated as immutable once built by :meth:`HarmonyValidator.records_for`;
    the two ``*_index`` accessors cache derived indexes on that assumption.
    """

    #: key -> committed records that wrote it
    writers: dict = field(default_factory=dict)
    #: key -> [(tid, witness_pos)] of committed point readers
    readers: dict = field(default_factory=dict)
    #: [(start, end, tid, witness_pos)] of committed range readers
    range_readers: list = field(default_factory=list)
    #: witness_pos -> frozenset of witness_pos reachable through the
    #: committed block's dependency graph (reflexive)
    reachable: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.writers or self.readers or self.range_readers)

    def reaches(self, from_pos: int, to_pos: int) -> bool:
        if from_pos == to_pos:
            return True
        return to_pos in self.reachable.get(from_pos, ())

    def writer_key_index(self) -> SortedKeys:
        """Sorted index over the keys the committed block wrote (cached)."""
        index = self.__dict__.get("_writer_key_index")
        if index is None:
            index = SortedKeys(self.writers)
            self._writer_key_index = index
        return index

    def range_reader_index(self) -> RangeIndex:
        """Stabbing index over committed range reads, payload = witness_pos
        (cached)."""
        index = self.__dict__.get("_range_reader_index")
        if index is None:
            index = RangeIndex(
                (start, end, pos) for start, end, _tid, pos in self.range_readers
            )
            self._range_reader_index = index
        return index


@dataclass
class ValidationStats:
    """Per-block validation outcome."""

    aborted_tids: set = field(default_factory=set)
    dangerous_structure_hits: int = 0
    inter_block_aborts: int = 0
    ww_aborts: int = 0
    #: the dependency index built for this block — handed to the commit
    #: step so update reordering reuses the per-key chains instead of
    #: re-deriving them (see :func:`repro.core.reordering.apply_write_sets`)
    dep_index: BlockDependencyIndex | None = field(
        default=None, repr=False, compare=False
    )


class HarmonyValidator:
    """Applies Rule 1 (and Rule 3 when ``inter_block``) to a block.

    With ``update_reorder=False`` (Figure 20's ablation), ww-dependencies
    cannot be resolved by reordering, so the validator falls back to Aria's
    style: among transactions updating the same key, only the smallest TID
    survives.

    ``indexed=False`` selects the retained naive scans everywhere (the
    differential-testing / benchmarking baseline).
    """

    def __init__(
        self,
        inter_block: bool = False,
        update_reorder: bool = True,
        indexed: bool = True,
    ) -> None:
        self.inter_block = inter_block
        self.update_reorder = update_reorder
        self.indexed = indexed

    def validate(
        self,
        txns: list[Txn],
        prev_records: PrevBlockRecords | None = None,
    ) -> ValidationStats:
        """Decide commit/abort for every transaction in the block.

        ``prev_records`` carries the previous block's committed reader and
        writer facts (only consulted when ``inter_block``).
        """
        stats = ValidationStats()
        index = BlockDependencyIndex(
            txns, indexed=self.indexed, collect_writer_txns=True
        )
        stats.dep_index = index

        # --- simulation-step events: fold rw edges into the counters.
        for txn in txns:
            txn.min_out = txn.tid + 1
            txn.max_in = NEG_INF
        if self.indexed:
            # Fused fold: same events, no per-edge object churn.
            index.fold_rw_counters()
        else:
            for edge in index.rw_edges():
                reader = index.txn(edge.reader_tid)
                writer = index.txn(edge.writer_tid)
                # Event on_seeing_rw_dependency(T_writer <--rw-- T_reader):
                reader.min_out = min(writer.tid, reader.min_out)
                writer.max_in = max(reader.tid, writer.max_in)

        inter_doomed: set[int] = set()
        if self.inter_block and prev_records:
            self._fold_inter_block_edges(txns, prev_records, inter_doomed)

        # --- commit-step checks, in TID order (deterministic).
        for txn in sorted(txns, key=lambda t: t.tid):
            if txn.aborted:  # e.g. execution error during simulation
                stats.aborted_tids.add(txn.tid)
                continue
            if txn.min_out < txn.tid and txn.min_out <= txn.max_in:
                txn.mark_aborted(AbortReason.BACKWARD_DANGEROUS_STRUCTURE)
                stats.aborted_tids.add(txn.tid)
                stats.dangerous_structure_hits += 1
                continue
            if self.inter_block and txn.tid in inter_doomed:
                txn.mark_aborted(AbortReason.INTER_BLOCK_STRUCTURE)
                stats.aborted_tids.add(txn.tid)
                stats.inter_block_aborts += 1

        if not self.update_reorder:
            self._abort_ww_losers(txns, stats)
        return stats

    def _fold_inter_block_edges(
        self,
        txns: list[Txn],
        prev: PrevBlockRecords,
        inter_doomed: set[int],
    ) -> None:
        """Account for dependencies that cross the snapshot gap (Rule 3).

        For a transaction ``T`` of the current block (simulating against the
        snapshot two blocks back) and the previous block's committed set:

        - ``T`` reads a key a committed ``W`` wrote -> *backward* inter-rw
          edge (``T`` must serialize before ``W``): ``T.min_out`` absorbs
          ``W.tid``. If ``W`` was itself a structure middle
          (``min_out < tid``), ``T`` closes a generalized backward dangerous
          structure whose other members already committed — abort ``T``
          (the Figure 6 policy: the replica that sees the structure late
          must agree with one that saw it early).
        - committed ``R`` read (or ``W'`` wrote) a key ``T`` writes ->
          *forward* inter edge into ``T`` (``R``/``W'`` serialize before
          ``T``). A cross-block cycle exists iff some backward target ``W``
          reaches some forward source ``S`` through the previous block's
          committed dependency graph (``T -> W ->* S -> T``); reachability
          is precomputed in :meth:`HarmonyValidator.records_for`, so the
          check here is exact, not a TID heuristic.

        All inputs are committed facts of an already-decided block, so every
        replica reaches identical decisions regardless of message timing.

        Indexed path: each range read slices ``prev``'s written keys with
        two bisects; each written key stabs the committed-range-reader
        index — O((reads + writes) · log |prev| + hits) per transaction
        instead of a full scan of ``prev`` per read range / written key.
        """
        if not self.indexed:
            self._fold_inter_block_edges_naive(txns, prev, inter_doomed)
            return

        writer_keys = prev.writer_key_index()
        range_reader_index = prev.range_reader_index()
        prev_writers = prev.writers
        prev_readers = prev.readers
        for txn in txns:
            backward_positions: set[int] = set()
            forward_positions: set[int] = set()

            # Backward targets (``see_target`` in the naive path, inlined —
            # this runs once per committed writer hit).
            for key in txn.read_set:
                for record in prev_writers.get(key, ()):
                    if record.tid < txn.min_out:
                        txn.min_out = record.tid
                    backward_positions.add(record.witness_pos)
                    if record.min_out < record.tid:  # was a structure middle
                        inter_doomed.add(txn.tid)
            for start, end in txn.read_ranges:
                for key in writer_keys.in_range(start, end):
                    for record in prev_writers[key]:
                        if record.tid < txn.min_out:
                            txn.min_out = record.tid
                        backward_positions.add(record.witness_pos)
                        if record.min_out < record.tid:
                            inter_doomed.add(txn.tid)

            for key in txn.write_set:
                for record in prev_writers.get(key, ()):  # ww into T
                    forward_positions.add(record.witness_pos)
                for _tid, pos in prev_readers.get(key, ()):  # rw into T
                    forward_positions.add(pos)
                for pos in range_reader_index.stab(key):
                    forward_positions.add(pos)

            self._close_structure(
                txn, prev, backward_positions, forward_positions, inter_doomed
            )

    def _fold_inter_block_edges_naive(
        self,
        txns: list[Txn],
        prev: PrevBlockRecords,
        inter_doomed: set[int],
    ) -> None:
        """Seed implementation: every range read scans every previous-block
        written key, every written key scans every committed range reader."""
        for txn in txns:
            backward_positions: set[int] = set()
            forward_positions: set[int] = set()

            def see_target(record: CommittedRecord) -> None:
                txn.min_out = min(txn.min_out, record.tid)
                backward_positions.add(record.witness_pos)
                if record.was_structure_middle:
                    inter_doomed.add(txn.tid)

            for key in txn.read_set:
                for record in prev.writers.get(key, ()):
                    see_target(record)
            for start, end in txn.read_ranges:
                for key, records in prev.writers.items():
                    if covers(start, end, key):
                        for record in records:
                            see_target(record)

            for key in txn.write_set:
                for record in prev.writers.get(key, ()):  # ww into T
                    forward_positions.add(record.witness_pos)
                for _tid, pos in prev.readers.get(key, ()):  # rw into T
                    forward_positions.add(pos)
                for start, end, _tid, pos in prev.range_readers:
                    if covers(start, end, key):
                        forward_positions.add(pos)

            self._close_structure(
                txn, prev, backward_positions, forward_positions, inter_doomed
            )

    @staticmethod
    def _close_structure(
        txn: Txn,
        prev: PrevBlockRecords,
        backward_positions: set[int],
        forward_positions: set[int],
        inter_doomed: set[int],
    ) -> None:
        """Doom ``txn`` when a backward target reaches a forward source."""
        if txn.tid in inter_doomed or not backward_positions or not forward_positions:
            return
        if any(
            prev.reaches(target, source)
            for target in backward_positions
            for source in forward_positions
        ):
            inter_doomed.add(txn.tid)

    def _abort_ww_losers(self, txns: list[Txn], stats: ValidationStats) -> None:
        """Ablation mode (no update reordering): Aria-style ww aborts —
        whenever multiple surviving transactions update the same record,
        only the one with the smallest TID commits."""
        winners: dict[object, int] = {}
        for txn in sorted(txns, key=lambda t: t.tid):
            if txn.tid in stats.aborted_tids:
                continue
            for key in txn.write_set:
                owner = winners.get(key)
                if owner is None:
                    winners[key] = txn.tid
                else:
                    txn.mark_aborted(AbortReason.WAW)
                    stats.aborted_tids.add(txn.tid)
                    stats.ww_aborts += 1
                    break

    @staticmethod
    def records_for(txns: list[Txn], indexed: bool = True) -> PrevBlockRecords:
        """Build the committed-transaction facts the next block consults."""
        committed = sorted(
            (t for t in txns if t.committed), key=lambda t: (t.min_out, t.tid)
        )
        records = PrevBlockRecords()
        for pos, txn in enumerate(committed):
            if txn.write_set:
                rmw = frozenset(
                    k for k, cmd in txn.write_set.items() if cmd.reads_value
                )
                record = CommittedRecord(
                    tid=txn.tid,
                    min_out=txn.min_out,
                    written_keys=frozenset(txn.write_set),
                    rmw_keys=rmw,
                    witness_pos=pos,
                )
                for key in record.written_keys:
                    records.writers.setdefault(key, []).append(record)
            for key in txn.read_set:
                records.readers.setdefault(key, []).append((txn.tid, pos))
            for start, end in txn.read_ranges:
                records.range_readers.append((start, end, txn.tid, pos))
        records.reachable = HarmonyValidator._reachability(committed, indexed=indexed)
        return records

    @staticmethod
    def _reachability(
        committed: list[Txn], indexed: bool = True
    ) -> dict[int, frozenset]:
        """Transitive closure over the committed block's dependency graph.

        Nodes are witness positions; edges are the block's rw anti-
        dependencies (reader -> writer) and the per-key apply chains (ww/wr
        in Rule-2 order, which equals ascending witness position).

        The indexed path finds each key's readers through a point-read map
        plus a range stabbing index (instead of re-evaluating
        ``txn.reads(key)`` for every (key, txn) pair), then closes the
        graph with :func:`bitset_closure` — in witness order, which is near
        topological, since apply-chain edges always point to higher
        positions.
        """
        if not indexed:
            return HarmonyValidator._reachability_naive(committed)
        n = len(committed)
        edges: dict[int, set[int]] = {i: set() for i in range(n)}
        writers_by_key: dict[object, list[int]] = {}
        point_readers: dict[object, list[int]] = {}
        range_index = RangeIndex()
        for pos, txn in enumerate(committed):
            for key in txn.write_set:
                writers_by_key.setdefault(key, []).append(pos)
            for key in txn.read_set:
                point_readers.setdefault(key, []).append(pos)
            for start, end in txn.read_ranges:
                range_index.add(start, end, pos)
        for key, writer_positions in writers_by_key.items():
            ordered = sorted(writer_positions)
            for earlier, later in zip(ordered, ordered[1:]):
                edges[earlier].add(later)
            reader_positions = set(point_readers.get(key, ()))
            reader_positions.update(range_index.stab(key))
            for pos in reader_positions:
                for writer_pos in writer_positions:
                    if writer_pos != pos:
                        edges[pos].add(writer_pos)

        succ = [0] * n
        for i, outs in edges.items():
            for j in outs:
                succ[i] |= 1 << j
        reach = bitset_closure(succ)
        closure: dict[int, frozenset] = {}
        for i in range(n):
            bits = reach[i]
            members = []
            while bits:
                j = (bits & -bits).bit_length() - 1
                members.append(j)
                bits &= bits - 1
            closure[i] = frozenset(members)
        return closure

    @staticmethod
    def _reachability_naive(committed: list[Txn]) -> dict[int, frozenset]:
        """Seed implementation: per-(key, txn) ``reads`` probes and one DFS
        per node. Retained as the differential-testing reference."""
        n = len(committed)
        edges: dict[int, set[int]] = {i: set() for i in range(n)}
        writers_by_key: dict[object, list[int]] = {}
        for pos, txn in enumerate(committed):
            for key in txn.write_set:
                writers_by_key.setdefault(key, []).append(pos)
        for key, writer_positions in writers_by_key.items():
            ordered = sorted(writer_positions)
            for earlier, later in zip(ordered, ordered[1:]):
                edges[earlier].add(later)
            for pos, txn in enumerate(committed):
                if txn.reads(key):
                    for writer_pos in writer_positions:
                        if writer_pos != pos:
                            edges[pos].add(writer_pos)
        closure: dict[int, frozenset] = {}
        for start in range(n):
            seen: set[int] = set()
            stack = list(edges[start])
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(edges[node] - seen)
            closure[start] = frozenset(seen)
        return closure
