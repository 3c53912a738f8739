"""Exact serializability checking — the measurement oracle.

Two uses:

1. **False-abort accounting** (Figure 13). An abort of ``T`` is *false*
   iff the dependency graph induced by (committed ∪ {T}) is acyclic — i.e.
   a scheduler with perfect information (and command reordering) could have
   committed ``T``. This is protocol-agnostic: it measures the workload's
   inherent conflicts against what the protocol actually aborted.

2. **Test oracle.** Every protocol's committed set must induce an acyclic
   dependency graph (serializability), both within a block and across
   blocks under inter-block parallelism (:class:`HistoryOracle`).

Graph construction (multi-version semantics):

- per key, committed updaters form a chain in apply order (Rule 2 order for
  Harmony; TID/commit order for the value-based baselines) — ww/wr edges;
- a snapshot reader of a key precedes every updater whose write it did not
  observe (rw anti-dependency), and follows every updater whose write it
  did observe (wr);
- range reads contribute the same edges for every key they cover.

False aborts are counted without building a graph per abortee. The
committed graph is built once per block as per-node successor bitsets and
closed once (:func:`~repro.core.validation.bitset_closure`). Hypothetically
committing ``T`` only adds edges that touch ``T``, so (committed ∪ {T}) is
cyclic exactly when the committed set already is, or when the reflexive
closure of ``T``'s committed successors meets ``T``'s committed
predecessors: one AND of two ints per abortee. A cyclic committed set
therefore counts no false aborts at all.

Cycle detection on explicit graphs is an iterative three-colour DFS (no
recursion limits); the test suite cross-checks it against :mod:`networkx`.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.core.validation import bitset_closure
from repro.intervals import RangeIndex, SortedKeys, covers
from repro.txn.transaction import Txn


def has_cycle(adjacency: dict[int, set[int]]) -> bool:
    """Iterative DFS cycle check over an adjacency mapping."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[int, int] = {}
    for root in adjacency:
        if colour.get(root, WHITE) != WHITE:
            continue
        stack: list[tuple[int, iter]] = [(root, iter(adjacency.get(root, ())))]
        colour[root] = GREY
        while stack:
            node, edges = stack[-1]
            advanced = False
            for nxt in edges:
                state = colour.get(nxt, WHITE)
                if state == GREY:
                    return True
                if state == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return False


def _covers(txn: Txn, key: object) -> bool:
    if key in txn.read_set:
        return True
    return any(covers(start, end, key) for start, end in txn.read_ranges)


def block_dependency_graph(
    txns: list[Txn],
    chain_order=lambda t: (t.min_out, t.tid),
) -> dict[int, set[int]]:
    """Dependency graph of one block's transactions (snapshot reads).

    ``txns`` is the node set (typically the committed set, optionally plus
    one hypothetically-committed abortee). All reads are snapshot reads, so
    a reader precedes every updater of the key; updaters of a key are
    chained in ``chain_order``.
    """
    adjacency: dict[int, set[int]] = {t.tid: set() for t in txns}
    writers: dict[object, list[Txn]] = {}
    for txn in txns:
        for key in txn.write_set:
            writers.setdefault(key, []).append(txn)

    for key, updaters in writers.items():
        ordered = sorted(updaters, key=chain_order)
        # ww/wr chain in apply order
        for earlier, later in zip(ordered, ordered[1:]):
            adjacency[earlier.tid].add(later.tid)
        # snapshot readers precede every updater (rw anti-dependency)
        for txn in txns:
            if _covers(txn, key):
                for updater in updaters:
                    if updater.tid != txn.tid:
                        adjacency[txn.tid].add(updater.tid)
    return adjacency


class SerializabilityOracle:
    """Per-block serializability checks and false-abort accounting."""

    @staticmethod
    def committed_is_serializable(txns: list[Txn], chain_order=None) -> bool:
        committed = [t for t in txns if t.committed]
        order = chain_order or (lambda t: (t.min_out, t.tid))
        return not has_cycle(block_dependency_graph(committed, order))

    @staticmethod
    def count_false_aborts(txns: list[Txn], chain_order=None, indexed: bool = True) -> int:
        """Aborts that perfect intra-block scheduling could have avoided.

        ``indexed=True`` (default) builds the committed-only graph once, as
        successor bitsets over positions in the committed list: chain edges
        from the sorted per-key writer chains, rw edges from each writer
        key's point readers and the range readers stabbing it. One bitset
        fixpoint closes it. If a committed node reaches itself, every
        (committed ∪ {T}) graph is cyclic and the count is 0. Otherwise
        ``T`` is a false abort iff the reflexive closure of its committed
        successors misses all of its committed predecessors:

        - successors: the chain-next writer of every key ``T`` writes, and
          every committed updater of a key ``T`` reads or range-covers;
        - predecessors: the chain-prev writer and every committed reader of
          every key ``T`` writes (range readers are stabbed only when the
          successors reach one of them, since no other can close a cycle).

        The committed ``prev→next`` edge that ``T``'s insertion splits is
        implied by ``prev→T→next``, so keeping it never changes the answer.
        ``indexed=False`` retains the seed's per-abortee graph rebuild and
        DFS as the reference; both counts are identical (differential-
        tested).
        """
        order = chain_order or (lambda t: (t.min_out, t.tid))
        committed = [t for t in txns if t.committed]
        abortees = [t for t in txns if t.aborted]
        if not abortees:
            return 0
        if not indexed:
            false_count = 0
            for txn in abortees:
                graph = block_dependency_graph(committed + [txn], order)
                if not has_cycle(graph):
                    false_count += 1
            return false_count

        # Committed graph over positions in ``committed``, as successor
        # bitsets, from the per-key writer chains in chain order (with the
        # sort keys an abortee's insertion point bisects on) and each key's
        # point readers plus a stabbing index of range readers.
        sort_keys = [order(t) for t in committed]
        writers: dict[object, list[int]] = {}
        reader_bits: dict[object, int] = {}
        range_readers = RangeIndex()
        range_bits = 0  # every committed range reader
        for pos, txn in enumerate(committed):
            bit = 1 << pos
            for key in txn.write_set:
                writers.setdefault(key, []).append(pos)
            for key in txn.read_set:
                reader_bits[key] = reader_bits.get(key, 0) | bit
            for start, end in txn.read_ranges:
                range_readers.add(start, end, bit)
                range_bits |= bit
        succ = [0] * len(committed)
        chains: dict[object, tuple[list, list[int]]] = {}
        for key, positions in writers.items():
            if len(positions) == 1:
                ordered = positions
                wbits = 1 << positions[0]
            else:
                ordered = sorted(positions, key=sort_keys.__getitem__)
                wbits = 0
                for pos in ordered:
                    wbits |= 1 << pos
                for earlier, later in zip(ordered, ordered[1:]):
                    succ[earlier] |= 1 << later
            chains[key] = ([sort_keys[pos] for pos in ordered], ordered)
            # snapshot readers precede every other updater of the key (rw)
            rbits = reader_bits.get(key, 0)
            if range_bits:
                for bit in range_readers.stab(key):
                    rbits |= bit
            while rbits:
                low = rbits & -rbits
                succ[low.bit_length() - 1] |= wbits & ~low
                rbits ^= low

        reach = bitset_closure(succ)
        if any(bits >> pos & 1 for pos, bits in enumerate(reach)):
            return 0  # the committed set is cyclic, so is committed ∪ {T}
        reach = [bits | 1 << pos for pos, bits in enumerate(reach)]
        # a chain's head reaches every updater of its key
        updaters_reach = {key: reach[chain[1][0]] for key, chain in chains.items()}
        writer_keys = SortedKeys(writers)

        false_count = 0
        for txn in abortees:
            tkey = order(txn)
            after = 0  # reflexive reach of T's committed successors
            before = 0  # T's committed predecessors
            for key in txn.write_set:
                entry = chains.get(key)
                if entry is not None:
                    order_keys, ordered = entry
                    pos = bisect_right(order_keys, tkey)
                    if pos > 0:
                        before |= 1 << ordered[pos - 1]
                    if pos < len(ordered):
                        after |= reach[ordered[pos]]
                # snapshot point readers precede the hypothetical new updater
                before |= reader_bits.get(key, 0)
            # the abortee reads before every committed updater it covers
            for key in txn.read_set:
                after |= updaters_reach.get(key, 0)
            for start, end in txn.read_ranges:
                for key in writer_keys.in_range(start, end):
                    after |= updaters_reach[key]
            # range readers precede it too, but only reachable ones matter
            if after & range_bits:
                for key in txn.write_set:
                    for bit in range_readers.stab(key):
                        before |= bit
            if not after & before:
                false_count += 1
        return false_count


@dataclass
class _WritePosition:
    """Where a committed write landed: (block, position-in-key-chain)."""

    block_id: int
    chain_pos: int
    tid: int


@dataclass
class HistoryOracle:
    """Serializability across blocks (the inter-block-parallelism check).

    Executors feed each block's committed transactions plus the per-key
    apply chains; the oracle rebuilds the full multi-version dependency
    graph of the history and checks it for cycles.

    ``indexed=True`` (default) resolves each range read by slicing a
    :class:`~repro.intervals.SortedKeys` index over the write-chain keys
    (two bisects + the covered keys) and memoizes the per-key ww/wr chain
    edges across :meth:`build_graph` calls. Read edges are *not* cached —
    a chain growing in a later block retroactively adds edges for old
    readers, so they are re-derived from every recorded read each call
    (each now a stab instead of a full-chain scan). ``indexed=False``
    retains the seed's scan of every chain per range read as the
    differential-testing reference; both produce identical adjacency.
    """

    indexed: bool = True
    _read_facts: dict[int, dict] = field(default_factory=dict)
    _range_facts: dict[int, list] = field(default_factory=dict)
    _snapshot_block: dict[int, int] = field(default_factory=dict)
    _chains: dict[object, list] = field(default_factory=dict)
    _tids: list[int] = field(default_factory=list)
    #: indexed-path caches (valid only while the recorded facts grow
    #: append-only, which record_block guarantees)
    _key_index: SortedKeys | None = field(default=None, repr=False, compare=False)
    _chain_edges: list = field(default_factory=list, repr=False, compare=False)
    _chain_folded: dict = field(default_factory=dict, repr=False, compare=False)

    def record_block(
        self,
        block_id: int,
        txns: list[Txn],
        key_applies,
        snapshot_block_id: int | None = None,
    ) -> None:
        snap = snapshot_block_id if snapshot_block_id is not None else block_id - 1
        committed = {t.tid for t in txns if t.committed}
        for txn in txns:
            if txn.tid not in committed:
                continue
            self._tids.append(txn.tid)
            self._read_facts[txn.tid] = dict(txn.read_set)
            self._range_facts[txn.tid] = list(txn.read_ranges)
            self._snapshot_block[txn.tid] = snap
        new_keys = []
        for item in key_applies:
            chain = self._chains.get(item.key)
            if chain is None:
                chain = self._chains[item.key] = []
                new_keys.append(item.key)
            ordered = [tid for tid in item.updater_tids if tid in committed]
            for pos, tid in enumerate(ordered):
                chain.append(_WritePosition(block_id, pos, tid))
        if new_keys and self._key_index is not None:
            self._key_index.extend(new_keys)

    def _add_read_edges(
        self,
        adjacency: dict[int, set[int]],
        tid: int,
        key: object,
        read_block: int,
    ) -> None:
        chain = self._chains.get(key)
        if not chain:
            return
        for write in chain:
            if write.tid == tid:
                continue
            if write.block_id > read_block:
                adjacency[tid].add(write.tid)  # rw: read the before-image
            else:
                adjacency[write.tid].add(tid)  # wr: observed the write

    def _fold_chain_edges(self) -> list:
        """Extend the memoized ww/wr chain-edge list with entries appended
        since the previous :meth:`build_graph` call (chains are append-only,
        so already-folded pairs never change)."""
        edges = self._chain_edges
        folded = self._chain_folded
        for key, chain in self._chains.items():
            done = folded.get(key, 0)
            n = len(chain)
            if done == n:
                continue
            for i in range(done - 1 if done else 0, n - 1):
                earlier, later = chain[i], chain[i + 1]
                if earlier.tid != later.tid:
                    edges.append((earlier.tid, later.tid))
            folded[key] = n
        return edges

    def build_graph(self) -> dict[int, set[int]]:
        if not self.indexed:
            return self._build_graph_naive()
        adjacency: dict[int, set[int]] = {tid: set() for tid in self._tids}

        # ww/wr chains per key, across blocks (memoized across calls).
        for earlier_tid, later_tid in self._fold_chain_edges():
            adjacency[earlier_tid].add(later_tid)

        if self._key_index is None:
            self._key_index = SortedKeys(self._chains)
        key_index = self._key_index

        # read edges: version/snapshot comparison decides before vs after.
        for tid in self._tids:
            snap = self._snapshot_block.get(tid, -1)
            reads = self._read_facts.get(tid, {})
            for key, version in reads.items():
                read_block = version[0] if version is not None else snap
                self._add_read_edges(adjacency, tid, key, read_block)
            for start, end in self._range_facts.get(tid, []):
                # stab the chain-key directory instead of scanning it
                for key in key_index.in_range(start, end):
                    if key not in reads:
                        self._add_read_edges(adjacency, tid, key, snap)
        return adjacency

    def _build_graph_naive(self) -> dict[int, set[int]]:
        """Seed implementation: every range read scans every write chain.
        Retained as the differential-testing reference."""
        adjacency: dict[int, set[int]] = {tid: set() for tid in self._tids}

        # ww/wr chains per key, across blocks (apply order is global).
        for chain in self._chains.values():
            for earlier, later in zip(chain, chain[1:]):
                if earlier.tid != later.tid:
                    adjacency[earlier.tid].add(later.tid)

        # read edges: version/snapshot comparison decides before vs after.
        for tid in self._tids:
            snap = self._snapshot_block.get(tid, -1)
            reads = self._read_facts.get(tid, {})
            for key, version in reads.items():
                read_block = version[0] if version is not None else snap
                self._add_read_edges(adjacency, tid, key, read_block)
            for start, end in self._range_facts.get(tid, []):
                for key in self._chains:
                    if covers(start, end, key) and key not in reads:
                        self._add_read_edges(adjacency, tid, key, snap)
        return adjacency

    def is_serializable(self) -> bool:
        return not has_cycle(self.build_graph())
