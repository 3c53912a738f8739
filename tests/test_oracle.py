"""Tests for the serializability oracle, cross-checked against networkx."""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.dcc.oracle import (
    HistoryOracle,
    SerializabilityOracle,
    block_dependency_graph,
    has_cycle,
)
from repro.txn.commands import AddValue
from repro.txn.transaction import AbortReason, Txn, TxnSpec


def txn_with(tid, reads=(), writes=(), committed=True):
    txn = Txn(tid=tid, block_id=0, spec=TxnSpec("ops"))
    for key in reads:
        txn.read_set[key] = None
    for key in writes:
        txn.record_update(key, AddValue(1))
    if committed:
        txn.mark_committed()
    else:
        txn.mark_aborted(AbortReason.WAW)
    return txn


@st.composite
def adjacency(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    adj = {}
    for node in range(n):
        targets = draw(
            st.lists(st.integers(0, n - 1), max_size=4, unique=True)
        )
        adj[node] = {t for t in targets if t != node or draw(st.booleans())}
    return adj


class TestCycleDetection:
    def test_simple_cycle(self):
        assert has_cycle({1: {2}, 2: {3}, 3: {1}})

    def test_dag(self):
        assert not has_cycle({1: {2, 3}, 2: {3}, 3: set()})

    def test_self_loop(self):
        assert has_cycle({1: {1}})

    def test_empty(self):
        assert not has_cycle({})

    @given(adjacency())
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx(self, adj):
        graph = nx.DiGraph()
        graph.add_nodes_from(adj)
        for node, targets in adj.items():
            for target in targets:
                graph.add_edge(node, target)
        expected = not nx.is_directed_acyclic_graph(graph)
        assert has_cycle(adj) == expected


class TestBlockGraph:
    def test_reader_precedes_writer(self):
        reader = txn_with(1, reads=["x"])
        writer = txn_with(2, writes=["x"])
        graph = block_dependency_graph([reader, writer])
        assert 2 in graph[1]
        assert 1 not in graph[2]

    def test_updater_chain_follows_order(self):
        a = txn_with(1, writes=["x"])
        b = txn_with(2, writes=["x"])
        a.min_out, b.min_out = 5, 3  # Rule-2 order puts b first
        graph = block_dependency_graph([a, b])
        assert 1 in graph[2] and 2 not in graph[1]

    def test_range_reader_gets_edges(self):
        reader = txn_with(1)
        reader.read_ranges.append((("k", 0), ("k", 9)))
        writer = txn_with(2, writes=[("k", 5)])
        graph = block_dependency_graph([reader, writer])
        assert 2 in graph[1]


class TestFalseAborts:
    def test_harmless_abort_is_false(self):
        committed = txn_with(1, writes=["x"])
        aborted = txn_with(2, reads=["y"], committed=False)
        assert SerializabilityOracle.count_false_aborts([committed, aborted]) == 1

    def test_cycle_closing_abort_is_real(self):
        t1 = txn_with(1, reads=["y"], writes=["x"])
        t2 = txn_with(2, reads=["x"], writes=["y"], committed=False)
        t1.min_out, t2.min_out = 2, 1
        assert SerializabilityOracle.count_false_aborts([t1, t2]) == 0

    def test_committed_only_blocks_have_no_false_aborts(self):
        txns = [txn_with(i, writes=[f"k{i}"]) for i in range(1, 4)]
        assert SerializabilityOracle.count_false_aborts(txns) == 0

    @staticmethod
    def _counts(txns, chain_order=None):
        return {
            SerializabilityOracle.count_false_aborts(
                txns, chain_order=chain_order, indexed=indexed
            )
            for indexed in (True, False)
        }

    def test_cyclic_committed_set_counts_no_false_aborts(self):
        """A cyclic committed set makes every hypothetical commit cyclic,
        so even a footprint-disjoint abortee is not a false abort."""
        t1 = txn_with(1, reads=["y"], writes=["x"])
        t2 = txn_with(2, reads=["x"], writes=["y"])
        harmless = txn_with(3, writes=["z"], committed=False)
        assert not SerializabilityOracle.committed_is_serializable([t1, t2, harmless])
        assert self._counts([t1, t2, harmless]) == {0}
        assert self._counts([t1, t2, harmless], chain_order=lambda t: t.tid) == {0}

    def test_cycle_through_committed_range_reader(self):
        """The only edge into the abortee comes from a committed range
        reader whose range covers the abortee's write."""
        scanner = txn_with(1, writes=["a"])
        scanner.read_ranges.append((("k", 0), ("k", 9)))
        inside = txn_with(2, reads=["a"], writes=[("k", 5)], committed=False)
        assert self._counts([scanner, inside]) == {0}
        outside = txn_with(2, reads=["a"], writes=[("k", 20)], committed=False)
        assert self._counts([scanner, outside]) == {1}

    def test_abortee_inserted_mid_chain(self):
        """An abortee whose chain position falls between two committed
        writers of a key: it follows the first and precedes the second, and
        the committed first->second edge it splits changes nothing."""

        def block(abortee_reads):
            first = txn_with(3, writes=["x", "w"])
            last = txn_with(2, writes=["x", "y"])
            middle = txn_with(1, reads=abortee_reads, writes=["x"], committed=False)
            first.min_out, middle.min_out, last.min_out = 1, 2, 3
            return [first, last, middle]

        # middle -> last twice (chain and rw on y): acyclic only mid-chain
        assert self._counts(block(["y"])) == {1}
        # middle -> first (rw on w) closes first -> middle (chain)
        assert self._counts(block(["w"])) == {0}


class TestHistoryOracle:
    class _Apply:
        def __init__(self, key, tids):
            self.key = key
            self.updater_tids = tids

    def test_clean_history_serializable(self):
        oracle = HistoryOracle()
        t1 = txn_with(1, writes=["x"])
        oracle.record_block(0, [t1], [self._Apply("x", [1])], snapshot_block_id=-1)
        t2 = txn_with(2, reads=["x"])
        t2.read_set["x"] = (0, 0)  # observed block 0's write
        oracle.record_block(1, [t2], [], snapshot_block_id=0)
        assert oracle.is_serializable()

    def test_cross_block_cycle_detected(self):
        oracle = HistoryOracle()
        # T1 (block 0) reads k1 before-image; T2 (block 1) writes k1 and
        # reads k0's before-image of T1's write -> cycle
        t1 = txn_with(1, reads=["k1"], writes=["k0"])
        oracle.record_block(0, [t1], [self._Apply("k0", [1])], snapshot_block_id=-1)
        t2 = txn_with(2, reads=["k0"], writes=["k1"])
        t2.read_set["k0"] = None  # stale: lag-2 snapshot
        oracle.record_block(1, [t2], [self._Apply("k1", [2])], snapshot_block_id=-1)
        assert not oracle.is_serializable()

    def test_aborted_txns_ignored(self):
        oracle = HistoryOracle()
        t1 = txn_with(1, writes=["x"], committed=False)
        oracle.record_block(0, [t1], [self._Apply("x", [1])], snapshot_block_id=-1)
        assert oracle.is_serializable()
        assert oracle.build_graph() == {}
