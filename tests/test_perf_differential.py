"""Differential tests: indexed fast paths vs the retained naive paths.

The perf PR's contract is that every optimized hot path — interval-indexed
rw-edge extraction, the Rule-3 inter-block fold, the bitset reachability
closure, Aria's reservation range check, the streamed overlay scan, the
batched ``MVStore.load`` and the incremental state hash — is *bit-identical*
in decision outputs to the seed's naive implementation. These tests run
randomized blocks through both and assert identical abort sets, counters,
rows and hashes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dependencies import BlockDependencyIndex
from repro.core.reordering import KeyApply, apply_write_sets, derive_reservation
from repro.core.validation import HarmonyValidator
from repro.dcc.aria import AriaExecutor
from repro.dcc.oracle import HistoryOracle, SerializabilityOracle
from repro.execution import OverlayView
from repro.intervals import RangeIndex, SortedKeys, covers
from repro.storage.mvstore import MVStore, TOMBSTONE
from repro.txn.commands import AddValue, SetValue
from repro.txn.transaction import Txn, TxnSpec

from tests.conftest import generic_registry, make_engine, make_txns

NUM_KEYS = 24


def _key(i: int) -> tuple:
    return ("k", i)


@st.composite
def txn_block(draw, first_tid: int = 1, max_txns: int = 10):
    """Random transactions with point reads, range reads and writes."""
    n = draw(st.integers(min_value=2, max_value=max_txns))
    txns = []
    for tid in range(first_tid, first_tid + n):
        txn = Txn(tid=tid, block_id=0, spec=TxnSpec("ops"))
        for i in draw(st.lists(st.integers(0, NUM_KEYS - 1), max_size=3, unique=True)):
            txn.read_set[_key(i)] = None
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.integers(0, NUM_KEYS - 1))
            span = draw(st.integers(0, NUM_KEYS // 2))
            txn.read_ranges.append((_key(start), _key(start + span)))
        for i in draw(st.lists(st.integers(0, NUM_KEYS - 1), max_size=3, unique=True)):
            txn.record_update(_key(i), AddValue(1))
        txns.append(txn)
    return txns


def clone_block(txns):
    out = []
    for t in txns:
        c = Txn(tid=t.tid, block_id=t.block_id, spec=t.spec)
        c.read_set = dict(t.read_set)
        c.read_ranges = list(t.read_ranges)
        c.write_set = dict(t.write_set)
        c.updated_keys = list(t.updated_keys)
        out.append(c)
    return out


class TestDependencyIndex:
    @given(txn_block())
    @settings(max_examples=200, deadline=None)
    def test_readers_of_identical(self, txns):
        naive = BlockDependencyIndex(txns, indexed=False)
        fast = BlockDependencyIndex(txns, indexed=True)
        for i in range(NUM_KEYS + 2):
            assert naive.readers_of(_key(i)) == fast.readers_of(_key(i))

    @given(txn_block())
    @settings(max_examples=200, deadline=None)
    def test_rw_edges_identical(self, txns):
        naive = BlockDependencyIndex(txns, indexed=False)
        fast = BlockDependencyIndex(txns, indexed=True)
        assert list(naive.rw_edges()) == list(fast.rw_edges())


class TestValidation:
    @given(txn_block())
    @settings(max_examples=200, deadline=None)
    def test_intra_block_identical(self, txns):
        a, b = clone_block(txns), clone_block(txns)
        stats_naive = HarmonyValidator(indexed=False).validate(a)
        stats_fast = HarmonyValidator(indexed=True).validate(b)
        assert stats_naive.aborted_tids == stats_fast.aborted_tids
        for ta, tb in zip(a, b):
            assert (ta.min_out, ta.max_in, ta.status) == (tb.min_out, tb.max_in, tb.status)

    @given(txn_block(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_inter_block_fold_identical(self, prev_txns, data):
        HarmonyValidator().validate(prev_txns)
        for t in prev_txns:
            if not t.aborted:
                t.mark_committed()
        records = HarmonyValidator.records_for(prev_txns)
        current = data.draw(txn_block(first_tid=len(prev_txns) + 1))

        a, b = clone_block(current), clone_block(current)
        stats_naive = HarmonyValidator(inter_block=True, indexed=False).validate(a, records)
        stats_fast = HarmonyValidator(inter_block=True, indexed=True).validate(b, records)
        assert stats_naive.aborted_tids == stats_fast.aborted_tids
        assert stats_naive.inter_block_aborts == stats_fast.inter_block_aborts
        for ta, tb in zip(a, b):
            assert (ta.min_out, ta.status, ta.abort_reason) == (
                tb.min_out,
                tb.status,
                tb.abort_reason,
            )

    @given(txn_block())
    @settings(max_examples=200, deadline=None)
    def test_reachability_identical(self, txns):
        HarmonyValidator().validate(txns)
        for t in txns:
            if not t.aborted:
                t.mark_committed()
        naive = HarmonyValidator.records_for(txns, indexed=False)
        fast = HarmonyValidator.records_for(txns, indexed=True)
        assert naive.reachable == fast.reachable
        assert naive.writers.keys() == fast.writers.keys()


@st.composite
def oracle_history(draw):
    """A randomized multi-block committed history for the history oracle:
    point reads carrying observed versions, range reads, per-key apply
    chains and a mix of committed/aborted transactions."""
    num_blocks = draw(st.integers(min_value=1, max_value=4))
    blocks = []
    tid = 0
    for block_id in range(num_blocks):
        n = draw(st.integers(min_value=1, max_value=6))
        txns = []
        for _ in range(n):
            txn = Txn(tid=tid, block_id=block_id, spec=TxnSpec("ops"))
            tid += 1
            for i in draw(
                st.lists(st.integers(0, NUM_KEYS - 1), max_size=3, unique=True)
            ):
                version = draw(
                    st.one_of(
                        st.none(),
                        st.tuples(st.integers(-1, block_id), st.integers(0, 2)),
                    )
                )
                txn.read_set[_key(i)] = version
            for _ in range(draw(st.integers(0, 2))):
                start = draw(st.integers(0, NUM_KEYS - 1))
                span = draw(st.integers(0, NUM_KEYS // 2))
                txn.read_ranges.append((_key(start), _key(start + span)))
            for i in draw(
                st.lists(st.integers(0, NUM_KEYS - 1), max_size=3, unique=True)
            ):
                txn.record_update(_key(i), AddValue(1))
            if draw(st.booleans()):
                txn.mark_committed()
            else:
                from repro.txn.transaction import AbortReason

                txn.mark_aborted(AbortReason.WAW)
            txns.append(txn)
        chains: dict = {}
        for txn in txns:  # apply chains in block (TID) order
            for key in txn.write_set:
                chains.setdefault(key, []).append(txn.tid)
        applies = [
            KeyApply(key=key, updater_tids=tids, handler_tid=tids[0])
            for key, tids in chains.items()
        ]
        snap = block_id - draw(st.integers(1, 2))
        blocks.append((block_id, txns, applies, snap))
    return blocks


class TestHistoryOracleDifferential:
    @given(oracle_history())
    @settings(max_examples=150, deadline=None)
    def test_build_graph_identical(self, blocks):
        naive = HistoryOracle(indexed=False)
        fast = HistoryOracle(indexed=True)
        for block_id, txns, applies, snap in blocks:
            for oracle in (naive, fast):
                oracle.record_block(block_id, txns, applies, snapshot_block_id=snap)
        assert naive.build_graph() == fast.build_graph()
        assert naive.is_serializable() == fast.is_serializable()

    @given(oracle_history())
    @settings(max_examples=100, deadline=None)
    def test_incremental_checks_match_one_shot(self, blocks):
        """Checking after every block (the memoized usage pattern) must give
        the same verdicts as a naive oracle rebuilt from scratch each time."""
        naive = HistoryOracle(indexed=False)
        fast = HistoryOracle(indexed=True)
        for block_id, txns, applies, snap in blocks:
            for oracle in (naive, fast):
                oracle.record_block(block_id, txns, applies, snapshot_block_id=snap)
            assert naive.build_graph() == fast.build_graph()
            assert naive.is_serializable() == fast.is_serializable()
        # a repeated fully-memoized call is idempotent
        assert fast.build_graph() == fast.build_graph()

class TestFalseAbortDifferential:
    """Indexed false-abort counting vs the per-abortee graph rebuild."""

    @given(txn_block(max_txns=14))
    @settings(max_examples=150, deadline=None)
    def test_counts_identical_after_validation(self, txns):
        HarmonyValidator().validate(txns)
        for txn in txns:
            if not txn.aborted:
                txn.mark_committed()
        naive = SerializabilityOracle.count_false_aborts(txns, indexed=False)
        fast = SerializabilityOracle.count_false_aborts(txns, indexed=True)
        assert naive == fast

    @given(txn_block(max_txns=12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_identical_under_arbitrary_statuses(self, txns, data):
        """Any committed/aborted split and any chain order (the value-based
        schemes use TID order) must agree between the two paths."""
        from repro.txn.transaction import AbortReason

        for txn in txns:
            if data.draw(st.booleans()):
                txn.mark_committed()
            else:
                txn.mark_aborted(AbortReason.WAW)
        for chain_order in (None, lambda t: t.tid):
            naive = SerializabilityOracle.count_false_aborts(
                txns, chain_order=chain_order, indexed=False
            )
            fast = SerializabilityOracle.count_false_aborts(
                txns, chain_order=chain_order, indexed=True
            )
            assert naive == fast

    @pytest.mark.parametrize("run", ["ycsb", "ycsb-sov", "tpcc-2shard"])
    def test_counts_identical_on_every_block_of_a_run(self, run, monkeypatch):
        """Every block a driver measures, under the driver's own chain order
        and under TID order (the SOV schemes' apply order)."""
        from repro.chain.sov import SOVBlockchain, SOVConfig
        from repro.chain.system import OEBlockchain, OEConfig
        from repro.shard.system import ShardConfig, ShardedBlockchain
        from repro.workloads import ShardAffinity, make_workload

        measure = SerializabilityOracle.count_false_aborts
        blocks = []

        def checked(txns, chain_order=None, indexed=True):
            for order in (chain_order, lambda t: t.tid):
                naive = measure(txns, chain_order=order, indexed=False)
                assert measure(txns, chain_order=order, indexed=True) == naive
            blocks.append(sum(1 for t in txns if t.aborted))
            return measure(txns, chain_order=chain_order, indexed=indexed)

        monkeypatch.setattr(
            SerializabilityOracle, "count_false_aborts", staticmethod(checked)
        )
        sizes = dict(block_size=40, num_blocks=8)
        if run == "ycsb":
            OEBlockchain(
                OEConfig(**sizes), make_workload("ycsb", profile="conformance")
            ).run()
        elif run == "ycsb-sov":
            SOVBlockchain(
                SOVConfig(**sizes), make_workload("ycsb", profile="conformance")
            ).run()
        else:
            workload = make_workload(
                "tpcc", profile="conformance", affinity=ShardAffinity(2, 0.5)
            )
            ShardedBlockchain(ShardConfig(num_shards=2, **sizes), workload).run()
        assert len(blocks) == sizes["num_blocks"]
        assert sum(blocks) > 0  # the runs abort, so the paths are exercised


class TestGcDifferential:
    """Watermarked gc vs the seed's every-chain walk."""

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, NUM_KEYS - 1), st.integers(0, 5)),
                max_size=8,
            ),
            min_size=1,
            max_size=6,
        ),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_gc_identical_and_watermark_sound(self, blocks, data):
        def build() -> MVStore:
            store = MVStore()
            store.load({_key(i): i for i in range(NUM_KEYS)})
            for block_id, writes in enumerate(blocks):
                batch = [
                    (_key(i), TOMBSTONE if v == 0 else v) for i, v in writes
                ]
                store.apply_block(block_id, batch)
            return store

        naive, fast = build(), build()
        horizons = sorted(
            data.draw(st.lists(st.integers(-1, len(blocks)), max_size=3))
        )
        for horizon in horizons:
            assert naive.gc(horizon, indexed=False) == fast.gc(horizon, indexed=True)
            assert naive._versions == fast._versions
        # the watermark must still cover every multi-version chain
        multi = {k for k, chain in fast._versions.items() if len(chain) > 1}
        assert multi <= fast._gc_pending


class TestHistoryOracleFallbacks:
    def test_heterogeneous_chain_keys_fall_back(self):
        """Unsortable chain-key populations degrade to the linear scan."""
        reader = Txn(tid=0, block_id=1, spec=TxnSpec("ops"))
        reader.read_ranges.append((0, 10))
        reader.mark_committed()
        writers = []
        for tid, key in ((1, 5), (2, "s"), (3, (9, 9))):
            txn = Txn(tid=tid, block_id=0, spec=TxnSpec("ops"))
            txn.record_update(key, AddValue(1))
            txn.mark_committed()
            writers.append(txn)
        applies = [
            KeyApply(key=key, updater_tids=[tid], handler_tid=tid)
            for tid, key in ((1, 5), (2, "s"), (3, (9, 9)))
        ]
        naive = HistoryOracle(indexed=False)
        fast = HistoryOracle(indexed=True)
        for oracle in (naive, fast):
            oracle.record_block(0, writers, applies, snapshot_block_id=-1)
            oracle.record_block(1, [reader], [], snapshot_block_id=0)
        graph = fast.build_graph()
        assert graph == naive.build_graph()
        # the range read stabbed the int key's chain: its block-0 write is
        # visible at the reader's snapshot, a wr edge writer -> reader
        assert 0 in graph[1]


class TestReorderReuse:
    @given(txn_block(), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_apply_write_sets_identical(self, txns, inter_block, do_coalesce):
        validator = HarmonyValidator(inter_block=inter_block)
        stats = validator.validate(txns)
        base = {_key(i): i * 10 for i in range(NUM_KEYS)}

        def run(dep_index):
            return apply_write_sets(
                txns,
                read_base=lambda key: base.get(key),
                write_cost=lambda key: 1.0,
                do_coalesce=do_coalesce,
                dep_index=dep_index,
            )

        naive, reuse = run(None), run(stats.dep_index)
        assert derive_reservation(txns, None) == derive_reservation(
            txns, stats.dep_index
        )
        # an index built without collect_writer_txns lazily derives the
        # same chains on first use
        lazy_index = BlockDependencyIndex(txns)
        assert derive_reservation(txns, None) == derive_reservation(
            txns, lazy_index
        )
        assert naive.ordered_writes == reuse.ordered_writes
        assert naive.key_applies == reuse.key_applies
        assert naive.txn_commit_cpu_us == reuse.txn_commit_cpu_us

    @given(txn_block(max_txns=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_reservation_identical_at_any_abort_rate(self, txns, data):
        """The adaptive strategies (share / subtract / rebuild) must agree
        with the naive derivation whatever fraction of the block aborted."""
        from repro.txn.transaction import AbortReason

        doomed = data.draw(
            st.lists(st.sampled_from([t.tid for t in txns]), unique=True)
        )
        index = BlockDependencyIndex(txns)
        for txn in txns:
            if txn.tid in doomed:
                txn.mark_aborted(AbortReason.WAW)
        assert derive_reservation(txns, None) == derive_reservation(txns, index)


def _ops_strategy():
    point = st.tuples(st.just("r"), st.integers(0, 31))
    add = st.tuples(st.just("add"), st.integers(0, 31), st.integers(1, 5))
    setv = st.tuples(st.just("set"), st.integers(0, 31), st.integers(0, 99))
    rmw = st.tuples(st.just("rmw"), st.integers(0, 31), st.integers(1, 5))
    scan = st.tuples(st.just("scan"), st.integers(0, 20), st.integers(21, 32))
    op = st.one_of(point, add, setv, rmw, scan)
    return st.lists(st.lists(op, min_size=1, max_size=4), min_size=2, max_size=8)


class TestAriaRangeCheck:
    @given(_ops_strategy())
    @settings(max_examples=40, deadline=None)
    def test_decisions_and_state_identical(self, op_lists):
        outcomes = []
        for indexed in (False, True):
            engine = make_engine(num_keys=32)
            executor = AriaExecutor(engine, generic_registry(), indexed=indexed)
            txns = make_txns(op_lists)
            executor.execute_block(0, txns)
            outcomes.append(
                (
                    [(t.status, t.abort_reason) for t in txns],
                    engine.state_hash(),
                )
            )
        assert outcomes[0] == outcomes[1]


class TestOverlayScan:
    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 99)), max_size=12),
        st.lists(st.integers(0, 40), max_size=6, unique=True),
        st.integers(0, 20),
        st.integers(0, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_stream_merge_matches_dict_merge(self, writes, deletes, lo, span):
        store = MVStore()
        store.load({_key(i): i * 10 for i in range(0, 40, 2)})
        overlay = OverlayView(store.latest_snapshot(), block_id=0)
        for i, value in writes:
            overlay.put(_key(i), value)
        for i in deletes:
            overlay.put(_key(i), TOMBSTONE)
        start, end = _key(lo), _key(lo + span)
        assert list(overlay.scan(start, end)) == list(
            overlay._scan_dict_merge(start, end)
        )


class TestMVStoreFastPaths:
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=80, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_load_matches_insort_reference(self, key_ids):
        rng = random.Random(7)
        rng.shuffle(key_ids)
        items = {_key(i): i for i in key_ids}

        from repro.bench.perf import naive_load

        fast, reference = MVStore(), MVStore()
        fast.load(items)
        naive_load(reference, items)
        assert fast._sorted_keys == reference._sorted_keys
        assert len(fast) == len(reference)
        assert fast.keys() == reference.keys()
        assert fast.state_hash() == reference.state_hash_full()

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 30), st.integers(-1, 99)),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_incremental_state_hash_matches_full(self, blocks):
        store = MVStore()
        store.load({_key(i): i for i in range(0, 30, 3)})
        assert store.state_hash() == store.state_hash_full()
        for block_id, writes in enumerate(blocks):
            ordered = [
                (_key(i), TOMBSTONE if value < 0 else value) for i, value in writes
            ]
            store.apply_block(block_id, ordered)
            assert store.state_hash() == store.state_hash_full()

    def test_load_rejects_out_of_order_chain_append(self):
        """Re-loading an existing key after later blocks committed would
        break the block-sorted chain invariant both get() and scan()
        binary-search on — it must raise, not silently diverge."""
        store = MVStore()
        store.load({_key(1): "genesis"})
        store.apply_block(0, [(_key(1), "b0")])
        store.apply_block(5, [(_key(1), "b5")])
        with pytest.raises(ValueError):
            store.load({_key(1): "late"})
        # Fresh keys are still fine: their one-version chains are sorted.
        store.load({_key(2): "new"})
        view = store.snapshot(4)
        assert view.get(_key(1))[0] == "b0"
        assert dict(view.scan(_key(0), _key(9))).get(_key(1)) == "b0"

    @given(st.integers(0, 35), st.integers(0, 35))
    @settings(max_examples=100, deadline=None)
    def test_snapshot_scan_matches_reference(self, lo, hi):
        store = MVStore()
        store.load({_key(i): i for i in range(0, 30, 2)})
        store.apply_block(0, [(_key(5), 50), (_key(6), TOMBSTONE)])
        store.apply_block(1, [(_key(6), 66), (_key(31), 310)])

        from repro.bench.perf import naive_scan

        for block_id in (-1, 0, 1, 5):
            view = store.snapshot(block_id)
            assert list(view.scan(_key(lo), _key(hi))) == naive_scan(
                view, _key(lo), _key(hi)
            )


class TestIntervalPrimitives:
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=10),
        st.integers(-2, 32),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_index_stab_matches_linear(self, ranges, probe):
        index = RangeIndex()
        for i, (start, span) in enumerate(ranges):
            index.add(start, start + span, i)
        expected = [
            i for i, (start, span) in enumerate(ranges) if covers(start, start + span, probe)
        ]
        assert list(index.stab(probe)) == expected

    @given(
        st.lists(st.integers(0, 50), max_size=20),
        st.integers(-2, 52),
        st.integers(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_sorted_keys_slice_matches_linear(self, keys, start, span):
        index = SortedKeys(keys)
        end = start + span
        assert sorted(index.in_range(start, end)) == sorted(
            {k for k in keys if covers(start, end, k)}
        )

    def test_unsortable_population_falls_back(self):
        index = RangeIndex([(0, 10, "ints"), ("a", "z", "strs")])
        assert list(index.stab(5)) == ["ints"]
        assert list(index.stab("m")) == ["strs"]
        keys = SortedKeys([1, "b", 3])
        assert set(keys.in_range(0, 5)) == {1, 3}

    def test_extend_deduplicates_on_both_paths(self):
        """Re-adding known keys never yields duplicate slice hits, even
        after an unsortable addition degrades to the linear fallback."""
        keys = SortedKeys([1, 2])
        keys.extend([2, 3, 3])
        assert keys.in_range(0, 5) == [1, 2, 3]
        keys.extend(["b", 2])  # degrade to linear fallback
        assert keys.in_range(0, 5) == [1, 2, 3]
        assert set(keys.in_range("a", "z")) == {"b"}

    def test_inverted_and_empty_ranges_cover_nothing(self):
        index = RangeIndex([(5, 5, "empty"), (9, 2, "inverted"), (0, 3, "ok")])
        assert list(index.stab(5)) == []
        assert list(index.stab(1)) == ["ok"]

    def test_dense_overlap_falls_back_without_blowup(self):
        """A staircase of mutually-overlapping ranges must not materialize
        O(n²) segment slots — the build bails to linear stabs instead."""
        n = 600
        index = RangeIndex([(i, i + n, i) for i in range(n)])
        assert list(index.stab(n)) == list(range(1, n))
        assert not index._segmented
        assert index._segments == []


@pytest.mark.perf
def test_perf_smoke_trajectory(tmp_path):
    """End-to-end perf harness smoke: runs in seconds, all checks pass,
    and the trajectory file accumulates runs."""
    from repro.bench.perf import run_perf

    out = tmp_path / "BENCH_perf.json"
    run = run_perf(smoke=True, out_path=str(out))
    assert run["all_checks_pass"]
    assert all(case["indexed_s"] >= 0 for case in run["cases"])
    run_perf(smoke=True, out_path=str(out))
    import json

    trajectory = json.loads(out.read_text())
    assert len(trajectory["runs"]) == 2
