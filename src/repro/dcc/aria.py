"""Aria: deterministic OCC from the deterministic-database world.

Per the Aria paper (Lu et al., VLDB 2020) and Section 2.2.2: every
transaction in a block executes against the block snapshot and *reserves*
its writes; the reservation table awards each key to the smallest TID.
A transaction ``T`` aborts when:

- **WAW**: a smaller TID reserved a key ``T`` writes (Figure 2 — "on seeing
  a ww-dependency, Aria aborts the one with a larger TID"); or
- without the reordering optimization, **RAW**: ``T`` read a key a smaller
  TID writes;
- with Aria's deterministic reordering (default here, as in AriaBC),
  **RAW and WAR**: the abort happens only when ``T`` both read a
  smaller-TID writer's key *and* wrote a key some smaller TID read.

Surviving transactions have disjoint write sets, so the commit step applies
evaluated values fully in parallel. The price is the high abort rate under
ww contention that Harmony's update reordering removes.
"""

from __future__ import annotations

from repro.execution import (
    BlockExecution,
    DCCExecutor,
    PreparedBlock,
    simulate_transactions,
)
from repro.intervals import SortedKeys
from repro.storage.engine import StorageEngine
from repro.txn.commands import apply_safely
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import AbortReason, Txn


class AriaExecutor(DCCExecutor):
    """Aria DCC bound to a storage engine (AriaBC's database layer)."""

    name = "aria"
    parallel_commit = True
    supports_two_phase = True

    def __init__(
        self,
        engine: StorageEngine,
        registry: ProcedureRegistry,
        deterministic_reordering: bool = True,
        indexed: bool = True,
    ) -> None:
        super().__init__(engine, registry)
        self.deterministic_reordering = deterministic_reordering
        #: range-read RAW checks via a sorted reservation-key index
        #: (``False`` retains the naive full-table scan for differential
        #: testing / benchmarking).
        self.indexed = indexed

    def clone_args(self) -> tuple:
        return (self.deterministic_reordering, self.indexed)

    def prepare_block(self, block_id: int, txns: list[Txn]) -> PreparedBlock:
        """Simulate, reserve and decide — Aria's whole validation phase is
        reservation-table lookups, so the local vote falls out here; writes
        are deferred to :meth:`commit_block`."""
        snapshot = self.snapshot_for(block_id, lag=1)
        sim_durations = simulate_transactions(txns, snapshot, self.registry, self.engine)

        write_reservations: dict[object, int] = {}
        read_reservations: dict[object, int] = {}
        for txn in sorted(txns, key=lambda t: t.tid):
            if txn.aborted:
                continue
            for key in txn.write_set:
                write_reservations.setdefault(key, txn.tid)
            for key in txn.read_set:
                read_reservations.setdefault(key, txn.tid)

        #: sorted write-reservation keys — each range read becomes two
        #: bisects plus the covered keys instead of a scan of the whole
        #: reservation table (built lazily, only when a range read exists).
        reserved_keys: SortedKeys | None = None

        committed: list[Txn] = []
        for txn in sorted(txns, key=lambda t: t.tid):
            if txn.aborted:
                continue
            waw = any(
                write_reservations.get(key, txn.tid) < txn.tid for key in txn.write_set
            )
            raw = any(
                write_reservations.get(key, txn.tid) < txn.tid for key in txn.read_set
            )
            if not raw and txn.read_ranges:
                if self.indexed:
                    if reserved_keys is None:
                        reserved_keys = SortedKeys(write_reservations)
                    raw = any(
                        write_reservations[key] < txn.tid
                        for start, end in txn.read_ranges
                        for key in reserved_keys.in_range(start, end)
                    )
                else:
                    raw = any(
                        owner < txn.tid and txn.reads(key)
                        for key, owner in write_reservations.items()
                    )
            war = any(
                read_reservations.get(key, txn.tid) < txn.tid for key in txn.write_set
            )
            if waw:
                txn.mark_aborted(AbortReason.WAW)
                continue
            if self.deterministic_reordering:
                if raw and war:
                    txn.mark_aborted(AbortReason.RAW)
                    continue
            elif raw:
                txn.mark_aborted(AbortReason.RAW)
                continue
            committed.append(txn)

        return PreparedBlock(
            block_id=block_id,
            txns=txns,
            sim_durations_us=sim_durations,
            snapshot_block_id=block_id - 1,
            payload=(snapshot, committed),
        )

    def commit_block(
        self, prepared: PreparedBlock, abort_tids: frozenset = frozenset()
    ) -> BlockExecution:
        block_id, txns = prepared.block_id, prepared.txns
        snapshot, survivors = prepared.payload
        self.force_aborts(txns, abort_tids)

        # Parallel commit: disjoint write sets, values evaluated against the
        # block snapshot (Aria ships values, not commands). Only locally
        # owned keys are installed (``in_scope`` is all keys unsharded).
        commit_durations: list[float] = []
        ordered_writes: list[tuple[object, object]] = []
        for txn in survivors:
            if txn.aborted:  # cross-shard veto arrived after the local vote
                continue
            txn.mark_committed()
            cost = self.engine.costs.op_cpu_us
            for key in txn.updated_keys:
                if not self.in_scope(key):
                    continue
                base, _version = snapshot.get(key)
                ordered_writes.append((key, apply_safely(txn.write_set[key], base)))
                cost += self.engine.write_cost(key)
            txn.commit_cost_us = cost
            commit_durations.append(cost)

        ordered_writes.sort(key=lambda kv: repr(kv[0]))
        tail = self.engine.apply_block(block_id, ordered_writes)
        tail += self.engine.checkpoint_if_due(block_id)

        return BlockExecution(
            block_id=block_id,
            txns=txns,
            sim_durations_us=prepared.sim_durations_us,
            commit_durations_us=commit_durations,
            serial_commit=False,
            post_commit_serial_us=tail,
            stats=self.make_stats(block_id, txns),
        )
