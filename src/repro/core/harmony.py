"""The Harmony block executor (Sections 3.1–3.4).

Pipeline per block: simulate against the block snapshot → validate (Rule 1,
or Rule 3 with inter-block parallelism) → reorder & coalesce updates
(Rule 2) → install writes, group-commit the logical log, checkpoint every
*p* blocks.

``HarmonyConfig`` exposes the ablation switches of Figure 20:

- ``update_reorder=False`` → raw-Harmony aborts ww losers Aria-style;
- ``coalesce=False`` → each updater performs its own physical update;
- ``inter_block=False`` → block *i* waits for block *i−1* and simulates
  against its snapshot (lag 1) instead of overlapping with it (lag 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.reordering import apply_write_sets
from repro.core.validation import HarmonyValidator, PrevBlockRecords
from repro.execution import (
    BlockExecution,
    DCCExecutor,
    PreparedBlock,
    simulate_transactions,
)
from repro.intervals import covers
from repro.storage.engine import StorageEngine
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import AbortReason, Txn


def fence_migrated_keys(txns: list[Txn], fence: frozenset) -> None:
    """Deterministically abort every transaction touching an in-flight key.

    At a re-key boundary block, a migrated key's previous-block Rule-3
    facts (committed readers/writers) live on its *old* owner's executor,
    which the new routing no longer consults — an inter-block validator
    would silently miss the edges. The fence closes that hole: touching
    transactions abort at exactly the boundary block, on every replica and
    every replay identically, and retry under the settled ownership.
    """
    for txn in txns:
        if txn.aborted:
            continue
        if (
            any(key in txn.read_set or key in txn.write_set for key in fence)
            or any(
                covers(start, end, key)
                for start, end in txn.read_ranges
                for key in fence
            )
        ):
            txn.mark_aborted(AbortReason.MIGRATION_FENCE)


@dataclass(frozen=True)
class HarmonyConfig:
    """Feature switches; the default is full HarmonyBC."""

    update_reorder: bool = True
    coalesce: bool = True
    inter_block: bool = True
    snapshot_lag: int = 2

    @property
    def effective_lag(self) -> int:
        return self.snapshot_lag if self.inter_block else 1

    def label(self) -> str:
        """Ablation label matching Figure 20's legend."""
        if not self.update_reorder:
            return "raw-Harmony"
        if not self.coalesce:
            return "+update-reorder"
        if not self.inter_block:
            return "+update-coalesce"
        return "Harmony"


class HarmonyExecutor(DCCExecutor):
    """Harmony DCC bound to a storage engine (one replica's database layer)."""

    name = "harmony"
    parallel_commit = True
    supports_two_phase = True

    def __init__(
        self,
        engine: StorageEngine,
        registry: ProcedureRegistry,
        config: HarmonyConfig | None = None,
    ) -> None:
        super().__init__(engine, registry)
        self.config = config or HarmonyConfig()
        self._validator = HarmonyValidator(
            inter_block=self.config.inter_block,
            update_reorder=self.config.update_reorder,
        )
        #: committed reader/writer facts of the previous block (Rule 3)
        self._prev_records = PrevBlockRecords()

    def prepare_block(self, block_id: int, txns: list[Txn]) -> PreparedBlock:
        """Simulate and validate (Rules 1/3); the result is this replica's
        commit/abort vote — nothing is installed yet."""
        snapshot = self.snapshot_for(block_id, lag=self.config.effective_lag)
        sim_durations = simulate_transactions(txns, snapshot, self.registry, self.engine)

        if self.config.inter_block:
            fence = self.migration_fences.get(block_id)
            if fence:
                fence_migrated_keys(txns, fence)

        vstats = self._validator.validate(
            txns,
            self._prev_records if self.config.inter_block else None,
        )
        return PreparedBlock(
            block_id=block_id,
            txns=txns,
            sim_durations_us=sim_durations,
            snapshot_block_id=block_id - self.config.effective_lag,
            payload=vstats,
        )

    def commit_block(
        self, prepared: PreparedBlock, abort_tids: frozenset = frozenset()
    ) -> BlockExecution:
        block_id, txns, vstats = prepared.block_id, prepared.txns, prepared.payload
        self.force_aborts(txns, abort_tids)

        reorder = apply_write_sets(
            txns,
            read_base=self.read_base,
            write_cost=self.engine.write_cost,
            op_cpu_us=self.engine.costs.op_cpu_us,
            do_coalesce=self.config.coalesce,
            dep_index=vstats.dep_index,
            key_scope=self.key_scope,
        )

        self._prev_records = HarmonyValidator.records_for(txns)

        tail_us = self.engine.apply_block(block_id, reorder.ordered_writes)
        tail_us += self.engine.checkpoint_if_due(
            block_id, meta={"prev_records": self._prev_records}
        )

        stats = self.make_stats(block_id, txns)
        stats.dangerous_structure_hits = vstats.dangerous_structure_hits

        commit_durations = [sum(item.chain_durations_us) for item in reorder.key_applies]
        commit_durations.extend(reorder.txn_commit_cpu_us.values())
        return BlockExecution(
            block_id=block_id,
            txns=txns,
            sim_durations_us=prepared.sim_durations_us,
            commit_durations_us=commit_durations,
            serial_commit=False,
            post_commit_serial_us=tail_us,
            stats=stats,
            key_applies=reorder.key_applies,
            snapshot_block_id=prepared.snapshot_block_id,
        )

    def clone_args(self) -> tuple:
        return (self.config,)

    def restore_records(self, records: PrevBlockRecords) -> None:
        """Reinstate Rule-3 records after recovery from a checkpoint."""
        self._prev_records = records or PrevBlockRecords()

    # -- inter-block replay hooks -------------------------------------------
    def import_prepare_state(self, state: dict) -> None:
        self.restore_records(state.get("prev_records"))

    def decided_prepare_state(
        self, prepared: PreparedBlock, abort_tids: frozenset
    ) -> dict:
        """Rule-3 records of this block, computed at decision time.

        ``commit_block`` derives ``_prev_records`` from the transactions'
        final statuses, which are fully determined once the certificate's
        vetoes are known — marking them here and again in the commit is
        idempotent, so pipelined recovery replay can hand the records to
        the next block's prepare before this block's physical commit runs.
        """
        txns = prepared.txns
        self.force_aborts(txns, abort_tids)
        for txn in txns:
            if not txn.aborted:
                txn.mark_committed()
        return {"prev_records": HarmonyValidator.records_for(txns)}
