"""A replica node: ledger + storage engine + DCC executor.

On receiving a block the node verifies its chain linkage and the orderer's
signature, persists the input block (logical logging — Section 4,
Recovery), instantiates the runtime transactions and hands them to its DCC
executor. State hashes let tests assert replica consistency: every correct
replica must reach the identical state from the same chain of blocks.
"""

from __future__ import annotations

from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.consensus.crypto import Signer
from repro.execution import BlockExecution, DCCExecutor, PreparedBlock
from repro.txn.transaction import Txn


class ReplicaNode:
    """One replica of the blockchain's database layer."""

    def __init__(
        self,
        name: str,
        executor: DCCExecutor,
        orderer_signer: Signer | None = None,
    ) -> None:
        self.name = name
        self.executor = executor
        self.engine = executor.engine
        self.ledger = Ledger()
        self._orderer_signer = orderer_signer

    def _ingest_block(self, block: Block) -> tuple[list[Txn], float]:
        """Verify, append and log one block; instantiate its transactions."""
        verify_cost = self.engine.costs.hash_us
        if self._orderer_signer is not None:
            if not self._orderer_signer.verify(block.header_bytes(), block.signature):
                raise ValueError(f"block {block.block_id}: bad orderer signature")
            verify_cost += self.engine.costs.verify_us

        self.ledger.append(block)  # raises TamperError on chain mismatch
        self.engine.log_block_input(block)
        return block.build_txns(), verify_cost

    def clone_executor(self, engine) -> DCCExecutor:
        """A fresh executor of this node's type and configuration bound to
        ``engine`` — the recovery path's replica-rebuild hook. Each
        executor declares its own extra constructor switches via
        ``clone_args``. Federation hooks (``snapshot_source`` /
        ``key_scope``) are *not* carried over; sharded recovery rewires
        them against the recovered store."""
        executor = self.executor
        return type(executor)(engine, executor.registry, *executor.clone_args())

    def process_block(self, block: Block) -> BlockExecution:
        """Verify, log, execute and append one block."""
        if self.executor.supports_two_phase:
            return self.finish_block(self.prepare_block(block))
        txns, verify_cost = self._ingest_block(block)
        execution = self.executor.execute_block(block.block_id, txns)
        execution.pre_exec_serial_us += verify_cost
        return execution

    def prepare_block(self, block: Block) -> PreparedBlock:
        """Phase one: verify + log + simulate + validate (the local vote)."""
        txns, verify_cost = self._ingest_block(block)
        prepared = self.executor.prepare_block(block.block_id, txns)
        prepared.extra_pre_exec_us += verify_cost
        return prepared

    def finish_block(
        self, prepared: PreparedBlock, abort_tids: frozenset = frozenset()
    ) -> BlockExecution:
        """Phase two: apply, honouring cross-shard vetos in ``abort_tids``."""
        execution = self.executor.commit_block(prepared, abort_tids)
        execution.pre_exec_serial_us += prepared.extra_pre_exec_us
        return execution

    def state_hash(self) -> str:
        """Replica-consistency fingerprint of the database state."""
        return self.engine.state_hash()
