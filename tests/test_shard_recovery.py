"""Cross-shard recovery drills (ROADMAP follow-up, ISSUE 5).

The hard crash window of 2PC-over-blocks: a shard dies *between* casting
its prepare vote and the certificate landing. Votes are deterministic, so
the certificate still appends and the surviving shards commit — the
crashed shard must rebuild from its checkpoint chain + logged sub-blocks,
honouring the global certificate stream, and converge on the identical
decisions, ledger and state. Also pins the recovery differential at the
sharded level: delta-chain and full-deepcopy checkpoints recover every
shard bit-identically.
"""

from __future__ import annotations

import pytest

from repro.chain.system import decision_digest
from repro.shard.recovery import recover_shard_node
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.sim.rng import SeededRng
from repro.workloads import make_workload
from repro.workloads.base import ShardAffinity
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.ycsb import YCSBWorkload

NUM_SHARDS = 3


def build_chain(
    workload=None, incremental=True, num_shards=NUM_SHARDS, **overrides
) -> ShardedBlockchain:
    config = ShardConfig(
        system="harmony",
        num_shards=num_shards,
        block_size=10,
        seed=13,
        checkpoint_interval=2,
        checkpoint_base_interval=2,
        checkpoint_incremental=incremental,
        **overrides,
    )
    workload = workload or SmallbankWorkload(
        num_accounts=90, theta=0.6, affinity=ShardAffinity(num_shards, 0.5)
    )
    return ShardedBlockchain(config, workload)


def drive(chain: ShardedBlockchain, num_blocks: int, crash_at=None, crash_shard=None):
    """Run the decision layer block-by-block; optionally crash one shard
    between its prepare vote and the certificate append of ``crash_at``."""
    rng = SeededRng(chain.config.seed, "shard-recovery-drill")
    outcomes = []
    for i in range(num_blocks):
        block = chain.ordering.form_block(
            chain.workload.generate_block(chain.config.block_size, rng)
        )
        hook = crash_after_vote(crash_shard) if i == crash_at else None
        outcomes.append(chain.process_global_block(block, fault_hook=hook))
    return outcomes


def crash_after_vote(shard: int):
    """A fault hook killing ``shard`` after its prepare vote: it never
    commits the block."""
    return lambda block_id: (frozenset(), frozenset({shard}))


def replay_reference(chain: ShardedBlockchain, shard: int, after: int):
    """An uncrashed replica of ``shard``: replay sub-blocks + certificates
    on a fresh group (the consistency-check path) and digest the decisions
    of blocks > ``after``."""
    from repro.shard.system import ShardGroup

    other = ShardGroup(
        chain.config,
        chain.workload,
        chain.router,
        chain.costs,
        chain.orderer_signer,
        name_prefix="reference",
    )
    height = len(chain.group.nodes[0].ledger)
    replayed = []
    for i in range(height):
        sub_blocks = {
            s: node.ledger[i] for s, node in enumerate(chain.group.nodes)
        }
        prepared = other.prepare(sub_blocks)
        executions = other.finish(prepared, chain.cert_log[i].abort_tids)
        if i > after:
            replayed.append((i, executions[shard].txns))
    return other, decision_digest(replayed)


class TestCrossShardRecoveryDrill:
    def test_crash_between_prepare_vote_and_certificate_append(self):
        """The drill itself: shard 1 votes on the final block, crashes
        before the certificate lands, and recovers to the state, ledger
        and decisions every uncrashed replica of it holds."""
        chain = build_chain()
        crash_shard = 1
        outcomes = drive(chain, 7, crash_at=6, crash_shard=crash_shard)
        assert crash_shard not in outcomes[-1].executions  # never committed
        # the certificate still landed — votes are deterministic
        assert len(chain.cert_log) == 7
        assert chain.cert_log.verify_chain()

        crashed = chain.group.nodes[crash_shard]
        behind = crashed.engine.store.last_committed_block
        assert behind == 5  # the in-flight block never applied...
        assert len(crashed.engine.block_log) == 7  # ...but was logged first

        recovery = recover_shard_node(
            crashed,
            crash_shard,
            [node.engine.store for node in chain.group.nodes],
            chain.router,
            chain.cert_log,
        )
        recovered = recovery.node
        # recovery resumed from the last durable checkpoint, not genesis
        assert recovery.replay_from >= 0

        reference, reference_digest = replay_reference(
            chain, crash_shard, after=recovery.replay_from
        )
        assert recovery.decision_digest == reference_digest
        assert recovered.state_hash() == reference.nodes[crash_shard].state_hash()
        assert recovered.engine.store.last_committed_block == 6
        # ledger: rebuilt from the logged sub-blocks, chained like a peer's
        assert recovered.ledger.verify_chain()
        assert len(recovered.ledger) == len(reference.nodes[crash_shard].ledger)
        assert (
            recovered.ledger[-1].hash == reference.nodes[crash_shard].ledger[-1].hash
        )

    def test_recovered_shard_votes_match_uncrashed_future(self):
        """After recovery the shard keeps processing: prepare the next
        block on the recovered replica and on an uncrashed reference —
        identical decisions (the recovered replica is a full peer again)."""
        chain = build_chain()
        drive(chain, 6, crash_at=5, crash_shard=2)
        recovery = recover_shard_node(
            chain.group.nodes[2],
            2,
            [node.engine.store for node in chain.group.nodes],
            chain.router,
            chain.cert_log,
        )
        reference, _ = replay_reference(chain, 2, after=-1)
        assert recovery.node.state_hash() == reference.nodes[2].state_hash()
        assert (
            recovery.node.engine.store._versions.keys()
            == reference.nodes[2].engine.store._versions.keys()
        )

    @pytest.mark.parametrize("crash_shard", range(NUM_SHARDS))
    def test_every_shard_recovers_from_the_drill(self, crash_shard):
        chain = build_chain(
            workload=YCSBWorkload(
                num_keys=120, theta=0.6, affinity=ShardAffinity(NUM_SHARDS, 0.6)
            )
        )
        drive(chain, 5, crash_at=4, crash_shard=crash_shard)
        recovery = recover_shard_node(
            chain.group.nodes[crash_shard],
            crash_shard,
            [node.engine.store for node in chain.group.nodes],
            chain.router,
            chain.cert_log,
        )
        reference, reference_digest = replay_reference(
            chain, crash_shard, after=recovery.replay_from
        )
        assert recovery.decision_digest == reference_digest
        assert (
            recovery.node.state_hash()
            == reference.nodes[crash_shard].state_hash()
        )


class TestNewWorkloadRecoveryDrill:
    """ISSUE 8: the vote-then-crash drill and the checkpoint differential
    hold on multi-warehouse TPC-C (cross-warehouse payments/new-orders
    spanning shards) and the migrating-hotspot adversarial stream."""

    @pytest.mark.parametrize("name", ["tpcc", "adv-skewshift"])
    def test_crashed_shard_recovers_on_new_workloads(self, name):
        chain = build_chain(
            workload=make_workload(
                name, profile="gate", affinity=ShardAffinity(NUM_SHARDS, 0.5)
            )
        )
        outcomes = drive(chain, 6, crash_at=5, crash_shard=1)
        # the drill must actually carry cross-shard transactions
        assert any(
            len(shards) > 1 for o in outcomes for shards in o.participants
        )
        recovery = recover_shard_node(
            chain.group.nodes[1],
            1,
            [node.engine.store for node in chain.group.nodes],
            chain.router,
            chain.cert_log,
        )
        reference, reference_digest = replay_reference(
            chain, 1, after=recovery.replay_from
        )
        assert recovery.decision_digest == reference_digest
        assert recovery.node.state_hash() == reference.nodes[1].state_hash()
        assert recovery.node.engine.store.last_committed_block == 5
        assert recovery.node.ledger.verify_chain()
        assert len(recovery.node.ledger) == len(reference.nodes[1].ledger)

    @pytest.mark.parametrize("name", ["tpcc", "adv-skewshift"])
    def test_delta_chain_recovery_matches_full_on_new_workloads(self, name):
        recovered = {}
        for incremental in (False, True):
            chain = build_chain(
                workload=make_workload(
                    name, profile="gate", affinity=ShardAffinity(NUM_SHARDS, 0.5)
                ),
                incremental=incremental,
            )
            drive(chain, 6)
            stores = [node.engine.store for node in chain.group.nodes]
            for shard in range(NUM_SHARDS):
                recovery = recover_shard_node(
                    chain.group.nodes[shard],
                    shard,
                    stores,
                    chain.router,
                    chain.cert_log,
                )
                assert (
                    recovery.node.state_hash()
                    == chain.group.nodes[shard].state_hash()
                )
                recovered[(incremental, shard)] = recovery.node.engine.store
        for shard in range(NUM_SHARDS):
            full_store = recovered[(False, shard)]
            delta_store = recovered[(True, shard)]
            assert delta_store._versions == full_store._versions
            assert delta_store._sorted_keys == full_store._sorted_keys
            assert delta_store.state_hash() == full_store.state_hash()


class TestShardedRecoveryDifferential:
    def test_delta_chain_recovers_every_shard_bit_identical_to_full(self):
        """ISSUE 5 acceptance, sharded half: per shard, recovery from the
        delta chain equals recovery from full checkpoints — version
        chains included — and matches the original run's shard states."""
        recovered_stores = {}
        for incremental in (False, True):
            chain = build_chain(incremental=incremental)
            drive(chain, 6)
            stores = [node.engine.store for node in chain.group.nodes]
            for shard in range(NUM_SHARDS):
                recovery = recover_shard_node(
                    chain.group.nodes[shard],
                    shard,
                    stores,
                    chain.router,
                    chain.cert_log,
                )
                assert (
                    recovery.node.state_hash()
                    == chain.group.nodes[shard].state_hash()
                )
                recovered_stores[(incremental, shard)] = recovery.node.engine.store
        for shard in range(NUM_SHARDS):
            full_store = recovered_stores[(False, shard)]
            delta_store = recovered_stores[(True, shard)]
            assert delta_store._versions == full_store._versions
            assert delta_store._sorted_keys == full_store._sorted_keys
            assert delta_store.state_hash() == full_store.state_hash()


def drive_with_crash(pipelined_recovery: bool = True) -> ShardedBlockchain:
    """10 blocks on 2 shards; shard 1 crashes after its block-4 vote,
    recovers (pipelined or serial replay) and rejoins the live group."""
    config = ShardConfig(
        system="harmony",
        num_shards=2,
        num_blocks=10,
        block_size=16,
        seed=21,
        checkpoint_interval=3,
    )
    workload = SmallbankWorkload(num_accounts=150, affinity=ShardAffinity(2, 0.3))
    chain = ShardedBlockchain(config, workload)
    rng = SeededRng(config.seed, f"oe/{config.system}/{chain.workload.name}")
    for i in range(10):
        specs = chain.workload.generate_block(config.block_size, rng)
        block = chain.ordering.form_block(specs)
        if i == 4:
            chain.process_global_block(block, fault_hook=crash_after_vote(1))
            recovery = recover_shard_node(
                chain.group.nodes[1],
                1,
                [n.engine.store for n in chain.group.nodes],
                chain.router,
                chain.cert_log,
                pipelined=pipelined_recovery,
            )
            chain.group.rejoin(1, recovery.node)
        else:
            chain.process_global_block(block)
    return chain


class TestPipelinedRecoveryReplay:
    """Recovery replay that interleaves block *i*'s prepare with block
    *i-1*'s deferred commit lands on the same state as the serial replay."""

    def test_pipelined_recovery_replay_bit_identical(self):
        serial_chain = drive_with_crash(pipelined_recovery=False)
        piped_chain = drive_with_crash(pipelined_recovery=True)
        assert (
            serial_chain.group.combined_state_hash()
            == piped_chain.group.combined_state_hash()
        )

    def test_recovery_reports_replay_model(self):
        chain = drive_with_crash()
        # recover once more at the end to inspect the modeled replay timings
        recovery = recover_shard_node(
            chain.group.nodes[1],
            1,
            [n.engine.store for n in chain.group.nodes],
            chain.router,
            chain.cert_log,
        )
        if recovery.replayed_blocks:
            assert recovery.replay_sim is not None
            assert (
                recovery.replay_sim["pipelined_us"] <= recovery.replay_sim["serial_us"]
            )
            assert recovery.replay_sim["speedup"] >= 1.0
