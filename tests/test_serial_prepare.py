"""The serial prepare path is the one differential reference.

Every chain prepares its blocks in-process, shard after shard. What makes
that path trustworthy is that it is *reproducible from its own outputs*:

- a seeded rerun decides identically — decision digest, state hash and
  the whole certificate chain, block by block;
- a fresh replica rebuilt from the sub-ledgers and certificate stream
  alone (:func:`~repro.shard.recovery.replay_group_serial`) lands on the
  live state, on every scheme, shard count and registered workload;
- an armed fault hook that never fires, or a tracer, observes without
  perturbing a single decision.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.capture import build_workload, trace_run
from repro.shard.recovery import replay_group_serial
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.workloads import make_workload
from repro.workloads.base import ShardAffinity
from repro.workloads.smallbank import SmallbankWorkload

IDENTITY_KEYS = ("decision_digest", "state_hash", "cert_head")


def _workload(num_shards: int, cross: float = 0.3, workload_name=None):
    affinity = ShardAffinity(num_shards, cross) if num_shards > 1 else None
    if workload_name is None:
        return SmallbankWorkload(num_accounts=150, affinity=affinity)
    return make_workload(workload_name, profile="gate", affinity=affinity)


def _run(
    system: str,
    num_shards: int,
    seed: int = 3,
    num_blocks: int = 5,
    block_size: int = 16,
    workload_name: str | None = None,
    fault_hook=None,
):
    config = ShardConfig(
        system=system,
        num_shards=num_shards,
        num_blocks=num_blocks,
        block_size=block_size,
        seed=seed,
    )
    chain = ShardedBlockchain(config, _workload(num_shards, workload_name=workload_name))
    chain.fault_hook = fault_hook
    metrics = chain.run()
    return metrics, chain


def _cert_chain(chain: ShardedBlockchain):
    return [
        (c.block_id, c.abort_tids, c.hash) for c in chain.cert_log.certificates()
    ]


@pytest.mark.parametrize("system", ["harmony", "aria", "rbc"])
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_seeded_rerun_bit_identical(system, num_shards):
    first, first_chain = _run(system, num_shards)
    second, second_chain = _run(system, num_shards)
    for key in IDENTITY_KEYS:
        assert first.extra[key] == second.extra[key], key
    assert first.committed == second.committed
    assert first.aborted == second.aborted
    assert first.extra["certificates_ok"]
    # the whole certificate chain, not just the head
    assert _cert_chain(first_chain) == _cert_chain(second_chain)
    assert len(_cert_chain(first_chain)) == 5


@pytest.mark.parametrize("system", ["harmony", "aria", "rbc"])
@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_fresh_replica_replay_matches_live(system, num_shards):
    """Sub-ledgers + certificates alone rebuild every shard's state."""
    metrics, chain = _run(system, num_shards, seed=5, num_blocks=6)
    assert metrics.committed > 0
    replica = replay_group_serial(chain, name_prefix="test-replica")
    assert replica.state_hashes() == chain.group.state_hashes()
    assert replica.combined_state_hash() == chain.group.combined_state_hash()
    assert chain.consistency_check()


@pytest.mark.parametrize(
    "workload_name", ["tpcc", "adv-counter", "adv-scan", "adv-skewshift"]
)
@pytest.mark.parametrize("num_shards", [2, 4])
def test_new_workloads_replay_and_rerun_identically(workload_name, num_shards):
    """TPC-C and the adversarial family: certified, reproducible from the
    seed, and rebuilt exactly by a fresh replica."""
    first, chain = _run("harmony", num_shards, workload_name=workload_name)
    second, _ = _run("harmony", num_shards, workload_name=workload_name)
    assert first.extra["certificates_ok"]
    for key in IDENTITY_KEYS:
        assert first.extra[key] == second.extra[key], key
    replica = replay_group_serial(chain, name_prefix="test-replica")
    assert replica.combined_state_hash() == chain.group.combined_state_hash()


def test_silent_fault_hook_is_identity():
    """An armed hook that never fires must not move a decision."""
    calls = []

    def hook(block_id):
        calls.append(block_id)
        return None

    armed, _ = _run("harmony", 2, seed=13, num_blocks=4, block_size=12, fault_hook=hook)
    plain, _ = _run("harmony", 2, seed=13, num_blocks=4, block_size=12)
    assert calls == [0, 1, 2, 3]
    for key in IDENTITY_KEYS:
        assert armed.extra[key] == plain.extra[key], key


@pytest.mark.parametrize("workload", ["smallbank", "adv-counter"])
@pytest.mark.parametrize("num_shards", [2, 4])
def test_tracing_never_perturbs_decisions(workload, num_shards):
    """The deterministic span stream reproduces across seeded runs, and a
    traced run decides exactly as an untraced one."""
    kwargs = dict(
        workload=workload, num_shards=num_shards, num_blocks=4, block_size=10
    )
    first, traced = trace_run(**kwargs)
    second, _ = trace_run(**kwargs)
    assert first.det_events() == second.det_events()
    assert first.det_digest() == second.det_digest()
    config = ShardConfig(
        system="harmony",
        num_shards=num_shards,
        num_blocks=4,
        block_size=10,
        seed=61,
    )
    untraced = ShardedBlockchain(config, build_workload(workload, num_shards)).run()
    for key in IDENTITY_KEYS:
        assert traced.extra[key] == untraced.extra[key], key


@given(
    system=st.sampled_from(["harmony", "aria", "rbc"]),
    num_shards=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=2**16),
    block_size=st.integers(min_value=8, max_value=20),
)
@settings(max_examples=6, deadline=None)
def test_any_seed_reruns_and_replays_identically(system, num_shards, seed, block_size):
    first, chain = _run(system, num_shards, seed=seed, num_blocks=4, block_size=block_size)
    second, second_chain = _run(
        system, num_shards, seed=seed, num_blocks=4, block_size=block_size
    )
    for key in IDENTITY_KEYS:
        assert first.extra[key] == second.extra[key], key
    assert _cert_chain(chain) == _cert_chain(second_chain)
    replica = replay_group_serial(chain, name_prefix="test-replica")
    assert replica.combined_state_hash() == chain.group.combined_state_hash()
