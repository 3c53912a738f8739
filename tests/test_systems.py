"""End-to-end tests of the assembled blockchains (OE and SOV)."""

from __future__ import annotations

import re

import pytest

from repro.chain.sov import SOVBlockchain, SOVConfig
from repro.chain.system import OEBlockchain, OEConfig
from repro.consensus.network import NetworkPreset
from repro.core.harmony import HarmonyConfig
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.sim.costs import StorageProfile
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.ycsb import YCSBWorkload


def small_ycsb():
    return YCSBWorkload(num_keys=1000, theta=0.6)


def oe_run(system, **overrides):
    defaults = dict(system=system, block_size=15, num_blocks=10)
    defaults.update(overrides)
    return OEBlockchain(OEConfig(**defaults), small_ycsb()).run()


def sov_run(system, **overrides):
    defaults = dict(system=system, block_size=15, num_blocks=10)
    defaults.update(overrides)
    return SOVBlockchain(SOVConfig(**defaults), small_ycsb()).run()


INVALID_CONFIGS = [
    ("system", "bogus"),
    ("consensus", "pbft"),
    ("block_size", 0),
    ("num_blocks", -1),
    ("num_replicas", 0),
]


@pytest.mark.parametrize("field, value", INVALID_CONFIGS)
@pytest.mark.parametrize("config_cls", [OEConfig, ShardConfig], ids=["oe", "sharded"])
def test_invalid_config_fails_loudly(config_cls, field, value):
    """A config that would run as something else, name no executor or run
    empty raises at construction, before any driver is built."""
    overrides = {"num_blocks": 2, field: value}
    with pytest.raises(ValueError, match=field if field != "consensus" else "pbft"):
        config_cls(**overrides)


SHARD_INVALID_CONFIGS = [
    ({"router_policy": "bogus"}, "router_policy must be one of workload|hash|range"),
    ({"rebalance": "adaptiv"}, "rebalance must be one of off|adaptive"),
    (
        {"system": "serial", "num_shards": 2},
        "serial execution does not support num_shards > 1",
    ),
]


@pytest.mark.parametrize(
    "overrides, message",
    SHARD_INVALID_CONFIGS,
    ids=["router_policy", "rebalance", "serial-multi-shard"],
)
def test_invalid_shard_config_fails_loudly(overrides, message):
    """An unknown routing or rebalancing mode raises at construction and
    names the allowed values instead of running as hash routing or without
    rebalancing; so does serial execution across shards."""
    with pytest.raises(ValueError, match=re.escape(message)):
        ShardConfig(num_blocks=2, **overrides)


def test_adaptive_rebalance_accepted_at_one_shard():
    """The fault-drill matrix builds adaptive configs at every shard count,
    one included; the policy is simply not armed there."""
    config = ShardConfig(num_blocks=2, num_shards=1, rebalance="adaptive")
    assert ShardedBlockchain(config, small_ycsb()).rebalance_policy is None


class TestOESystems:
    @pytest.mark.parametrize("system", ["harmony", "aria", "rbc", "serial"])
    def test_runs_and_commits(self, system):
        metrics = oe_run(system)
        assert metrics.committed > 0
        assert metrics.throughput_tps > 0
        assert metrics.extra["ledger_ok"] is True
        assert 0 <= metrics.abort_rate < 1
        assert metrics.false_aborts <= metrics.aborted

    def test_serial_never_aborts(self):
        assert oe_run("serial").abort_rate == 0.0

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            oe_run("quantum")

    def test_replica_consistency_harmony(self):
        chain = OEBlockchain(
            OEConfig(system="harmony", block_size=10, num_blocks=8), small_ycsb()
        )
        chain.run()
        assert chain.consistency_check()

    def test_replica_consistency_aria(self):
        chain = OEBlockchain(
            OEConfig(system="aria", block_size=10, num_blocks=8), small_ycsb()
        )
        chain.run()
        assert chain.consistency_check()

    def test_inter_block_helps_harmony_throughput(self):
        """At the paper's contention level, better utilization outweighs the
        extra inter-block aborts (Section 5.7)."""
        workload = YCSBWorkload(num_keys=10_000, theta=0.6)
        with_ibp = OEBlockchain(
            OEConfig(
                system="harmony",
                block_size=25,
                num_blocks=20,
                harmony=HarmonyConfig(inter_block=True),
            ),
            workload,
        ).run()
        workload2 = YCSBWorkload(num_keys=10_000, theta=0.6)
        without = OEBlockchain(
            OEConfig(
                system="harmony",
                block_size=25,
                num_blocks=20,
                harmony=HarmonyConfig(inter_block=False),
            ),
            workload2,
        ).run()
        assert with_ibp.throughput_tps > without.throughput_tps
        assert with_ibp.cpu_utilization > without.cpu_utilization
        assert with_ibp.abort_rate >= without.abort_rate  # the tradeoff

    def test_storage_profiles_order_throughput(self):
        ssd = oe_run("harmony", profile=StorageProfile.SSD)
        ram = oe_run("harmony", profile=StorageProfile.RAMDISK)
        mem = oe_run("harmony", profile=StorageProfile.MEMORY)
        assert ssd.throughput_tps < ram.throughput_tps < mem.throughput_tps

    def test_oe_throughput_flat_in_replicas(self):
        few = oe_run("harmony", num_replicas=4)
        many = oe_run("harmony", num_replicas=80, network=NetworkPreset.CLOUD_LAN_5G)
        assert many.throughput_tps > 0.7 * few.throughput_tps

    def test_hotstuff_consensus_increases_latency_only(self):
        kafka = oe_run("harmony", consensus="kafka", num_replicas=8)
        bft = oe_run("harmony", consensus="hotstuff", num_replicas=8)
        assert bft.mean_latency_ms > kafka.mean_latency_ms
        assert bft.throughput_tps == pytest.approx(kafka.throughput_tps, rel=0.2)


class TestSOVSystems:
    @pytest.mark.parametrize("system", ["fabric", "fastfabric"])
    def test_runs_and_commits(self, system):
        metrics = sov_run(system)
        assert metrics.committed > 0
        assert metrics.extra["ledger_ok"] is True

    def test_sov_latency_exceeds_oe(self):
        """SOV pays the endorsement round trips (Figures 7/8 latency)."""
        fabric = sov_run("fabric")
        harmony = oe_run("harmony")
        assert fabric.mean_latency_ms > harmony.mean_latency_ms

    def test_endorsement_staleness_causes_aborts(self):
        calm = sov_run("fabric", max_endorser_lag=0)
        laggy = sov_run("fabric", max_endorser_lag=3)
        assert laggy.abort_rate >= calm.abort_rate

    def test_sov_degrades_with_replicas(self):
        few = sov_run("fabric", num_replicas=4, network=NetworkPreset.CLOUD_LAN_5G)
        many = sov_run("fabric", num_replicas=80, network=NetworkPreset.CLOUD_LAN_5G)
        assert many.throughput_tps < few.throughput_tps

    def test_fastfabric_graph_costs_accounted(self):
        metrics = sov_run("fastfabric")
        assert metrics.committed > 0


class TestMetricsSanity:
    def test_latency_positive_and_finite(self):
        metrics = oe_run("harmony")
        assert 0 < metrics.mean_latency_ms < 10_000
        assert metrics.p95_latency_ms >= metrics.mean_latency_ms * 0.5

    def test_cpu_utilization_bounded(self):
        metrics = oe_run("harmony")
        assert 0 < metrics.cpu_utilization <= 1

    def test_io_counters_populated(self):
        # a pool smaller than the table forces real disk reads
        metrics = oe_run("harmony", pool_pages=4)
        assert metrics.io_reads > 0
        assert metrics.buffer_hits + metrics.buffer_misses > 0

    def test_deterministic_metrics_across_runs(self):
        a = oe_run("harmony")
        b = oe_run("harmony")
        assert a.committed == b.committed
        assert a.extra["state_hash"] == b.extra["state_hash"]
        assert a.sim_time_us == b.sim_time_us
