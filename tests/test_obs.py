"""Tests for the deterministic tracing + metrics subsystem (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    block_paths,
    det_digest,
    det_events,
    export_jsonl,
    load_trace,
    render_report,
    shard_skew,
    slowest_blocks,
    stage_breakdown,
    trace_drill,
    trace_run,
)


# --------------------------------------------------------------- histograms
class TestHistogram:
    def test_empty(self):
        hist = Histogram()
        assert hist.quantile(50) == 0.0
        assert hist.mean == 0.0

    def test_quantile_domain(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(100.1)

    def test_log_bucket_accuracy(self):
        """Quantile reads carry at most one bucket (~10%) of relative
        error; min/max/mean are exact."""
        hist = Histogram()
        for v in range(1, 1001):
            hist.observe(float(v))
        assert hist.min == 1.0 and hist.max == 1000.0
        assert hist.mean == pytest.approx(500.5)
        for q, exact in ((50, 500.0), (99, 990.0), (99.9, 999.0)):
            estimate = hist.quantile(q)
            assert exact * 0.9 <= estimate <= exact * 1.1 * Histogram.GROWTH

    def test_p999_never_exceeds_max(self):
        hist = Histogram()
        hist.observe(123.456)
        assert hist.p50 == hist.p99 == hist.p999 == 123.456

    def test_zeros_bucket(self):
        hist = Histogram()
        for _ in range(9):
            hist.observe(0.0)
        hist.observe(100.0)
        assert hist.p50 == 0.0
        assert hist.quantile(100) <= 100.0

    def test_round_trip(self):
        hist = Histogram()
        for v in (0.0, 0.5, 7.0, 7.1, 900.0):
            hist.observe(v)
        clone = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert clone.to_dict() == hist.to_dict()
        assert clone.p50 == hist.p50 and clone.p999 == hist.p999

    def test_registry_get_or_create_and_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.counter("a").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(10.0)
        assert registry.counter("a").value == 4
        clone = MetricsRegistry.from_dict(
            json.loads(json.dumps(registry.to_dict()))
        )
        assert clone.to_dict() == registry.to_dict()


# ------------------------------------------------------------------- tracer
class TestTracer:
    def test_seq_and_kinds(self):
        tracer = Tracer()
        tracer.stage("prepare", block=0, shard=1, sim_us=5.0)
        tracer.event("certify", block=0)
        tracer.fault("crash", block=0, shard=1)
        tracer.anno("run_summary", block=0, timing={"deltas": 3})
        assert [s.seq for s in tracer.spans] == [0, 1, 2, 3]
        assert [s.kind for s in tracer.spans] == [
            "stage", "event", "fault", "anno",
        ]

    def test_det_events_exclude_anno_and_timing(self):
        tracer = Tracer()
        tracer.stage("prepare", block=0, shard=0, timing={"sim_us": 99.0})
        tracer.anno("run_summary", block=0)
        events = tracer.det_events()
        assert len(events) == 1
        assert "timing" not in events[0] and "seq" not in events[0]
        assert events[0]["name"] == "prepare"

    def test_digest_insensitive_to_annotations(self):
        """Different timing annotations and interleaved anno spans must not
        move the deterministic digest."""
        a, b = Tracer(), Tracer()
        a.stage("prepare", block=0, shard=0, timing={"sim_us": 1.0})
        a.stage("commit", block=0, shard=0)
        b.stage("prepare", block=0, shard=0, timing={"sim_us": 2.0})
        b.anno("run_summary", block=0)
        b.stage("commit", block=0, shard=0)
        assert a.det_digest() == b.det_digest()
        c = Tracer()
        c.stage("prepare", block=0, shard=1)  # a det field differs
        c.stage("commit", block=0, shard=0)
        assert c.det_digest() != a.det_digest()

    def test_wall_annotations(self):
        tracer = Tracer(wall=True)
        tracer.event("order", block=0)
        assert "wall_ts" in tracer.spans[0].timing
        assert tracer.det_events()[0] == det_events(tracer.spans)[0]


# ----------------------------------------------------------------- analysis
def _spans(raw):
    return [
        Span(seq=i, name=n, kind=k, block=b, shard=s, sim_us=us)
        for i, (n, k, b, s, us) in enumerate(raw)
    ]


class TestAnalyze:
    def test_stage_breakdown_shares(self):
        spans = _spans([
            ("prepare", "stage", 0, 0, 30.0),
            ("commit", "stage", 0, 0, 60.0),
            ("order", "event", 0, None, 10.0),
            ("run_summary", "anno", 0, None, 999.0),  # excluded
        ])
        breakdown = stage_breakdown(spans)
        assert set(breakdown) == {"prepare", "commit", "order"}
        assert sum(e["share"] for e in breakdown.values()) == pytest.approx(1.0)
        assert breakdown["commit"]["share"] == pytest.approx(0.6)

    def test_shard_skew(self):
        spans = _spans([
            ("prepare", "stage", 0, 0, 10.0),
            ("prepare", "stage", 0, 1, 30.0),
            ("order", "event", 0, None, 5.0),  # unsharded: not in skew
        ])
        skew = shard_skew(spans)
        assert skew[0]["skew"] == pytest.approx(0.5)
        assert skew[1]["skew"] == pytest.approx(1.5)

    def test_block_critical_path(self):
        spans = _spans([
            ("prepare", "stage", 0, 0, 10.0),
            ("prepare", "stage", 0, 1, 40.0),
            ("commit", "stage", 0, 0, 10.0),
            ("vote_exchange", "stage", 0, None, 7.0),  # serial add-on
            ("prepare", "stage", 1, 0, 100.0),
            ("crash", "fault", 1, 0, 0.0),
        ])
        paths = block_paths(spans)
        assert paths[0]["critical_shard"] == 1
        assert paths[0]["total_us"] == pytest.approx(47.0)
        assert paths[1]["faults"] == 1 and paths[1]["fault_names"] == ["crash"]
        ranked = slowest_blocks(spans, top=1)
        assert ranked[0][0] == 1

    def test_render_report_sections(self):
        spans = _spans([
            ("prepare", "stage", 0, 0, 10.0),
            ("crash", "fault", 0, 0, 0.0),
        ])
        report = render_report(spans, meta={"mode": "test"})
        assert "per-stage breakdown" in report
        assert "per-shard load skew" in report
        assert "FAULT(crash)" in report
        assert "injected fault events" in report


# ------------------------------------------------- determinism (the pin)
class TestDeterminism:
    def test_seeded_runs_reproduce_full_spans(self):
        """Same seed: the *entire* span stream (timing
        annotations included) reproduces bit-identically."""
        a, _ = trace_run(num_blocks=5, block_size=8)
        b, _ = trace_run(num_blocks=5, block_size=8)
        assert [s.to_dict() for s in a.spans] == [s.to_dict() for s in b.spans]
        assert a.metrics.to_dict() == b.metrics.to_dict()

    def test_different_seed_moves_digest(self):
        a, _ = trace_run(num_blocks=4, block_size=8, seed=61)
        b, _ = trace_run(num_blocks=4, block_size=8, seed=62)
        assert a.det_digest() != b.det_digest()

    def test_disabled_tracing_is_identity(self):
        """Hooks default to None and an untraced run decides identically
        to a traced one — tracing observes, never perturbs."""
        from repro.obs.capture import build_workload
        from repro.shard.system import ShardConfig, ShardedBlockchain

        config = ShardConfig(
            system="harmony", num_shards=2, block_size=8, num_blocks=4, seed=61
        )
        chain = ShardedBlockchain(config, build_workload("smallbank", 2))
        assert chain.tracer is None
        assert chain.cert_log.tracer is None
        assert chain.group.nodes[0].engine.checkpoints.tracer is None
        untraced = chain.run()
        traced_tracer, traced = trace_run(num_blocks=4, block_size=8)
        assert untraced.extra["decision_digest"] == traced.extra["decision_digest"]
        assert untraced.extra["state_hash"] == traced.extra["state_hash"]
        assert untraced.extra["cert_head"] == traced.extra["cert_head"]
        assert len(traced_tracer.spans) > 0


# ------------------------------------------------------------ export + CLI
class TestExport:
    def test_round_trip(self, tmp_path):
        tracer, _ = trace_run(num_blocks=4, block_size=8)
        path = tmp_path / "trace.jsonl"
        export_jsonl(tracer, str(path))
        loaded = load_trace(str(path))
        assert loaded.spans == tracer.spans
        assert loaded.meta == tracer.meta
        assert loaded.metrics.to_dict() == tracer.metrics.to_dict()
        assert loaded.verify_digest()
        assert det_digest(loaded.spans) == tracer.det_digest()

    def test_digest_detects_tampering(self, tmp_path):
        tracer, _ = trace_run(num_blocks=4, block_size=8)
        path = tmp_path / "trace.jsonl"
        export_jsonl(tracer, str(path))
        lines = path.read_text().splitlines()
        span = json.loads(lines[1])
        span["shard"] = 93  # tamper with a deterministic field
        lines[1] = json.dumps(span, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert not load_trace(str(path)).verify_digest()

    def test_unknown_record_type_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown trace record"):
            load_trace(str(path))

    def test_cli_trace_and_report(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = tmp_path / "t.jsonl"
        assert main(["trace", "--out", str(out), "--blocks", "4"]) == 0
        assert main(["report", str(out), "--top", "3"]) == 0
        captured = capsys.readouterr().out
        assert "per-stage breakdown" in captured
        assert "per-shard load skew" in captured
        assert "top-3 slowest blocks" in captured


# -------------------------------------------------------------- fault drills
class TestTracedDrills:
    def test_drill_trace_annotates_faults(self, tmp_path):
        tracer, result = trace_drill(plan_name="crash-before-prepare")
        assert result.ok  # the drill itself stays bit-identical
        assert tracer.meta["drill_ok"] is True
        fault_names = {s.name for s in tracer.spans if s.kind == "fault"}
        assert "crash" in fault_names
        assert tracer.metrics.counter("supervisor.recoveries").value >= 1
        path = tmp_path / "drill.jsonl"
        export_jsonl(tracer, str(path))
        report = render_report(load_trace(str(path)).spans, meta=tracer.meta)
        assert "FAULT" in report
        assert "injected fault events" in report
        assert "crash" in report

    def test_drill_trace_reproducible(self):
        a, _ = trace_drill(plan_name="crash-before-prepare")
        b, _ = trace_drill(plan_name="crash-before-prepare")
        assert a.det_digest() == b.det_digest()

    def test_unknown_plan_raises(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            trace_drill(plan_name="no-such-plan")
