"""CLI: capture and analyze deterministic pipeline traces.

Usage::

    python -m repro.obs trace --out trace.jsonl            # seeded run
    python -m repro.obs trace --out t.jsonl --shards 4 --wall
    python -m repro.obs trace --out t.jsonl --plan vote-drop   # fault drill
    python -m repro.obs report trace.jsonl --top 8         # render tables
    python -m repro.obs smoke                              # CI gate

``trace`` runs a seeded sharded run (or, with ``--plan``, the disturbed
side of a fault drill) with tracing armed and exports the JSONL trace.
``report`` renders per-stage breakdowns, per-shard load skew, per-block
critical paths, and injected fault events. ``smoke`` exercises the whole
loop — capture, export, round-trip, digest reproducibility, report — and
exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from repro.obs.analyze import render_report
from repro.obs.capture import trace_drill, trace_run
from repro.obs.export import export_jsonl, load_trace


def _cmd_trace(args) -> int:
    if args.plan:
        tracer, result = trace_drill(
            plan_name=args.plan,
            scheme=args.scheme,
            num_shards=args.shards,
            workload=args.workload,
            num_blocks=args.blocks,
            block_size=args.block_size,
            seed=args.seed,
            wall=args.wall,
        )
        verdict = "ok" if result.ok else "DIVERGED"
        print(f"drill {result.label}: {verdict}")
        if not result.ok:
            for failure in result.failures:
                print(f"  {failure}")
    else:
        tracer, metrics = trace_run(
            workload=args.workload,
            scheme=args.scheme,
            num_shards=args.shards,
            num_blocks=args.blocks,
            block_size=args.block_size,
            seed=args.seed,
            wall=args.wall,
        )
        print(
            f"run {args.scheme} x {args.shards}shard x {args.workload}: "
            f"{metrics.committed} committed / {metrics.aborted} aborted"
        )
    export_jsonl(tracer, args.out)
    print(
        f"wrote {args.out}: {len(tracer.spans)} spans, "
        f"det digest {tracer.det_digest()[:16]}"
    )
    return 0


def _cmd_report(args) -> int:
    trace = load_trace(args.path)
    if not trace.verify_digest():
        print("WARNING: deterministic digest mismatch (file edited?)")
    print(render_report(trace.spans, meta=trace.meta, top=args.top))
    return 0


def _cmd_smoke(args) -> int:
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    print("obs smoke: traced seeded run")
    tracer, metrics = trace_run(num_blocks=6, block_size=8)
    check("spans recorded", len(tracer.spans) > 0)
    check("blocks committed", metrics.committed > 0)

    tracer2, _ = trace_run(num_blocks=6, block_size=8)
    check("det digest reproducible", tracer.det_digest() == tracer2.det_digest())

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        export_jsonl(tracer, path)
        loaded = load_trace(path)
        check("exporter round-trips spans", loaded.spans == tracer.spans)
        check("exporter round-trips digest", loaded.verify_digest())
        check(
            "exporter round-trips metrics",
            loaded.metrics.to_dict() == tracer.metrics.to_dict(),
        )
        report = render_report(loaded.spans, meta=loaded.meta)
        check("report renders breakdown", "per-stage breakdown" in report)
        check("report renders skew table", "per-shard load skew" in report)

    print("obs smoke: traced fault drill")
    drill_tracer, result = trace_drill(plan_name="crash-before-prepare")
    check("drill bit-identical", result.ok)
    fault_spans = [s for s in drill_tracer.spans if s.kind == "fault"]
    check("fault events traced", len(fault_spans) > 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drill.jsonl")
        export_jsonl(drill_tracer, path)
        report = render_report(load_trace(path).spans, meta=drill_tracer.meta)
        check("fault events annotated in report", "FAULT" in report)

    if failures:
        print(f"obs smoke: {len(failures)} failure(s)")
        return 1
    print("obs smoke: all checks passed")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="deterministic pipeline traces: capture and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace_p = sub.add_parser("trace", help="run a seeded traced run / drill")
    trace_p.add_argument("--out", required=True, help="output JSONL path")
    trace_p.add_argument("--workload", default="smallbank")
    trace_p.add_argument("--scheme", default="harmony")
    trace_p.add_argument("--shards", type=int, default=2)
    trace_p.add_argument("--blocks", type=int, default=8)
    trace_p.add_argument("--block-size", type=int, default=8)
    trace_p.add_argument("--seed", type=int, default=61)
    trace_p.add_argument(
        "--plan", default=None, help="fault plan name: trace a drill instead"
    )
    trace_p.add_argument(
        "--wall", action="store_true", help="stamp wall-clock annotations"
    )
    trace_p.set_defaults(func=_cmd_trace)

    report_p = sub.add_parser("report", help="render a JSONL trace")
    report_p.add_argument("path", help="trace JSONL file")
    report_p.add_argument("--top", type=int, default=5)
    report_p.set_defaults(func=_cmd_report)

    smoke_p = sub.add_parser("smoke", help="capture/export/report gate")
    smoke_p.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:  # report piped into head etc.
        sys.exit(0)
