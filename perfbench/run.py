"""End-to-end HarmonyBC benchmark: wall throughput, block latency, memory
and the paper's simulated figures, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload ycsb-contended --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced reps and prints the per-layer metrics. Wall figures are
corrected for the speed swings of a shared host by the probe between blocks
(``suite.probe``); ``commit_tps`` is printed before the correction too.
Every run passes the correctness gate in ``gate.py`` outside its timed
region; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See ``PLAN.md`` for
what each workload stresses and which end-to-end metric each layer should
move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

try:
    from repro.sim.metrics import percentile

    import gate
    from layers import SPAN_NAMES, SpanRecorder
    from suite import WORKLOADS, run_rep
except ImportError as exc:  # no program source next to the benchmark
    print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
    sys.exit(2)

#: passes per run at least: every sub-seed runs this often
MIN_PASSES = 2
#: offset of the self-test's held-out seed from the run's seed
HELD_OUT_OFFSET = 1_000_003

END_TO_END = {
    "commit_tps": "txn/s",
    "block_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_tps": "txn/s",
    "sim_latency_ms_p99": "ms",
    "attempts_per_commit": "ratio",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_NAMES},
    "driver.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "dcc.oracle_abortees": "count",
    "dcc.false_abort_ratio": "ratio",
    "core.dangerous_structure_hits": "count",
    "storage.checkpoints": "count",
    "storage.buffer_hit_ratio": "ratio",
    "storage.io_writes_per_commit": "count",
    "chain.header_hashes": "count",
    "shard.cross_txns": "count",
    "shard.participants_per_txn": "count",
    "sim.cpu_utilization": "ratio",
}


def layer_figures(rep) -> tuple[dict, list[str]]:
    """Per-layer figures of one traced rep (times are self seconds), and
    the problems its closure check found."""
    recorder, metrics, system = rep.recorder, rep.metrics, rep.system
    driver_self, problems = recorder.closure()
    figures = {f"{name}_s": s for name, s in recorder.layer_seconds().items()}
    participants = [
        len(parts)
        for block in getattr(system, "participants_log", ())
        for parts in block
    ]
    lookups = metrics.buffer_hits + metrics.buffer_misses
    figures.update(
        {
            "driver.self_s": driver_self,
            "trace.run_s": rep.run_s,
            "trace.spans": len(recorder.spans),
            "dcc.oracle_abortees": metrics.aborted,
            "dcc.false_abort_ratio": (
                metrics.false_aborts / metrics.aborted if metrics.aborted else 0.0
            ),
            "core.dangerous_structure_hits": metrics.dangerous_structure_hits,
            "storage.buffer_hit_ratio": metrics.buffer_hits / lookups if lookups else 0.0,
            "storage.io_writes_per_commit": metrics.io_writes / metrics.committed,
            "shard.cross_txns": metrics.extra.get("cross_shard_txns", 0),
            "shard.participants_per_txn": (
                sum(participants) / len(participants) if participants else 0.0
            ),
            "sim.cpu_utilization": metrics.cpu_utilization,
            **recorder.counts,
        }
    )
    return figures, [f"trace closure: {p}" for p in problems[:3]]


def sub_seeds(workload, seed: int) -> list[int]:
    """The run's workload seeds; distinct seeds give disjoint sets."""
    n = workload.sub_seeds
    return [seed * n + k for k in range(n)]


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run passes over the sub-seeds until ``seconds`` are spent; gate
    every rep against the first rep of its sub-seed.

    A traced run alternates untraced and traced passes, so every traced
    rep has an untraced twin.
    """
    seeds = sub_seeds(workload, seed)
    n = len(seeds)
    reps, problems, references = [], [], {}
    system = None
    start = time.perf_counter()
    while len(reps) < MIN_PASSES * n or time.perf_counter() - start < seconds:
        system = None  # free the previous rep before building the next
        run_seed = seeds[len(reps) % n]
        traced = trace and (len(reps) // n) % 2 == 1
        rep = run_rep(workload, run_seed, SpanRecorder() if traced else None)
        reference = references.setdefault(run_seed, gate.fingerprint(rep.metrics))
        problems += gate.check(rep.system, rep.metrics, reference)
        if traced:
            rep.layers, closure_problems = layer_figures(rep)
            problems += closure_problems
        system, rep.system = rep.system, None
        reps.append(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += gate.check_replica(system)
    return reps, problems, peak_rss_mb


def by_sub_seed(reps) -> list[list]:
    groups: dict[int, list] = {}
    for rep in reps:
        groups.setdefault(rep.seed, []).append(rep)
    return list(groups.values())


def corrected(rep) -> tuple[list[float], float, float]:
    """An untraced rep's block walls, ``run()`` wall and set-up, each
    brought to the baseline machine's usual speed by the probes around it
    (:meth:`suite.Rep.scales`)."""
    scales = rep.scales()
    blocks = [b * f for b, f in zip(rep.block_s, scales)]
    run_s = sum(c * f for c, f in zip(rep.cycle_s, scales)) + rep.tail_s * scales[-1]
    return blocks, run_s, rep.setup_s * scales[0]


def block_positions(group: list) -> list[float]:
    """Per block position, the median corrected wall over the repeats in
    ``group`` (the untraced reps of one sub-seed)."""
    series = [corrected(rep)[0] for rep in group]
    return [statistics.median(position) for position in zip(*series)]


def end_to_end(reps, peak_rss_mb: float) -> dict:
    """The end-to-end figures of a plain run.

    Wall figures are corrected for the machine's speed, block by block, and
    take the median over the repeats of each sub-seed: ``block_ms_p50``
    over the block positions' medians, ``commit_tps`` as the committed txns
    over the sum of each sub-seed's median ``run()`` wall. Simulated
    figures pool one rep per sub-seed and depend on the seed alone.
    """
    groups = by_sub_seed(reps)
    firsts = [group[0] for group in groups]
    blocks = [b for group in groups for b in block_positions(group)]
    run_wall = sum(
        statistics.median(corrected(rep)[1] for rep in group) for group in groups
    )
    committed = sum(r.committed for r in firsts)
    sim_s = sum(r.metrics.sim_time_us for r in firsts) / 1e6
    latencies_us = [x for r in firsts for x in r.metrics.latencies_us]
    return {
        "commit_tps": committed / run_wall,
        "block_ms_p50": 1000 * percentile(blocks, 50),
        "setup_s": statistics.median(corrected(rep)[2] for rep in reps),
        "peak_rss_mb": peak_rss_mb,
        "sim_tps": committed / sim_s,
        "sim_latency_ms_p99": percentile(latencies_us, 99) / 1000,
        "attempts_per_commit": sum(r.attempts for r in firsts) / committed,
    }


def uncorrected(reps) -> tuple[float, float]:
    """Committed txns per wall second of the untraced reps before the speed
    correction, and their mean speed factor, for the record."""
    plain = [r for r in reps if r.recorder is None]
    scales = [f for r in plain for f in r.scales()]
    return (
        sum(r.committed for r in plain) / sum(r.run_s for r in plain),
        sum(scales) / len(scales),
    )


def per_layer(reps) -> dict:
    """Medians over the traced reps; the tracing overhead compares each
    traced rep with its untraced twin of the same sub-seed."""
    traced = [r for r in reps if r.recorder is not None]
    figures = {
        name: statistics.median(r.layers[name] for r in traced)
        for name in traced[0].layers
    }
    untraced = {r.seed: r.run_s for r in reps if r.recorder is None}
    figures["trace.overhead_ratio"] = statistics.median(
        r.run_s / untraced[r.seed] for r in traced
    )
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    reps, problems, peak_rss_mb = measure(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    gate_problems, digest_moved = gate.self_test(
        workload,
        sub_seeds(workload, args.seed)[0],
        sub_seeds(workload, args.seed + HELD_OUT_OFFSET)[0],
    )
    problems += [f"self-test: {p}" for p in gate_problems]

    if args.trace:
        figures, units = per_layer(reps), PER_LAYER
        recorder = next(r.recorder for r in reversed(reps) if r.recorder)
        recorder.write(HERE / "out" / f"trace-{workload.name}-seed{args.seed}.json")
    else:
        figures, units = end_to_end(reps, peak_rss_mb), END_TO_END

    seeds = sub_seeds(workload, args.seed)
    blocks = [
        b
        for group in by_sub_seed(r for r in reps if r.recorder is None)
        for b in block_positions(group)
    ]
    plain_tps, mean_scale = uncorrected(reps)
    print(f"workload {workload.name}  seed {args.seed}"
          f"  sub-seeds {seeds}  reps {len(reps)}"
          f"  blocks/rep {workload.num_blocks}  block samples {len(blocks)}")
    print(f"block_ms_p95 {1000 * percentile(blocks, 95):.3f} ms"
          " (reported, not gated: unsteady across runs)")
    print(f"uncorrected commit_tps {plain_tps:.1f} txn/s"
          f"  mean speed factor {mean_scale:.4f}")
    for rep in reps[: len(seeds)]:
        extra = rep.metrics.extra
        print(f"  decision_digest {extra['decision_digest'][:16]}"
              f"  state_hash {extra['state_hash'][:16]}"
              f"  abort_ratio {rep.metrics.abort_rate:.4f}")
    print(f"held-out seed moves the decision digest: {digest_moved}")
    for name, value in figures.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    for problem in problems:
        print(f"GATE FAILED: {problem}")

    attempted = sum(r.attempts for r in reps)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {
            name: {"value": figures[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
