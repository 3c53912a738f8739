"""The benchmark's workloads and the timed runs of the real pipeline.

Each workload is a registered workload driven through the program's own
driver (``OEBlockchain.run`` or ``ShardedBlockchain.run``): a closed loop in
one process and thread, where block *i+1* is formed only after block *i* is
absorbed and aborted transactions are retried first in the next block. A
*rep* builds a fresh system for the seed and runs a fixed number of blocks,
so every simulated figure and digest is a function of the seed alone; a run
repeats reps until its time is spent and reports medians over them.

Untimed between blocks, a rep runs a short fixed *probe* of interpreter work
that touches nothing of the program. The probe's duration measures how fast
the machine runs at that moment, so wall figures can be corrected for the
speed swings of a shared host (see ``Rep.scales``).
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field

from repro.chain.system import OEBlockchain, OEConfig
from repro.shard.system import ShardConfig, ShardedBlockchain
from repro.sim.metrics import RunMetrics
from repro.workloads import ShardAffinity, make_workload

BLOCK_SIZE = 100
#: cross-shard share of ``tpcc-4shard`` transactions
CROSS_RATIO = 0.1


#: the probe's data: a few KB, built once, so it stays in cache
_PROBE_KEYS = [(i, f"probe-{i}") for i in range(512)]
_PROBE_TABLE = {key: i for i, key in enumerate(_PROBE_KEYS)}
_PROBE_BYTES = [key[1].encode() for key in _PROBE_KEYS]
#: about the probe's mean duration between blocks on the baseline machine
#: (see BASELINE.md) at its usual speed; wall figures are scaled to that speed
PROBE_UNIT_S = 0.0017
#: blocks on each side of a block whose probes set its speed
PROBE_WINDOW = 4


def probe() -> float:
    """Run the fixed probe and return its wall time in seconds.

    Dict lookups, integer arithmetic and SHA-256 hashing, the mix the
    pipeline spends its time on. It allocates no garbage-collected object,
    so it never triggers or feeds a collection of the program's objects.
    """
    start = time.perf_counter()
    acc = 0
    for _ in range(4):
        for i in range(512):
            acc += _PROBE_TABLE[_PROBE_KEYS[i]]
            acc ^= len(hashlib.sha256(_PROBE_BYTES[i]).digest())
    return time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a registry workload plus its deployment."""

    name: str
    registry: str
    #: 0 = unsharded ``OEBlockchain``; N = ``ShardedBlockchain(num_shards=N)``
    shards: int
    #: blocks per rep, sized so one rep takes a few seconds on two cores
    num_blocks: int
    #: distinct workload seeds per run; more of them average out the
    #: seed-to-seed swing of the abort dynamics
    sub_seeds: int

    def build(self, seed: int, num_blocks: int | None = None):
        """Build the system for ``seed`` and preload its state (set-up)."""
        blocks = self.num_blocks if num_blocks is None else num_blocks
        if self.shards:
            workload = make_workload(
                self.registry, affinity=ShardAffinity(self.shards, CROSS_RATIO)
            )
            config = ShardConfig(
                block_size=BLOCK_SIZE,
                num_blocks=blocks,
                num_shards=self.shards,
                seed=seed,
            )
            return ShardedBlockchain(config, workload)
        config = OEConfig(block_size=BLOCK_SIZE, num_blocks=blocks, seed=seed)
        return OEBlockchain(config, make_workload(self.registry))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ycsb-contended", "ycsb", shards=0, num_blocks=150, sub_seeds=4),
        Workload("ycsb-hotspot", "ycsb-hotspot", shards=0, num_blocks=160, sub_seeds=3),
        Workload("tpcc-4shard", "tpcc", shards=4, num_blocks=40, sub_seeds=3),
    )
}


def absorb_hook_name(system) -> str:
    """The driver method that absorbs one decided block into the run.

    Both drivers fold every decided block into the run through this one
    bookkeeping step and expose no public per-block hook, so it is the
    only place a block's absorption can be observed from outside.
    """
    return "_absorb_block" if isinstance(system, ShardedBlockchain) else "_absorb_execution"


def time_blocks(system, starts: list, ends: list, probes: list | None) -> None:
    """Stamp each block's formation and absorption on ``system``'s driver.

    Block formation is ``OrderingService.form_block``; absorption is the
    driver's bookkeeping step that folds the decided block into the run.
    With ``probes``, the probe runs just before each formation and its
    duration is recorded there.
    """
    form = system.ordering.form_block
    hook = absorb_hook_name(system)
    absorb = getattr(system, hook)

    def timed_form(specs):
        if probes is not None:
            probes.append(probe())
        starts.append(time.perf_counter())
        return form(specs)

    def timed_absorb(*args, **kwargs):
        result = absorb(*args, **kwargs)
        ends.append(time.perf_counter())
        return result

    system.ordering.form_block = timed_form
    setattr(system, hook, timed_absorb)


@dataclass
class Rep:
    """One fresh system run over the workload's fixed block count."""

    seed: int
    setup_s: float
    #: wall of ``run()``, less the probes
    run_s: float
    #: per block: wall from formation to absorption
    block_s: list
    #: per block: wall from the previous block's absorption (or the start
    #: of ``run()``) to this one's, less the probe, so the cycles plus
    #: ``tail_s`` are ``run_s``
    cycle_s: list
    #: per block: the probe run before it (empty on a traced rep)
    probe_s: list
    metrics: RunMetrics
    #: the :class:`~layers.SpanRecorder` of a traced rep, else ``None``
    recorder: object = None
    #: per-layer figures of a traced rep (``run.layer_figures``)
    layers: dict | None = None
    system: object = field(default=None, repr=False)

    @property
    def tail_s(self) -> float:
        """Wall of ``run()`` after the last block: scheduling and reporting."""
        return self.run_s - sum(self.cycle_s)

    def scales(self) -> list[float]:
        """Per block, the factor that brings its wall figures to the
        baseline machine's usual speed.

        ``PROBE_UNIT_S`` over the mean probe of the block's window
        (``PROBE_WINDOW`` blocks each side): below 1 while the machine runs
        slow. The mean, not the median: a host that slows the program part
        of the time slows it by the share of time it is slow, and so it
        slows the probes on average.
        """
        n = len(self.probe_s)
        windows = (
            self.probe_s[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1]
            for i in range(n)
        )
        return [PROBE_UNIT_S * len(w) / sum(w) for w in windows]

    @property
    def committed(self) -> int:
        return self.metrics.committed

    @property
    def attempts(self) -> int:
        return self.metrics.committed + self.metrics.aborted


def run_rep(workload: Workload, seed: int, recorder=None) -> Rep:
    """Set up and run one rep; ``recorder`` traces the layer calls.

    Only an untraced rep runs the probe: a traced rep's spans must cover
    the program's work alone.
    """
    gc.collect()
    t0 = time.perf_counter()
    system = workload.build(seed)
    t1 = time.perf_counter()
    starts: list = []
    ends: list = []
    probes: list | None = [] if recorder is None else None
    time_blocks(system, starts, ends, probes)
    if recorder is None:
        t2 = time.perf_counter()
        metrics = system.run()
        t3 = time.perf_counter()
    else:
        with recorder.installed(system):
            t2 = time.perf_counter()
            metrics = system.run()
            t3 = time.perf_counter()
        recorder.run_start, recorder.run_end = t2, t3
    if len(starts) != len(ends) or len(ends) != workload.num_blocks:
        raise RuntimeError(
            f"{len(starts)} blocks formed, {len(ends)} absorbed,"
            f" {workload.num_blocks} expected"
        )
    probe_s = probes if probes is not None else []
    pauses = probe_s or [0.0] * len(ends)
    return Rep(
        seed=seed,
        setup_s=t1 - t0,
        run_s=t3 - t2 - sum(pauses),
        block_s=[end - start for start, end in zip(starts, ends)],
        cycle_s=[
            end - start - pause
            for start, end, pause in zip([t2] + ends, ends, pauses)
        ],
        probe_s=probe_s,
        metrics=metrics,
        recorder=recorder,
        system=system,
    )
