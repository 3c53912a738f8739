"""Per-layer wall time, recorded from outside the program.

A :class:`SpanRecorder` wraps each layer's public entry points for the
duration of one traced ``run()`` and restores them afterwards. Wrappers sit
at block or shard-block granularity only (never on per-key calls), spans are
held in memory, and :meth:`SpanRecorder.layer_seconds` turns them into self times: a
span's duration minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import repro.core.harmony as harmony_module
import repro.shard.system as shard_module
from repro.chain.block import Block
from repro.chain.node import ReplicaNode
from repro.core.harmony import HarmonyExecutor
from repro.core.validation import HarmonyValidator
from repro.dcc.oracle import SerializabilityOracle
from repro.sim.scheduler import PipelineSimulator
from repro.storage.checkpoint import CheckpointManager
from repro.storage.engine import StorageEngine

from suite import absorb_hook_name

#: (owner, attribute, span name) wrapped on every traced run
CLASS_SPANS = (
    (ReplicaNode, "prepare_block", "chain.ingest"),
    (HarmonyExecutor, "prepare_block", "core.prepare"),
    (harmony_module, "simulate_transactions", "core.simulate"),
    (HarmonyValidator, "validate", "core.validate"),
    (HarmonyExecutor, "commit_block", "core.commit"),
    (harmony_module, "apply_write_sets", "core.reorder"),
    (StorageEngine, "apply_block", "storage.apply"),
    (StorageEngine, "checkpoint_if_due", "storage.checkpoint"),
    (StorageEngine, "state_hash", "storage.state_hash"),
    (SerializabilityOracle, "count_false_aborts", "dcc.oracle"),
    (PipelineSimulator, "simulate", "sim.schedule"),
    (shard_module, "derive_votes", "shard.certify"),
)
#: (owner, attribute, counter name): counted, not timed
CLASS_COUNTS = (
    (Block, "header_bytes", "chain.header_hashes"),
    (CheckpointManager, "delta_checkpoint", "storage.checkpoints"),
    (CheckpointManager, "force_checkpoint", "storage.checkpoints"),
)

#: every timed layer, in report order
SPAN_NAMES = (
    "workloads.generate",
    "chain.form_block",
    "chain.ingest",
    "shard.route",
    "core.prepare",
    "core.simulate",
    "core.validate",
    "shard.certify",
    "core.commit",
    "core.reorder",
    "storage.apply",
    "storage.checkpoint",
    "storage.state_hash",
    "dcc.oracle",
    "sim.schedule",
)
COUNT_NAMES = ("chain.header_hashes", "storage.checkpoints")

_MISSING = object()


class SpanRecorder:
    """Spans of one traced run: ``[name, start, end, parent, block]``.

    ``parent`` is the index of the enclosing span (``None`` at top level)
    and ``block`` the index of the block in flight (``None`` for run-level
    work such as scheduling and the final state hash).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.block: int | None = None
        self.blocks_started = 0
        #: the traced ``run()`` call's wall interval, set by the caller
        self.run_start = 0.0
        self.run_end = 0.0
        self._stack: list[int] = []

    # ----------------------------------------------------------- wrappers
    def timed(self, name: str, fn, starts_block: bool = False):
        def traced(*args, **kwargs):
            if starts_block:
                self.block = self.blocks_started
                self.blocks_started += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), 0.0, parent, self.block]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()

        return traced

    def counted(self, name: str, fn):
        def count(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return count

    def ends_block(self, fn):
        def absorb(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.block = None
            return result

        return absorb

    @contextmanager
    def installed(self, system):
        """Wrap the layer entry points for one ``system.run()``."""
        undo: list = []

        def patch(owner, attr, make):
            original = vars(owner).get(attr, _MISSING)
            current = getattr(owner, attr)
            replacement = make(current)
            if isinstance(original, staticmethod):
                replacement = staticmethod(replacement)
            setattr(owner, attr, replacement)
            undo.append((owner, attr, original))

        try:
            for owner, attr, name in CLASS_SPANS:
                patch(owner, attr, lambda fn, name=name: self.timed(name, fn))
            for owner, attr, name in CLASS_COUNTS:
                patch(owner, attr, lambda fn, name=name: self.counted(name, fn))
            patch(
                system.workload,
                "generate_block",
                lambda fn: self.timed("workloads.generate", fn, starts_block=True),
            )
            patch(
                system.ordering,
                "form_block",
                lambda fn: self.timed("chain.form_block", fn),
            )
            patch(system, absorb_hook_name(system), self.ends_block)
            if hasattr(system, "route_global_block"):
                patch(
                    system,
                    "route_global_block",
                    lambda fn: self.timed("shard.route", fn),
                )
                patch(
                    system.cert_log,
                    "append",
                    lambda fn: self.timed("shard.certify", fn),
                )
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis
    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def closure(self) -> tuple[float, list[str]]:
        """``(driver_self_s, problems)`` for this run.

        ``driver_self_s`` is the run wall minus the top-level spans. Closure
        holds when every child lies inside its parent, siblings do not
        overlap, no self time is negative and the self times plus
        ``driver_self_s`` sum to the run's wall time.
        """
        problems: list[str] = []
        wall = self.run_end - self.run_start
        last_end: dict = {}
        covered = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            lo, hi = (
                (self.run_start, self.run_end)
                if parent is None
                else (self.spans[parent][1], self.spans[parent][2])
            )
            if not lo <= start <= end <= hi:
                problems.append(f"span {index} ({name}) escapes its parent")
            if start < last_end.get(parent, lo):
                problems.append(f"span {index} ({name}) overlaps a sibling")
            last_end[parent] = end
            if parent is None:
                covered += end - start
        own = self.self_times()
        if any(value < 0 for value in own):
            problems.append("negative self time")
        driver_self = wall - covered
        error = abs(sum(own) + driver_self - wall)
        if driver_self < 0 or error > 1e-6 * max(wall, 1.0):
            problems.append(f"self times do not sum to the wall (error {error:.3g}s)")
        return driver_self, problems

    def layer_seconds(self) -> dict[str, float]:
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]] += own
        return totals

    def write(self, path: Path) -> None:
        """Write the spans (times relative to the run start) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.run_start
        payload = {
            "wall_s": self.run_end - origin,
            "counts": self.counts,
            "spans": [
                {
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                    "parent": parent,
                    "block": block,
                }
                for name, start, end, parent, block in self.spans
            ],
        }
        path.write_text(json.dumps(payload))
