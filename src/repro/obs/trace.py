"""Deterministic structured spans with dual clocks.

A :class:`Tracer` records one :class:`Span` per pipeline event — block,
shard, stage, attempt — carrying **two clocks**:

- ``sim_us`` + ``attrs``: the *deterministic* side, populated only from
  decision-layer quantities (counts, certificate data, NetworkModel
  costs, retry schedules). The ordered stream of these fields — the
  *decision-relevant span stream*, :func:`det_events` — is bit-identical
  across repeated seeded runs, so the trace itself is a correctness
  artifact (:func:`det_digest` pins it).
- ``timing``: annotations — engine-simulated durations (cost-model
  output, not decisions) and optional wall-clock stamps (``wall=True``).
  Spans of kind ``"anno"`` are excluded from the deterministic stream
  entirely (e.g. run summaries, which carry only timing).

Instrumentation follows the fault-hook pattern from ``repro.faults``: a
pipeline object's ``tracer`` attribute defaults to ``None`` and every
emission site is guarded by one attribute check, so disabled tracing is
zero-cost. :func:`attach_tracer` arms a chain end to end.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.consensus.crypto import sha256_hex
from repro.obs.metrics import MetricsRegistry

#: span kinds; ``anno`` spans are excluded from the deterministic stream
KIND_STAGE = "stage"
KIND_EVENT = "event"
KIND_FAULT = "fault"
KIND_ANNO = "anno"


@dataclass
class Span:
    """One traced pipeline event."""

    seq: int
    name: str
    kind: str = KIND_STAGE
    block: int | None = None
    shard: int | None = None
    attempt: int = 0
    #: deterministic simulated duration (NetworkModel/schedule costs)
    sim_us: float = 0.0
    #: deterministic attributes (counts, decisions, hashes)
    attrs: dict = field(default_factory=dict)
    #: non-deterministic annotations (engine sim durations, wall clock)
    timing: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "name": self.name,
            "kind": self.kind,
            "block": self.block,
            "shard": self.shard,
            "attempt": self.attempt,
            "sim_us": self.sim_us,
            "attrs": self.attrs,
            "timing": self.timing,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            seq=data["seq"],
            name=data["name"],
            kind=data["kind"],
            block=data["block"],
            shard=data["shard"],
            attempt=data["attempt"],
            sim_us=data["sim_us"],
            attrs=dict(data["attrs"]),
            timing=dict(data["timing"]),
        )


def det_events(spans: list[Span]) -> list[dict]:
    """The decision-relevant span stream: every non-anno span's
    deterministic fields, in emission order (``seq`` and ``timing`` are
    deliberately excluded, so annotation spans can be added or dropped
    without perturbing this stream)."""
    return [
        {
            "name": s.name,
            "kind": s.kind,
            "block": s.block,
            "shard": s.shard,
            "attempt": s.attempt,
            "sim_us": s.sim_us,
            "attrs": s.attrs,
        }
        for s in spans
        if s.kind != KIND_ANNO
    ]


def det_digest(spans: list[Span]) -> str:
    """SHA-256 over the canonical JSON of :func:`det_events`."""
    payload = json.dumps(det_events(spans), sort_keys=True)
    return sha256_hex(payload.encode())


class Tracer:
    """Collects spans and feeds the run's :class:`MetricsRegistry`."""

    def __init__(self, meta: dict | None = None, wall: bool = False) -> None:
        self.meta = dict(meta or {})
        #: wall-clock annotations: stamp ``timing["wall_ts"]`` per span
        self.wall = wall
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        self._seq = 0

    # ------------------------------------------------------------- emission
    def emit(
        self,
        name: str,
        kind: str = KIND_EVENT,
        block: int | None = None,
        shard: int | None = None,
        attempt: int = 0,
        sim_us: float = 0.0,
        attrs: dict | None = None,
        timing: dict | None = None,
    ) -> Span:
        span = Span(
            seq=self._seq,
            name=name,
            kind=kind,
            block=block,
            shard=shard,
            attempt=attempt,
            sim_us=float(sim_us),
            attrs=dict(attrs or {}),
            timing=dict(timing or {}),
        )
        if self.wall:
            span.timing["wall_ts"] = time.perf_counter()
        self._seq += 1
        self.spans.append(span)
        return span

    def stage(self, name: str, **kw) -> Span:
        return self.emit(name, kind=KIND_STAGE, **kw)

    def event(self, name: str, **kw) -> Span:
        return self.emit(name, kind=KIND_EVENT, **kw)

    def fault(self, name: str, **kw) -> Span:
        return self.emit(name, kind=KIND_FAULT, **kw)

    def anno(self, name: str, **kw) -> Span:
        return self.emit(name, kind=KIND_ANNO, **kw)

    # ---------------------------------------------------------- determinism
    def det_events(self) -> list[dict]:
        return det_events(self.spans)

    def det_digest(self) -> str:
        return det_digest(self.spans)


def _arm_node(node, tracer: Tracer, shard: int | None) -> None:
    manager = node.engine.checkpoints
    manager.tracer = tracer
    manager.trace_shard = shard


def attach_tracer(chain, tracer: Tracer) -> Tracer:
    """Arm ``tracer`` on every hook of an (un)sharded chain.

    Wires the chain itself, the certificate log and every node's
    checkpoint manager (re-armed on rejoin, so recovered shards keep
    tracing).
    """
    chain.tracer = tracer
    cert_log = getattr(chain, "cert_log", None)
    if cert_log is not None:
        cert_log.tracer = tracer
    group = getattr(chain, "group", None)
    if group is not None:
        for shard, node in enumerate(group.nodes):
            _arm_node(node, tracer, shard)
        group.rejoin_listeners.append(
            lambda shard, node: _arm_node(node, tracer, shard)
        )
    else:
        _arm_node(chain.node, tracer, None)
    return tracer
