"""Adversarial workload family — stress where the paper's claims bite.

Three seeded generators over one shared integer keyspace, each aimed at a
specific piece of the machinery:

- :class:`ContentionWorkload` (``adv-counter``) — a handful of hot
  counters absorbing most updates, mixing *fused* arithmetic adds (which
  Harmony reorders and coalesces) with *separated* read-modify-writes
  (which form backward dangerous structures). This is the worst case for
  the reordering and false-abort machinery.
- :class:`RangeScanWorkload` (``adv-scan``) — read-mostly range scans with
  periodic writer bursts that insert/delete inside the scanned windows:
  phantom pressure on the range-read validation paths.
- :class:`SkewShiftWorkload` (``adv-skewshift``) — a Zipfian hotspot whose
  center migrates deterministically mid-run, so any state cached or
  partitioned around the early hotspot goes cold.

All three honour :class:`~repro.workloads.base.ShardAffinity` with the
same partition-fold idiom as YCSB/SmallBank: every access stays in the
transaction's home partition except one access sent to a second partition
with probability ``cross_ratio``. Generation is a pure function of the
RNG stream plus a per-instance transaction counter, so a reference
replica rebuilt from the same seed regenerates the identical stream.
"""

from __future__ import annotations

from repro.sim.rng import SeededRng
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import TxnSpec
from repro.workloads.base import (
    ScanFootprint,
    ShardAffinity,
    Workload,
    params,
)
from repro.workloads.zipf import ZipfGenerator

ADV_TABLE = "adv"


def adv_key(i: int) -> tuple:
    return (ADV_TABLE, i)


class AdversarialWorkload(Workload):
    """Shared base: one keyspace, one generic op-list procedure.

    Ops are tuples dispatched by their first element:
    ``("r", i)`` read, ``("u", i, delta)`` fused add,
    ``("ru", i, delta)`` separated read-modify-write,
    ``("w", i, value)`` blind write, ``("del", i)`` delete,
    ``("scan", lo, hi)`` range scan over ``[lo, hi)``, and
    ``("wscan", lo, hi)`` — the same scan, but generated *wide*: the
    window deliberately ignores partition bounds, so only the compiled
    :meth:`spec_footprint` can route it exactly.
    """

    def __init__(
        self, num_keys: int, affinity: ShardAffinity | None = None
    ) -> None:
        if num_keys < 1:
            raise ValueError("need at least one key")
        if affinity is not None and num_keys < affinity.num_shards:
            raise ValueError(
                f"affinity over {affinity.num_shards} shards needs at least "
                f"{affinity.num_shards} keys, got {num_keys}"
            )
        self.num_keys = num_keys
        self.affinity = affinity
        self._txn_seq = 0

    # ----------------------------------------------------------------- state
    def initial_state(self) -> dict:
        return {adv_key(i): 100 + i for i in range(self.num_keys)}

    # ------------------------------------------------------------ procedures
    def build_registry(self) -> ProcedureRegistry:
        registry = ProcedureRegistry()

        @registry.register("adv_txn")
        def adv_txn(ctx, ops):
            out = []
            # keys with a pending fused add or delete this transaction:
            # reading back through that pending command chain would raise
            # on a base the lag snapshot doesn't hold yet (early blocks
            # predate the preload under inter-block lag), so reads of
            # those keys stay fused — a data-independent, deterministic
            # rule, the procedure stays total under every scheme
            blind = set()
            for op in ops:
                kind = op[0]
                if kind == "r":
                    out.append(
                        None if op[1] in blind else ctx.read(adv_key(op[1]))
                    )
                elif kind == "u":
                    ctx.add(adv_key(op[1]), op[2])
                    blind.add(op[1])
                elif kind == "ru":
                    if op[1] in blind:
                        ctx.add(adv_key(op[1]), op[2])
                    else:
                        # separated RMW; the `or 0` keeps the procedure
                        # total when a writer burst deleted the row
                        value = ctx.read(adv_key(op[1])) or 0
                        ctx.write(adv_key(op[1]), value + op[2])
                elif kind == "w":
                    ctx.write(adv_key(op[1]), op[2])
                elif kind == "del":
                    ctx.delete(adv_key(op[1]))
                    blind.add(op[1])
                else:  # "scan" / "wscan" — identical execution
                    rows = ctx.scan(adv_key(op[1]), adv_key(op[2]))
                    out.append(len(rows))
            return tuple(out)

        return registry

    # ---------------------------------------------------------- shard hints
    def spec_keys(self, spec: TxnSpec) -> list | None:
        """Point keys plus scan endpoints.

        Endpoints suffice for ``scan`` ops because every generator keeps
        them inside one contiguous partition of the layout its affinity
        was built with (and layout partitions nest inside any deployment
        whose shard count divides the layout's, the only combinations the
        benches replay). A ``wscan`` breaks that invariant by design, so
        its presence makes the key footprint unknowable (``None`` —
        broadcast) unless the router consumes :meth:`spec_footprint`.
        """
        keys = []
        for op in spec.param_dict["ops"]:
            if op[0] == "wscan":
                return None
            if op[0] == "scan":
                keys.append(adv_key(op[1]))
                keys.append(adv_key(max(op[1], op[2] - 1)))
            else:
                keys.append(adv_key(op[1]))
        return keys

    def spec_footprint(self, spec: TxnSpec) -> ScanFootprint:
        """Exact compiled footprint: point keys plus ``[lo, hi)`` index
        ranges for every scan (wide or not) — the router computes true
        participant sets from this instead of endpoint guesses or a
        broadcast. The adv table's index space *is* the key integer, so
        scan bounds translate verbatim."""
        points = []
        ranges = []
        for op in spec.param_dict["ops"]:
            if op[0] in ("scan", "wscan"):
                ranges.append((op[1], op[2]))
            else:
                points.append(adv_key(op[1]))
        return ScanFootprint(points, ranges)

    def shard_index(self, key: object) -> int | None:
        if isinstance(key, tuple) and len(key) == 2 and key[0] == ADV_TABLE:
            return key[1]
        return None

    @property
    def shard_space(self) -> int | None:
        return self.num_keys

    # ------------------------------------------------------------ generation
    def _partitions(self, rng: SeededRng) -> tuple[int | None, int | None]:
        """(home, remote) partition draw for one transaction; ``(None,
        None)`` when no affinity is set (whole keyspace is home)."""
        affinity = self.affinity
        if affinity is None or affinity.num_shards == 1:
            return None, None
        home = affinity.pick_home(rng)
        remote = affinity.pick_other(rng, home) if affinity.crosses(rng) else None
        return home, remote

    def _fold(self, index: int, partition: int | None) -> int:
        if partition is None:
            return index
        return self.affinity.map_index(index, partition, self.num_keys)


class ContentionWorkload(AdversarialWorkload):
    """High-contention counters: most ops hit ``hot_keys`` counters at the
    base of each partition, mixing fused adds with separated RMWs."""

    name = "adv-counter"

    def __init__(
        self,
        num_keys: int = 256,
        hot_keys: int = 4,
        hot_ratio: float = 0.8,
        ops_per_txn: int = 6,
        fused_ratio: float = 0.5,
        affinity: ShardAffinity | None = None,
    ) -> None:
        super().__init__(num_keys, affinity)
        if not 1 <= hot_keys <= num_keys:
            raise ValueError("hot_keys must be within [1, num_keys]")
        self.hot_keys = hot_keys
        self.hot_ratio = hot_ratio
        self.ops_per_txn = ops_per_txn
        self.fused_ratio = fused_ratio

    def generate_block(self, size: int, rng: SeededRng) -> list[TxnSpec]:
        specs = []
        for _ in range(size):
            home, remote = self._partitions(rng)
            ops = []
            for n in range(self.ops_per_txn):
                target = remote if (remote is not None and n == 0) else home
                if rng.random() < self.hot_ratio:
                    index = rng.randint(0, self.hot_keys - 1)
                else:
                    index = rng.randint(0, self.num_keys - 1)
                index = self._fold(index, target)
                shape = rng.random()
                delta = rng.randint(1, 9)
                if shape < 0.2:
                    ops.append(("r", index))
                elif shape < 0.2 + 0.8 * self.fused_ratio:
                    ops.append(("u", index, delta))
                else:
                    ops.append(("ru", index, delta))
            self._txn_seq += 1
            specs.append(TxnSpec("adv_txn", params(ops=tuple(ops))))
        return specs


class RangeScanWorkload(AdversarialWorkload):
    """Read-mostly range scans with deterministic writer bursts.

    Every ``burst_period`` transactions, ``burst_len`` consecutive
    transactions are writers that blind-write and delete inside the scan
    windows — phantoms for the range validators to catch.

    ``wide_scan_ratio`` > 0 makes that fraction of reader scans *wide*:
    a ``wide_span``-key window drawn over the whole keyspace, ignoring
    partition bounds — the case where endpoint routing under-covers and
    only :meth:`spec_footprint` keeps the participant set both exact and
    small. The extra RNG draws are gated on the knob, so the default
    (``0.0``) generates streams byte-identical to before the knob existed.
    """

    name = "adv-scan"

    def __init__(
        self,
        num_keys: int = 240,
        scan_span: int = 16,
        scans_per_txn: int = 2,
        burst_period: int = 10,
        burst_len: int = 2,
        writer_ops: int = 4,
        wide_scan_ratio: float = 0.0,
        wide_span: int | None = None,
        affinity: ShardAffinity | None = None,
    ) -> None:
        super().__init__(num_keys, affinity)
        if not 1 <= scan_span <= num_keys:
            raise ValueError("scan_span must be within [1, num_keys]")
        if burst_period < 1 or not 0 <= burst_len <= burst_period:
            raise ValueError("need 0 <= burst_len <= burst_period, period >= 1")
        if not 0.0 <= wide_scan_ratio <= 1.0:
            raise ValueError("wide_scan_ratio must be within [0, 1]")
        self.scan_span = scan_span
        self.scans_per_txn = scans_per_txn
        self.burst_period = burst_period
        self.burst_len = burst_len
        self.writer_ops = writer_ops
        self.wide_scan_ratio = wide_scan_ratio
        self.wide_span = (
            min(num_keys, wide_span)
            if wide_span is not None
            else min(num_keys, scan_span * 8)
        )

    def _window_start(self, rng: SeededRng, partition: int | None) -> int:
        """A scan-window start such that ``[start, start + span)`` stays
        inside ``partition`` (or the whole keyspace)."""
        if partition is None:
            lo, hi = 0, self.num_keys
        else:
            lo, hi = self.affinity.partition_bounds(self.num_keys, partition)
        span = min(self.scan_span, hi - lo)
        return lo + rng.randint(0, max(0, (hi - lo) - span))

    def generate_block(self, size: int, rng: SeededRng) -> list[TxnSpec]:
        specs = []
        for _ in range(size):
            is_writer = (self._txn_seq % self.burst_period) < self.burst_len
            home, remote = self._partitions(rng)
            ops = []
            if is_writer:
                for n in range(self.writer_ops):
                    target = (
                        remote
                        if (remote is not None and n == self.writer_ops - 1)
                        else home
                    )
                    start = self._window_start(rng, target)
                    index = start + rng.randint(0, self.scan_span - 1)
                    index = min(index, self.num_keys - 1)
                    if rng.random() < 0.25:
                        ops.append(("del", index))
                    else:
                        ops.append(("w", index, rng.randint(0, 999)))
            else:
                for n in range(self.scans_per_txn):
                    target = (
                        remote
                        if (remote is not None and n == self.scans_per_txn - 1)
                        else home
                    )
                    if (
                        self.wide_scan_ratio > 0.0
                        and rng.random() < self.wide_scan_ratio
                    ):
                        span = self.wide_span
                        start = rng.randint(0, self.num_keys - span)
                        ops.append(("wscan", start, start + span))
                        continue
                    start = self._window_start(rng, target)
                    span = min(self.scan_span, self.num_keys - start)
                    ops.append(("scan", start, start + span))
                ops.append(("r", self._fold(rng.randint(0, self.num_keys - 1), home)))
            self._txn_seq += 1
            specs.append(TxnSpec("adv_txn", params(ops=tuple(ops))))
        return specs


class SkewShiftWorkload(AdversarialWorkload):
    """Zipfian hotspot that migrates mid-run.

    Rank 0 of the Zipf draw lands at ``(phase * stride) % num_keys`` where
    ``phase`` advances every ``shift_period`` generated transactions — the
    hotspot walks the keyspace deterministically, going cold behind it.
    """

    name = "adv-skewshift"

    def __init__(
        self,
        num_keys: int = 200,
        theta: float = 0.9,
        shift_period: int = 40,
        stride: int | None = None,
        ops_per_txn: int = 4,
        fused_ratio: float = 0.5,
        affinity: ShardAffinity | None = None,
    ) -> None:
        super().__init__(num_keys, affinity)
        self.theta = theta
        if shift_period < 1:
            raise ValueError("shift_period must be >= 1")
        self.shift_period = shift_period
        self.stride = stride if stride is not None else max(1, num_keys // 3)
        self.ops_per_txn = ops_per_txn
        self.fused_ratio = fused_ratio
        self._zipf = ZipfGenerator(num_keys, theta)

    def generate_block(self, size: int, rng: SeededRng) -> list[TxnSpec]:
        specs = []
        for _ in range(size):
            phase = self._txn_seq // self.shift_period
            offset = (phase * self.stride) % self.num_keys
            home, remote = self._partitions(rng)
            ops = []
            for n in range(self.ops_per_txn):
                target = remote if (remote is not None and n == 0) else home
                index = (self._zipf.sample(rng) + offset) % self.num_keys
                index = self._fold(index, target)
                shape = rng.random()
                delta = rng.randint(1, 9)
                if shape < 0.25:
                    ops.append(("r", index))
                elif shape < 0.25 + 0.75 * self.fused_ratio:
                    ops.append(("u", index, delta))
                else:
                    ops.append(("ru", index, delta))
            self._txn_seq += 1
            specs.append(TxnSpec("adv_txn", params(ops=tuple(ops))))
        return specs
