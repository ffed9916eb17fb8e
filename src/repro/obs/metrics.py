"""The metrics registry: counters, gauges, and fixed-bucket histograms.

The runtime's *trace* answers "when did each operation run"; the metrics
registry answers "how often did each scheduling decision happen and how
much did it move".  Every :class:`~repro.cuda.runtime.CudaRuntime` owns
one registry (``runtime.metrics``), shared by the OpenACC layer and the
TileAcc managers bound to it, so one number space covers a whole run:

* **counters** — monotonically increasing totals (bytes uploaded, cache
  hits, evictions, stall seconds);
* **gauges** — last-written values with a high-water mark (queue depth,
  cache occupancy);
* **histograms** — fixed-bucket distributions (transfer sizes, kernel
  cell counts), chosen over quantile sketches so snapshots are exact,
  mergeable, and diff-friendly.

Everything is plain Python floats/ints in dicts — no external
dependencies — and a registry built with ``enabled=False`` routes every
instrument to a shared no-op so disabled instrumentation costs one
attribute load per call site.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..errors import ReproError


class ObsError(ReproError):
    """Invalid use of the observability layer."""


#: Default histogram bucket upper bounds: powers of 4 covering one byte
#: to ~1 GiB, a good fit for both transfer sizes and cell counts.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(4.0 ** k for k in range(16))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A last-written value plus its high-water mark."""

    __slots__ = ("name", "value", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value


class Histogram:
    """Fixed upper-bound buckets (plus a +Inf overflow bucket).

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot
    counts overflow.  ``sum``/``count``/``min``/``max`` ride along so the
    mean and range survive snapshotting.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bl = [float(b) for b in buckets]
        if not bl or bl != sorted(bl) or len(set(bl)) != len(bl):
            raise ObsError(f"histogram {name!r} needs strictly increasing buckets")
        self.name = name
        self.buckets = tuple(bl)
        self.counts = [0] * (len(bl) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, ub in enumerate(self.buckets):
            if value <= ub:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float | None:
        """Arithmetic mean of the observations (None for an empty series)."""
        return self.sum / self.count if self.count else None

    def percentile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) by linear
        interpolation inside the covering bucket.

        The empty series returns ``None`` (never NaN), a single-sample
        series returns that sample exactly for every ``q``, and results
        are always clamped to the observed ``[min, max]`` range.
        """
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"percentile q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return None
        if self.count == 1 or self.min == self.max:
            return self.min
        target = q * self.count
        cum = 0.0
        lower = self.min
        for i, ub in enumerate(self.buckets):
            c = self.counts[i]
            if c:
                upper = min(ub, self.max)
                lo = max(lower, self.min)
                if upper < lo:
                    upper = lo
                if cum + c >= target:
                    frac = (target - cum) / c
                    return min(max(lo + (upper - lo) * frac, self.min), self.max)
                cum += c
                lower = upper
            elif ub > lower:
                lower = ub
        return self.max  # remaining mass sits in the +Inf overflow bucket

    def summary(self) -> dict[str, Any]:
        """Count/sum/mean/min/max plus p50/p90/p99, safe on any series."""
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def snapshot(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_snapshot(cls, name: str, snap: dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`snapshot` output.

        Lets consumers of serialized snapshots (manifest compare gates,
        report tables) recover :meth:`percentile` without re-observing
        the series.
        """
        h = cls(name, snap["buckets"])
        counts = [int(c) for c in snap["counts"]]
        if len(counts) != len(h.counts):
            raise ObsError(
                f"histogram {name!r} snapshot has {len(counts)} counts for "
                f"{len(h.buckets)} buckets"
            )
        h.counts = counts
        h.sum = float(snap["sum"])
        h.count = int(snap["count"])
        h.min = float("inf") if snap.get("min") is None else float(snap["min"])
        h.max = float("-inf") if snap.get("max") is None else float(snap["max"])
        return h


class _Null:
    """Shared do-nothing instrument handed out by disabled registries."""

    __slots__ = ()
    name = "<disabled>"
    value = 0.0
    max = 0.0
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _Null()

#: When not None, every newly created registry is appended here so a
#: harness-level caller can merge the counters of all runtimes created
#: during a run (see :func:`start_collection` / :func:`collect`).
_collection: list["MetricsRegistry"] | None = None


def start_collection() -> None:
    """Begin retaining every registry created from now on (bench harness)."""
    global _collection
    _collection = []


def collect() -> dict[str, Any]:
    """Merge and return a snapshot of all registries created since
    :func:`start_collection`; stops collecting."""
    global _collection
    regs, _collection = _collection or [], None
    return merge_snapshots([r.snapshot() for r in regs])


def merge_snapshots(snaps: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Sum counters, max gauges, and bucket-wise-add histograms.

    The merged dicts are returned in sorted name order regardless of the
    order registries were created in, so serialized snapshots (JSONL
    session logs, ledger files) diff stably across runs.
    """
    out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snaps:
        for name, v in snap.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0.0) + v
        for name, g in snap.get("gauges", {}).items():
            prev = out["gauges"].get(name)
            if prev is None:
                out["gauges"][name] = dict(g)
            else:
                prev["value"] = max(prev["value"], g["value"])
                prev["max"] = max(prev["max"], g["max"])
        for name, h in snap.get("histograms", {}).items():
            prev = out["histograms"].get(name)
            if prev is None:
                out["histograms"][name] = {k: (list(v) if isinstance(v, list) else v)
                                           for k, v in h.items()}
            elif prev["buckets"] == h["buckets"]:
                prev["counts"] = [a + b for a, b in zip(prev["counts"], h["counts"])]
                prev["sum"] += h["sum"]
                prev["count"] += h["count"]
                for k, fold in (("min", min), ("max", max)):
                    vals = [v for v in (prev[k], h[k]) if v is not None]
                    prev[k] = fold(vals) if vals else None
                if "mean" in prev:
                    prev["mean"] = prev["sum"] / prev["count"] if prev["count"] else None
            else:  # incompatible buckets: keep the first, count the clash
                out["counters"]["obs.merge_bucket_mismatch"] = (
                    out["counters"].get("obs.merge_bucket_mismatch", 0.0) + 1
                )
    return {
        "counters": dict(sorted(out["counters"].items())),
        "gauges": dict(sorted(out["gauges"].items())),
        "histograms": dict(sorted(out["histograms"].items())),
    }


class MetricsRegistry:
    """A named space of counters, gauges, and histograms.

    Instruments are created on first use and cached, so hot call sites
    can hold the instrument object directly::

        m = runtime.metrics.counter("cuda.h2d_bytes")
        ...
        m.inc(nbytes)          # no dict lookup on the hot path
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # registration order per kind, and the family lookups read from it
        self._registered: dict[str, list[Any]] = {"counter": [], "gauge": []}
        self._families: dict[tuple[str, str, str], list[Any]] = {}
        if _collection is not None:
            _collection.append(self)

    # -- instrument factories ---------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
            self._registered["counter"].append(c)
        return c

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
            self._registered["gauge"].append(g)
        return g

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, buckets)
        return h

    # -- convenience one-shots --------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        c = self._counters.get(name)
        return c.value if c is not None else default

    def find_histogram(self, name: str) -> Histogram | None:
        """The histogram registered as ``name``, or ``None`` — never
        creates one (unlike :meth:`histogram`), so read-only consumers
        don't pollute snapshots with empty series."""
        return self._histograms.get(name)

    def family(self, kind: str, prefix: str, suffix: str = "") -> list[Any]:
        """The counters (``kind="counter"``) or gauges (``"gauge"``) whose
        name starts with ``prefix`` and ends with ``suffix``, in
        registration order.

        The list is cached per ``(kind, prefix, suffix)`` and extended only
        with instruments registered since the previous lookup, so a
        periodic reader pays for what is new rather than rescanning every
        instrument the run ever created.  Callers must not modify it.
        """
        registered = self._registered[kind]
        fam = self._families.get((kind, prefix, suffix))
        if fam is None:
            fam = self._families[(kind, prefix, suffix)] = [[], 0]
        members, seen = fam
        if seen < len(registered):
            members.extend(i for i in registered[seen:]
                           if i.name.startswith(prefix) and i.name.endswith(suffix))
            fam[1] = len(registered)
        return members

    def sum_counters(self, prefix: str) -> float:
        """Sum of every counter whose name starts with ``prefix``.

        The telemetry bus uses this to fold per-field instrument families
        (``cache.hits.<field>``, ...) into one sampled series.
        """
        return sum([c.value for c in self.family("counter", prefix)])

    def max_gauge(self, prefix: str, suffix: str = "") -> float:
        """Largest *current* value among gauges whose name starts with
        ``prefix`` (and, when given, ends with ``suffix``); 0.0 when none
        exist."""
        vals = [g.value for g in self.family("gauge", prefix, suffix)]
        return max(vals) if vals else 0.0

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of every instrument, safe to ``json.dumps``."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"value": g.value, "max": g.max}
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }

    def save_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), indent=2))
        return path

    def reset(self) -> None:
        """Drop every instrument (tests)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        for registered in self._registered.values():
            registered.clear()
        self._families.clear()
