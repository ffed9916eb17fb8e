"""The telemetry bus: virtual-clock sampling of live runtime metrics.

The bus subscribes to the runtime's :class:`~repro.sim.engine.HostClock`
and, every time virtual time crosses a ``sample_interval`` boundary,
folds the current counter totals into one :class:`TelemetrySample` with
window-derived rates (bytes/s per link direction, stall fraction, cache
hit rate, overlap efficiency).  Samples fan out to pluggable
subscribers (watchdog, flight recorder, user callbacks) and optionally
append to a JSONL session log that ``python -m repro.obs.watch`` tails.

Design constraints, all load-bearing:

* **virtual-clock driven** — sampling happens inside clock advancement,
  never from wall time, so the whole pipeline is byte-reproducible;
* **zero observable overhead** — the bus only *reads* the registry,
  trace, and engines; it never writes a metric or trace event, so a
  monitored run produces byte-identical metrics/trace artifacts to an
  unmonitored one (asserted in tests);
* **bounded cost** — exactly one sample per crossed interval boundary,
  no matter how far one blocking sync jumps time (a jump over k
  boundaries back-fills k samples, so detector windows see a uniform
  cadence), and a sample reads only what changed since the previous
  one: new trace events and newly registered instruments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from ...sim.intervals import IntervalUnion, intersection
from ..metrics import MetricsRegistry, ObsError
from ..records import RecordLog

#: Cumulative counter series sampled into every ``TelemetrySample``.
#: Values are (total name -> registry counter name); prefixed entries
#: (trailing dot) are summed across the instrument family.
WATCHED_COUNTERS: dict[str, str] = {
    "h2d_bytes": "cuda.h2d_bytes",
    "d2h_bytes": "cuda.d2h_bytes",
    "h2d_copies": "cuda.h2d_copies",
    "d2h_copies": "cuda.d2h_copies",
    "stall_seconds": "cuda.stall_seconds",
    "kernel_launches": "cuda.kernel_launches",
    "api_calls": "cuda.api_calls",
    "faults_injected": "faults.injected",
    "retries": "faults.retries",
    "recovered": "faults.recovered",
    "hazards": "check.hazards",
    "cache_hits": "cache.hits.",
    "cache_misses": "cache.misses.",
    "cache_evictions": "cache.evictions.",
    "prefetch_issued": "cache.prefetch_issued.",
}

#: Trace decision marks counted per window (cumulative in totals).
WATCHED_MARKS: tuple[str, ...] = ("iteration", "fault-inject", "fault-retry", "hazard")


class _Activity:
    """Kernel, copy and all-activity unions of a trace, plus the
    kernel ∩ copy pieces, fed only the events recorded since last time.

    An event recorded late (``host_compute`` records its span after the
    clock advance that emitted samples inside it) re-merges from the
    first piece it touches, so totals move retroactively exactly as a
    from-scratch merge of the whole trace would.
    """

    def __init__(self) -> None:
        self.kernel = IntervalUnion()
        self.copy = IntervalUnion()
        self.active = IntervalUnion()
        self.overlap = IntervalUnion(start=0.0, compensated=False)

    def add(self, events: Iterable[Any]) -> None:
        changed = math.inf
        for e in events:
            if e.end <= e.start:
                continue
            if e.category == "kernel":
                changed = min(changed, self.kernel.add(e.start, e.end))
            elif e.category in ("h2d", "d2h"):
                changed = min(changed, self.copy.add(e.start, e.end))
            elif e.category != "host":
                continue
            self.active.add(e.start, e.end)
        if changed < math.inf:
            # pieces starting before `changed` come from unchanged spans
            self.overlap.replace_from(
                changed, intersection(self.kernel, self.copy, changed))

    def totals(self, t: float) -> tuple[float, float, float, float]:
        return (self.kernel.total(t), self.copy.total(t),
                self.overlap.total(t), self.active.total(t))


class TelemetrySubscriber:
    """Base class for bus subscribers; override any subset of hooks."""

    def bind(self, bus: "TelemetryBus") -> None:
        """Called once when added to a bus."""

    def on_sample(self, sample: "TelemetrySample") -> None:
        """Called for every emitted sample, in subscription order."""

    def on_alert(self, alert: Any) -> None:
        """Called when any subscriber publishes an alert via the bus."""

    def on_incident(self, trigger: dict[str, Any]) -> None:
        """Called when the runtime reports a fault/hazard incident."""

    def on_close(self, bus: "TelemetryBus") -> None:
        """Called when the session ends (after the final sample)."""


@dataclass(frozen=True)
class TelemetrySample:
    """One sampled window of a monitored run.

    ``totals`` are cumulative counter values at the sample boundary;
    ``deltas`` are the movement since the previous sample.  Rate fields
    that have no denominator in the window (no cache accesses, no
    overlap opportunity) are ``None`` rather than 0 so detectors can
    distinguish "healthy" from "no signal".
    """

    seq: int
    t: float
    dt: float
    totals: dict[str, float]
    deltas: dict[str, float]
    h2d_bytes_per_s: float
    d2h_bytes_per_s: float
    stall_fraction: float
    compute_fraction: float
    transfer_fraction: float
    cache_hit_rate: float | None
    overlap_efficiency: float | None
    queue_depth: float
    final: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "t": self.t,
            "dt": self.dt,
            "totals": dict(sorted(self.totals.items())),
            "deltas": dict(sorted(self.deltas.items())),
            "h2d_bytes_per_s": self.h2d_bytes_per_s,
            "d2h_bytes_per_s": self.d2h_bytes_per_s,
            "stall_fraction": self.stall_fraction,
            "compute_fraction": self.compute_fraction,
            "transfer_fraction": self.transfer_fraction,
            "cache_hit_rate": self.cache_hit_rate,
            "overlap_efficiency": self.overlap_efficiency,
            "queue_depth": self.queue_depth,
            "final": self.final,
        }


class TelemetryBus:
    """Samples a runtime's registry on a virtual-clock cadence.

    Parameters
    ----------
    sample_interval:
        Virtual seconds between sample boundaries.  One sample is
        emitted per crossed boundary (an advancement jumping several
        boundaries back-fills one sample per boundary), each window
        covering exactly ``sample_interval`` of virtual time.
    jsonl:
        Optional path of the ``repro-telemetry/1`` record stream
        (:class:`~repro.obs.records.RecordLog`): a ``session`` header,
        then every sample, alert and incident as it happens.
    enabled:
        ``False`` builds an inert bus: attach/close are no-ops and the
        clock is never subscribed, so the run is bit-for-bit identical
        to an unmonitored one.
    """

    def __init__(
        self,
        sample_interval: float = 1e-3,
        *,
        jsonl: str | Path | None = None,
        enabled: bool = True,
    ) -> None:
        if sample_interval <= 0:
            raise ObsError(f"sample_interval must be positive, got {sample_interval!r}")
        self.sample_interval = float(sample_interval)
        self.enabled = bool(enabled)
        self.samples: list[TelemetrySample] = []
        self.alerts: list[Any] = []
        self.incidents: list[dict[str, Any]] = []
        self._subscribers: list[TelemetrySubscriber] = []
        # records are built only when there is a file to append them to
        self._log = RecordLog(path=jsonl) if jsonl is not None else None
        self._clock = None
        self._metrics: MetricsRegistry | None = None
        self._trace = None
        self._checker = None
        self._compute_engines: list[Any] = []
        self._transfer_engines: list[Any] = []
        self._last_k = 0
        self._last_t = 0.0
        self._last_totals: dict[str, float] = {}
        self._mark_cursor = 0
        self._event_cursor = 0
        self._spans = _Activity()
        self._mark_totals: dict[str, float] = {m: 0.0 for m in WATCHED_MARKS}
        self._seq = 0
        self._in_sample = False
        self._closed = False

    # -- wiring -------------------------------------------------------------

    @property
    def attached(self) -> bool:
        return self._clock is not None

    def add_subscriber(self, subscriber: TelemetrySubscriber) -> TelemetrySubscriber:
        if subscriber not in self._subscribers:
            self._subscribers.append(subscriber)
            subscriber.bind(self)
        return subscriber

    def attach(self, target: Any) -> None:
        """Bind the bus to a runtime or multi-GPU group.

        ``target`` needs ``clock``/``metrics``/``trace`` plus either
        engines (``compute_engine``/``h2d_engine``/``d2h_engine``) or a
        ``devices`` sequence of runtimes.  Attaching twice to the same
        shared clock is a no-op (the multi-GPU group and its devices
        share one clock); attaching to a second clock is an error.
        """
        if not self.enabled:
            return
        if self._clock is not None:
            if self._clock is target.clock:
                return
            raise ObsError("TelemetryBus is already attached to another runtime")
        if self._closed:
            raise ObsError("cannot attach a closed TelemetryBus")
        self._clock = target.clock
        self._metrics = target.metrics
        self._trace = target.trace
        self._checker = getattr(target, "checker", None)
        devices = getattr(target, "devices", None) or (target,)
        seen: dict[int, Any] = {}
        for dev in devices:
            for eng, bucket in (
                (dev.compute_engine, self._compute_engines),
                (dev.h2d_engine, self._transfer_engines),
                (dev.d2h_engine, self._transfer_engines),
            ):
                if id(eng) not in seen:
                    seen[id(eng)] = eng
                    bucket.append(eng)
        self._last_t = self._clock.now
        self._last_k = int(math.floor(self._clock.now / self.sample_interval + 1e-12))
        self._last_totals = self._totals(self._clock.now)
        if self._log is not None:
            self._log.append({"kind": "session", "schema": "repro-telemetry/1",
                              "sample_interval": self.sample_interval,
                              "t0": self._clock.now})
        self._clock.subscribe(self._on_clock)

    def detach(self) -> None:
        if self._clock is not None:
            self._clock.unsubscribe(self._on_clock)
            self._clock = None

    # -- read-only views for subscribers ------------------------------------

    @property
    def now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    @property
    def trace(self):
        return self._trace

    @property
    def metrics(self) -> MetricsRegistry | None:
        return self._metrics

    @property
    def checker(self):
        return self._checker

    def engine_state(self) -> list[dict[str, Any]]:
        """Current tail/busy/op-count of every attached engine."""
        rows = []
        for kind, engines in (("compute", self._compute_engines),
                              ("transfer", self._transfer_engines)):
            for eng in engines:
                rows.append({
                    "name": eng.name,
                    "kind": kind,
                    "tail": eng.tail,
                    "busy_time": eng.busy_time,
                    "op_count": eng.op_count,
                })
        return rows

    # -- sampling -----------------------------------------------------------

    def _collect_totals(self) -> dict[str, float]:
        m = self._metrics
        totals: dict[str, float] = {}
        for key, name in WATCHED_COUNTERS.items():
            if name.endswith("."):
                totals[key] = m.sum_counters(name)
            else:
                totals[key] = m.value(name)
        if self._trace is not None:
            new = self._trace.marks_since(self._mark_cursor)
            if new:
                self._mark_cursor += len(new)
                for mark in new:
                    name = mark["name"]
                    if name in self._mark_totals:
                        self._mark_totals[name] += 1.0
        for name, count in self._mark_totals.items():
            totals[f"marks.{name}"] = count
        return totals

    def _totals(self, t: float) -> dict[str, float]:
        """Counter totals plus the trace activity clipped to ``t``."""
        totals = self._collect_totals()
        totals.update(zip(("compute_busy", "transfer_busy", "overlap_seconds",
                           "active_seconds"), self._activity(t)))
        return totals

    def _activity(self, t: float) -> tuple[float, float, float, float]:
        """Cumulative (compute_busy, transfer_busy, overlap, active)
        seconds, clipped to virtual time ``t``.

        Engine ``busy_time`` counters charge an operation's full duration
        at submission — including work scheduled beyond ``t`` — and the
        ``cuda.stall_seconds`` counter charges a blocking sync in full at
        the instant it begins, so window fractions derived from either
        overshoot or clump.  This reads the trace instead: kernel spans
        vs. h2d/d2h spans vs. host-compute spans, each clipped to ``t``,
        interval-merged, and (for overlap) intersected — exact per-window
        attribution no matter how far one advancement jumped.  Only the
        events recorded since the previous call are read; the unions
        they merge into keep running totals, so a sample costs a bisect
        and one addition per quantity.

        ``active`` is the union of engine *and* host-compute activity;
        ``t - active`` is dead time — the host blocked or backing off
        while nothing executes — which is what the stall-spike detector
        watches (a blocking sync over a busy engine is healthy draining,
        not a stall).
        """
        if self._trace is None:
            return (0.0, 0.0, 0.0, 0.0)
        new = self._trace.events_since(self._event_cursor)
        self._event_cursor += len(new)
        self._spans.add(new)
        return self._spans.totals(t)

    def _on_clock(self, now: float) -> None:
        if self._in_sample or self._closed:
            return
        k = int(math.floor(now / self.sample_interval + 1e-12))
        # one sample per crossed boundary: a blocking sync that jumps far
        # ahead still yields fixed-width windows, whose engine activity is
        # resolved retroactively from the trace (counters only move at
        # host API calls, so intermediate windows carry zero deltas)
        while self._last_k < k:
            self._last_k += 1
            self._emit(self._last_k * self.sample_interval, final=False)

    def _emit(self, t: float, *, final: bool) -> None:
        self._in_sample = True
        try:
            totals = self._totals(t)
            dt = t - self._last_t
            if dt <= 0:
                return
            deltas = {
                key: totals.get(key, 0.0) - self._last_totals.get(key, 0.0)
                for key in totals
            }
            cd = deltas.get("compute_busy", 0.0)
            td = deltas.get("transfer_busy", 0.0)
            od = deltas.get("overlap_seconds", 0.0)
            accesses = deltas.get("cache_hits", 0.0) + deltas.get("cache_misses", 0.0)
            hit_rate = deltas.get("cache_hits", 0.0) / accesses if accesses else None
            shorter = min(cd, td)
            if shorter > 1e-12:
                overlap_eff = min(max(od, 0.0) / shorter, 1.0)
            else:
                overlap_eff = None
            queue_depth = (
                self._metrics.max_gauge("cuda.", ".queue_depth")
                if self._metrics is not None else 0.0
            )
            sample = TelemetrySample(
                seq=self._seq,
                t=t,
                dt=dt,
                totals=totals,
                deltas=deltas,
                h2d_bytes_per_s=deltas.get("h2d_bytes", 0.0) / dt,
                d2h_bytes_per_s=deltas.get("d2h_bytes", 0.0) / dt,
                stall_fraction=min(
                    max(dt - deltas.get("active_seconds", 0.0), 0.0) / dt, 1.0
                ),
                compute_fraction=min(cd / dt, 1.0),
                transfer_fraction=min(td / dt, 1.0),
                cache_hit_rate=hit_rate,
                overlap_efficiency=overlap_eff,
                queue_depth=queue_depth,
                final=final,
            )
            self._seq += 1
            self._last_t = t
            self._last_totals = totals
            self.samples.append(sample)
            if self._log is not None:
                self._log.append({"kind": "sample", **sample.to_dict()})
            for sub in self._subscribers:
                sub.on_sample(sample)
        finally:
            self._in_sample = False

    # -- alerts and incidents ----------------------------------------------

    def publish_alert(self, alert: Any) -> None:
        """Record an alert and fan it out to every subscriber."""
        self.alerts.append(alert)
        if self._log is not None:
            payload = alert.to_dict() if hasattr(alert, "to_dict") else dict(alert)
            self._log.append({"kind": "alert", **payload})
        for sub in self._subscribers:
            sub.on_alert(alert)

    def notify_incident(
        self, kind: str, *, error: Exception | None = None,
        now: float | None = None, **info: Any,
    ) -> dict[str, Any]:
        """Report a hard failure (FaultError, strict HazardError, ...).

        Builds a structured trigger record, logs it, and fans it out so
        the flight recorder can dump a self-contained incident file.
        """
        trigger: dict[str, Any] = {
            "kind": kind,
            "t": (now if now is not None
                  else (self._clock.now if self._clock is not None else 0.0)),
            "error": type(error).__name__ if error is not None else None,
            "message": str(error) if error is not None else info.pop("message", ""),
        }
        trigger.update(info)
        self.incidents.append(trigger)
        if self._log is not None:
            # nested: the trigger's own "kind" (fault/hazard/...) must not
            # clobber the record kind
            self._log.append({"kind": "incident", "trigger": trigger})
        for sub in self._subscribers:
            sub.on_incident(trigger)
        return trigger

    # -- health and lifecycle ----------------------------------------------

    def health(self) -> dict[str, Any]:
        """One poll-friendly dict summarizing the monitored run so far."""
        severities = {"info": 0, "warning": 0, "critical": 0}
        for alert in self.alerts:
            sev = getattr(alert, "severity", None) or alert.get("severity", "info")
            severities[sev] = severities.get(sev, 0) + 1
        if self.incidents or severities["critical"]:
            status = "critical"
        elif severities["warning"]:
            status = "degraded"
        elif not self._seq:
            status = "idle"
        else:
            status = "ok"
        last = self.samples[-1] if self.samples else None
        return {
            "status": status,
            "monitored": self.enabled and self.attached,
            # after close() the clock is detached; the last sampled time
            # is still the honest "monitored up to" answer
            "now": self._clock.now if self._clock is not None else self._last_t,
            "sample_interval": self.sample_interval,
            "samples": self._seq,
            "alerts": severities,
            "incidents": len(self.incidents),
            "last_sample": last.to_dict() if last is not None else None,
        }

    def close(self) -> None:
        """Emit a final partial-window sample and end the session log."""
        if self._closed or not self.enabled:
            return
        if self._clock is not None and self._clock.now > self._last_t:
            self._emit(self._clock.now, final=True)
        self._closed = True
        self.detach()
        for sub in self._subscribers:
            sub.on_close(self)
        if self._log is not None:
            self._log.close()
