"""Online anomaly watchdog: rolling-window detectors over telemetry.

Each detector consumes the :class:`~repro.obs.live.bus.TelemetrySample`
stream and fires a structured :class:`Alert` when its rolling statistic
crosses a deterministic threshold.  All state is derived from sampled
virtual-time series, so the alert sequence for a given seed and fault
plan is byte-reproducible.

Detector catalog (defaults chosen so the nominal paper figure runs are
alert-free while the seeded degradation legs in ``repro.bench.live``
alert; see ``docs/OBSERVABILITY.md`` for the full table):

==================  =====================================================
``overlap_collapse``  EWMA of overlap efficiency stays below a floor
                      while transfers occupy a real share of each window.
``stall_spike``       Host stall fraction z-score spikes against the
                      rolling window baseline (and exceeds a floor).
``cache_thrash``      EWMA cache hit rate collapses while the run is
                      stall-bound — misses are no longer being hidden.
``retry_storm``       Fault retries in the rolling window exceed a
                      budget (critical at twice the budget).
``hazard_rate``       Hazard-warning marks keep accumulating.
``queue_runaway``     Per-stream queue depth grows monotonically past a
                      high-water threshold.
``tenant_starvation`` A backlogged service tenant scheduled zero quanta
                      across the whole window (armed by ``metrics=``).
``slo_burn``          A tenant's SLO error budget is burning at
                      multi-window alert rates (armed by ``slo=``).
==================  =====================================================

Every detector has a ``warmup`` (samples before it may fire) and a
``cooldown`` (virtual seconds between fires) so one sustained condition
produces a bounded alert stream instead of one alert per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .bus import TelemetryBus, TelemetrySample, TelemetrySubscriber

#: Severity levels in increasing order of badness.
SEVERITIES: tuple[str, ...] = ("info", "warning", "critical")

_SEVERITY_RANK = {name: i for i, name in enumerate(SEVERITIES)}


def severity_at_least(severity: str, threshold: str) -> bool:
    """True when ``severity`` is at or above ``threshold``."""
    try:
        return _SEVERITY_RANK[severity] >= _SEVERITY_RANK[threshold]
    except KeyError as exc:
        raise ValueError(
            f"unknown severity {exc.args[0]!r}; expected one of {SEVERITIES}"
        ) from None


@dataclass(frozen=True)
class Alert:
    """One watchdog detection.

    ``window`` is the (start, end) virtual-time span of samples the
    decision was based on; ``evidence`` carries the statistics that
    crossed the threshold, so an alert is auditable on its own.
    """

    detector: str
    severity: str
    t: float
    window: tuple[float, float]
    message: str
    evidence: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "t": self.t,
            "window": list(self.window),
            "message": self.message,
            "evidence": dict(sorted(self.evidence.items())),
        }


class _Ewma:
    """Exponentially weighted moving average over an irregular series."""

    __slots__ = ("alpha", "value", "n")

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.value: float | None = None
        self.n = 0

    def update(self, x: float) -> float:
        self.value = x if self.value is None else (
            self.alpha * x + (1.0 - self.alpha) * self.value
        )
        self.n += 1
        return self.value


class Detector:
    """Rolling-window detector base: warmup, cooldown, history ring."""

    name = "detector"

    def __init__(self, *, window: int = 8, warmup: int | None = None,
                 cooldown: float = 0.0) -> None:
        if window < 2:
            raise ValueError(f"{self.name}: window must be >= 2, got {window}")
        self.window = window
        self.warmup = window if warmup is None else warmup
        self.cooldown = cooldown
        self.history: list[TelemetrySample] = []
        self._seen = 0
        self._last_fire: float | None = None

    def update(self, sample: TelemetrySample) -> Alert | None:
        self.history.append(sample)
        if len(self.history) > self.window:
            del self.history[0]
        self._seen += 1
        self._observe(sample)
        if self._seen < self.warmup:
            return None
        if (self._last_fire is not None
                and sample.t - self._last_fire < self.cooldown):
            return None
        alert = self._evaluate(sample)
        if alert is not None:
            self._last_fire = sample.t
        return alert

    def _observe(self, sample: TelemetrySample) -> None:
        """Update rolling statistics (always runs, even during warmup)."""

    def _evaluate(self, sample: TelemetrySample) -> Alert | None:
        raise NotImplementedError

    def _window_span(self) -> tuple[float, float]:
        return (self.history[0].t - self.history[0].dt, self.history[-1].t)

    def _alert(self, severity: str, message: str, t: float,
               **evidence: Any) -> Alert:
        return Alert(
            detector=self.name,
            severity=severity,
            t=t,
            window=self._window_span(),
            message=message,
            evidence=evidence,
        )


class OverlapCollapseDetector(Detector):
    """Transfers stopped hiding behind compute.

    Tracks an EWMA of per-window overlap efficiency over *qualifying*
    windows — those where both engines did real work (transfer and
    compute fractions above ``min_busy_fraction``).  Fires when the EWMA
    sinks below ``min_efficiency`` (critical below half of it).
    """

    name = "overlap_collapse"

    def __init__(self, *, min_efficiency: float = 0.15,
                 min_busy_fraction: float = 0.15, alpha: float = 0.35,
                 window: int = 8, warmup: int | None = None,
                 cooldown: float = 0.0) -> None:
        super().__init__(window=window, warmup=warmup, cooldown=cooldown)
        self.min_efficiency = min_efficiency
        self.min_busy_fraction = min_busy_fraction
        self._ewma = _Ewma(alpha)

    def _observe(self, sample: TelemetrySample) -> None:
        if (sample.overlap_efficiency is not None
                and sample.transfer_fraction >= self.min_busy_fraction
                and sample.compute_fraction >= self.min_busy_fraction):
            self._ewma.update(sample.overlap_efficiency)

    def _evaluate(self, sample: TelemetrySample) -> Alert | None:
        if self._ewma.n < self.warmup or self._ewma.value is None:
            return None
        eff = self._ewma.value
        if eff >= self.min_efficiency:
            return None
        severity = "critical" if eff < self.min_efficiency / 2 else "warning"
        return self._alert(
            severity,
            f"overlap efficiency collapsed: EWMA {eff:.3f} < "
            f"{self.min_efficiency} over {self._ewma.n} busy windows",
            sample.t,
            ewma_efficiency=eff,
            threshold=self.min_efficiency,
            busy_windows=self._ewma.n,
            transfer_fraction=sample.transfer_fraction,
            compute_fraction=sample.compute_fraction,
        )


class StallSpikeDetector(Detector):
    """Host stall fraction spiked against its own rolling baseline.

    Computes the z-score of the newest window's stall fraction against
    the mean/std of the windows preceding the spike; fires once the
    condition — z-score above ``z_threshold``, absolute stall above
    ``min_stall``, and rise over baseline above ``min_rise`` — holds for
    ``consecutive`` windows in a row.  The persistence requirement keeps
    one-off dead windows (a run's final teardown, a lone barrier) quiet
    while hangs and backoff storms, which deaden many windows in a row,
    still fire.
    """

    name = "stall_spike"

    def __init__(self, *, z_threshold: float = 3.0, min_stall: float = 0.5,
                 min_rise: float = 0.25, consecutive: int = 2,
                 window: int = 12, warmup: int | None = None,
                 cooldown: float = 0.0) -> None:
        super().__init__(window=window, warmup=warmup, cooldown=cooldown)
        if consecutive < 1:
            raise ValueError(
                f"{self.name}: consecutive must be >= 1, got {consecutive}"
            )
        self.z_threshold = z_threshold
        self.min_stall = min_stall
        self.min_rise = min_rise
        self.consecutive = consecutive
        self._streak = 0

    def _evaluate(self, sample: TelemetrySample) -> Alert | None:
        spike = self._spiking(sample)
        if spike is None:
            self._streak = 0
            return None
        self._streak += 1
        if self._streak < self.consecutive:
            return None
        mean, std, z = spike
        return self._alert(
            "warning",
            f"stall spike: fraction {sample.stall_fraction:.3f} is "
            f"{'inf' if math.isinf(z) else format(z, '.1f')} sigma above "
            f"rolling mean {mean:.3f}",
            sample.t,
            stall_fraction=sample.stall_fraction,
            rolling_mean=mean,
            rolling_std=std,
            z_score=None if math.isinf(z) else z,
            threshold=self.z_threshold,
            min_rise=self.min_rise,
            streak=self._streak,
        )

    def _spiking(self, sample: TelemetrySample) -> tuple[float, float, float] | None:
        """(baseline mean, std, z) when this window spikes, else None."""
        if sample.stall_fraction < self.min_stall:
            return None
        # baseline excludes the current streak so a sustained spike keeps
        # comparing against the pre-spike level instead of itself
        cut = len(self.history) - 1 - self._streak
        baseline = [s.stall_fraction for s in self.history[:max(cut, 0) + 1][:-1]]
        if not baseline:
            baseline = [s.stall_fraction for s in self.history[:-1]]
        if not baseline:
            return None
        mean = sum(baseline) / len(baseline)
        # absolute rise gate: a near-constant series has tiny variance, so
        # an epsilon wiggle would z-spike without this floor
        if sample.stall_fraction - mean < self.min_rise:
            return None
        var = sum((x - mean) ** 2 for x in baseline) / len(baseline)
        std = math.sqrt(var)
        if std < 1e-9:
            z = float("inf")
        else:
            z = (sample.stall_fraction - mean) / std
        if z <= self.z_threshold:
            return None
        return (mean, std, z)


class CacheThrashDetector(Detector):
    """The tile cache stopped absorbing reuse and misses hurt.

    Fires when, over qualifying windows (at least ``min_accesses`` slot
    accesses), the EWMA hit rate drops below ``max_hit_rate`` *while*
    compute starves (EWMA compute fraction below
    ``max_compute_fraction``) and the link stays saturated (EWMA
    transfer fraction above ``min_transfer_fraction``).  A low hit rate
    alone is normal for capacity-streaming runs — the paper's Fig. 7/8
    pipeline misses on purpose and hides it behind compute; it is the
    starving GPU that distinguishes thrash.
    """

    name = "cache_thrash"

    def __init__(self, *, max_hit_rate: float = 0.05,
                 max_compute_fraction: float = 0.25,
                 min_transfer_fraction: float = 0.5,
                 min_accesses: float = 2.0, alpha: float = 0.35,
                 window: int = 8, warmup: int | None = None,
                 cooldown: float = 0.0) -> None:
        super().__init__(window=window, warmup=warmup, cooldown=cooldown)
        self.max_hit_rate = max_hit_rate
        self.max_compute_fraction = max_compute_fraction
        self.min_transfer_fraction = min_transfer_fraction
        self.min_accesses = min_accesses
        self._hit_ewma = _Ewma(alpha)
        self._compute_ewma = _Ewma(alpha)
        self._transfer_ewma = _Ewma(alpha)

    def _observe(self, sample: TelemetrySample) -> None:
        accesses = (sample.deltas.get("cache_hits", 0.0)
                    + sample.deltas.get("cache_misses", 0.0))
        if sample.cache_hit_rate is not None and accesses >= self.min_accesses:
            self._hit_ewma.update(sample.cache_hit_rate)
            self._compute_ewma.update(sample.compute_fraction)
            self._transfer_ewma.update(sample.transfer_fraction)

    def _evaluate(self, sample: TelemetrySample) -> Alert | None:
        if self._hit_ewma.n < self.warmup or self._hit_ewma.value is None:
            return None
        hit = self._hit_ewma.value
        compute = self._compute_ewma.value or 0.0
        transfer = self._transfer_ewma.value or 0.0
        if (hit > self.max_hit_rate
                or compute > self.max_compute_fraction
                or transfer < self.min_transfer_fraction):
            return None
        return self._alert(
            "warning",
            f"cache thrash: EWMA hit rate {hit:.3f} <= {self.max_hit_rate} "
            f"with compute starving ({compute:.3f} busy) behind transfers "
            f"({transfer:.3f} busy)",
            sample.t,
            ewma_hit_rate=hit,
            ewma_compute_fraction=compute,
            ewma_transfer_fraction=transfer,
            max_hit_rate=self.max_hit_rate,
            max_compute_fraction=self.max_compute_fraction,
            min_transfer_fraction=self.min_transfer_fraction,
            access_windows=self._hit_ewma.n,
        )


class RetryStormDetector(Detector):
    """Fault retries are burning the retry budget across the window."""

    name = "retry_storm"

    def __init__(self, *, max_retries: float = 3.0, window: int = 8,
                 warmup: int | None = 2, cooldown: float = 0.0) -> None:
        super().__init__(window=window, warmup=warmup, cooldown=cooldown)
        self.max_retries = max_retries

    def _evaluate(self, sample: TelemetrySample) -> Alert | None:
        retries = sum(s.deltas.get("retries", 0.0) for s in self.history)
        if retries < self.max_retries:
            return None
        severity = "critical" if retries >= 2 * self.max_retries else "warning"
        return self._alert(
            severity,
            f"retry storm: {retries:.0f} retries in the last "
            f"{len(self.history)} windows (budget {self.max_retries:.0f})",
            sample.t,
            retries=retries,
            budget=self.max_retries,
            windows=len(self.history),
            injected=sum(s.deltas.get("faults_injected", 0.0)
                         for s in self.history),
        )


class HazardRateDetector(Detector):
    """Hazard findings keep accumulating while the run executes."""

    name = "hazard_rate"

    def __init__(self, *, max_hazards: float = 2.0, window: int = 8,
                 warmup: int | None = 2, cooldown: float = 0.0) -> None:
        super().__init__(window=window, warmup=warmup, cooldown=cooldown)
        self.max_hazards = max_hazards

    def _evaluate(self, sample: TelemetrySample) -> Alert | None:
        hazards = sum(s.deltas.get("hazards", 0.0) for s in self.history)
        if hazards < self.max_hazards:
            return None
        return self._alert(
            "warning",
            f"hazard rate: {hazards:.0f} hazard findings in the last "
            f"{len(self.history)} windows (budget {self.max_hazards:.0f})",
            sample.t,
            hazards=hazards,
            budget=self.max_hazards,
            windows=len(self.history),
            total_hazards=sample.totals.get("hazards", 0.0),
        )


class QueueRunawayDetector(Detector):
    """Per-stream queue depth is growing without bound."""

    name = "queue_runaway"

    def __init__(self, *, min_depth: float = 256.0, growth: float = 2.0,
                 window: int = 8, warmup: int | None = None,
                 cooldown: float = 0.0) -> None:
        super().__init__(window=window, warmup=warmup, cooldown=cooldown)
        self.min_depth = min_depth
        self.growth = growth

    def _evaluate(self, sample: TelemetrySample) -> Alert | None:
        if sample.queue_depth < self.min_depth or len(self.history) < 2:
            return None
        depths = [s.queue_depth for s in self.history]
        monotone = all(b >= a for a, b in zip(depths, depths[1:]))
        base = max(depths[0], 1.0)
        if not monotone or depths[-1] < self.growth * base:
            return None
        return self._alert(
            "warning",
            f"queue runaway: stream depth grew {base:.0f} -> "
            f"{depths[-1]:.0f} over {len(depths)} windows",
            sample.t,
            depth=depths[-1],
            start_depth=depths[0],
            min_depth=self.min_depth,
            growth=self.growth,
        )


class TenantStarvationDetector(Detector):
    """A backlogged tenant is making no scheduling progress.

    The multi-tenant service publishes per-tenant progress counters
    (``service.tenant.<t>.quanta``) and backlog gauges
    (``service.tenant.<t>.backlog``) into the runtime's metrics registry
    — telemetry samples carry only aggregate engine counters, so this
    detector reads the registry directly.  It fires when some tenant has
    held a non-empty backlog across the whole window while its quantum
    counter never moved: the weighted-fair scheduler should never let
    that happen, so an alert means a QoS bug or a pathological admission
    stall.  Without a registry the detector is inert.
    """

    name = "tenant_starvation"

    def __init__(self, metrics=None, *, window: int = 8,
                 warmup: int | None = None, cooldown: float = 0.0) -> None:
        super().__init__(window=window, warmup=warmup, cooldown=cooldown)
        self.metrics = metrics
        self._progress: dict[str, list[tuple[float, float]]] = {}
        #: per-tenant observation counts: a tenant first observed
        #: mid-window has no baseline, so it must be watched for a full
        #: ``window`` of its *own* samples (not the detector's global
        #: warmup) before it may fire
        self._tenant_seen: dict[str, int] = {}

    def _tenants(self) -> list[str]:
        if self.metrics is None:
            return []
        head = len("service.tenant.")
        names = {c.name[head:-len(".quanta")] for c in
                 self.metrics.family("counter", "service.tenant.", ".quanta")}
        # quanta counters are created on first *scheduled* quantum, so a
        # fully starved tenant — the one this detector exists for — is
        # only visible through its backlog gauge
        names.update(g.name[head:-len(".backlog")] for g in
                     self.metrics.family("gauge", "service.tenant.", ".backlog"))
        return sorted(names)

    def _observe(self, sample: TelemetrySample) -> None:
        for tenant in self._tenants():
            quanta = self.metrics.value(f"service.tenant.{tenant}.quanta")
            backlog = self.metrics.max_gauge(f"service.tenant.{tenant}.backlog")
            ring = self._progress.setdefault(tenant, [])
            ring.append((quanta, backlog))
            if len(ring) > self.window:
                del ring[0]
            self._tenant_seen[tenant] = self._tenant_seen.get(tenant, 0) + 1

    def _evaluate(self, sample: TelemetrySample) -> Alert | None:
        for tenant, ring in sorted(self._progress.items()):
            if (len(ring) < self.window
                    or self._tenant_seen.get(tenant, 0) < self.window):
                continue
            backlogged = all(backlog > 0 for _, backlog in ring)
            stalled = ring[-1][0] <= ring[0][0]
            if backlogged and stalled:
                return self._alert(
                    "critical",
                    f"tenant starvation: {tenant!r} backlogged for "
                    f"{len(ring)} windows with zero scheduled quanta",
                    sample.t,
                    tenant=tenant,
                    backlog=ring[-1][1],
                    quanta=ring[-1][0],
                    windows=len(ring),
                )
        return None


def default_detectors(*, cooldown: float | None = None,
                      metrics=None, slo=None) -> list[Detector]:
    """The standard detector set with catalog-default thresholds.

    ``cooldown`` (virtual seconds) applies to every detector; ``None``
    picks a per-run-scale default of 0 (fire at most once per sample,
    bounded further by each detector's own cooldown if set later).
    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) arms the
    :class:`TenantStarvationDetector`; ``slo`` (a
    :class:`~repro.obs.slo.SloTracker`) arms the
    :class:`~repro.obs.slo.SloBurnDetector`.  Without them the
    multi-tenant detectors are omitted, keeping single-run watchdogs
    unchanged.
    """
    cd = 0.0 if cooldown is None else cooldown
    detectors: list[Detector] = [
        OverlapCollapseDetector(cooldown=cd),
        StallSpikeDetector(cooldown=cd),
        CacheThrashDetector(cooldown=cd),
        RetryStormDetector(cooldown=cd),
        HazardRateDetector(cooldown=cd),
        QueueRunawayDetector(cooldown=cd),
    ]
    if metrics is not None:
        detectors.append(TenantStarvationDetector(metrics, cooldown=cd))
    if slo is not None:
        from ..slo import SloBurnDetector
        detectors.append(SloBurnDetector(slo, cooldown=cd))
    return detectors


class Watchdog(TelemetrySubscriber):
    """Runs a detector set over the sample stream and publishes alerts.

    Alerts land on ``bus.alerts`` (and the JSONL session log) via
    :meth:`TelemetryBus.publish_alert`; the watchdog itself keeps only
    its detector state, so two watchdogs on one bus never double-count.
    """

    def __init__(self, detectors: list[Detector] | None = None) -> None:
        self.detectors = detectors if detectors is not None else default_detectors()
        self._bus: TelemetryBus | None = None

    def bind(self, bus: TelemetryBus) -> None:
        self._bus = bus

    def on_sample(self, sample: TelemetrySample) -> None:
        for det in self.detectors:
            alert = det.update(sample)
            if alert is not None:
                if self._bus is not None:
                    self._bus.publish_alert(alert)
