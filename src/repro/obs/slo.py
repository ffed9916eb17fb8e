"""Per-tenant SLO tracking: SLIs, error budgets, and burn-rate alerts.

The multi-tenant service (:mod:`repro.service`) stamps every job's
virtual-clock lifecycle — submit, admit, first quantum, last quantum,
drain — and reports the decomposition as a *service level indicator*
(:class:`JobSli`).  This module turns those SLIs into operability:

* **Declarative SLOs** (:class:`SloPolicy`): a latency target plus an
  objective fraction per tenant ("95% of t0's jobs finish within
  2 ms").  The *error budget* is the complement — the fraction of jobs
  allowed to miss the target.
* **Error-budget accounting** (:class:`SloTracker`): every finished job
  is classified good/bad against its tenant's target; the tracker keeps
  exact per-tenant counts, rolling good/bad windows, and the
  ``repro-slo/1`` record stream (``tracker.stream``, a
  :class:`~repro.obs.records.RecordLog` like the service session log).
* **Multi-window burn-rate detection**: the burn rate is the observed
  bad fraction divided by the allowed bad fraction (``1 - objective``);
  a tenant enters the *burning* state when both a fast (recent jobs)
  and a slow (longer history) window exceed their thresholds — the
  standard fast-burn/slow-burn pairing that ignores one-off misses but
  catches sustained overload — and leaves it with hysteresis only once
  *both* windows recover below ``exit_burn``, so a handful of lucky
  jobs cannot flap the state off while the miss history is still hot.
* **SLO-aware backpressure**: while any tenant burns, the service can
  consult :meth:`SloTracker.burning` from an
  :class:`~repro.service.admission.AdmissionController` hook and defer
  best-effort admissions until the protected tenant's budget recovers
  (``Service(slo=..., backpressure=True)``).
* **Live-watchdog integration** (:class:`SloBurnDetector`): mirrors the
  tracker's burning state into the telemetry alert stream so ``obs
  .watch`` and the flight recorder see SLO burns next to overlap
  collapses and retry storms.

Everything is driven by the virtual clock and job-completion order, so
for a given seed the SLI stream, budget ledger, and alert sequence are
byte-reproducible — and *tracking* never touches the clock, so a
monitored run stays byte-identical to an unmonitored one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable, Mapping

from .live.watchdog import Alert, Detector
from .metrics import ObsError
from .records import RecordLog

#: Schema tag of the SLO JSONL stream header line.
SCHEMA = "repro-slo/1"

#: Histogram buckets for sub-second latency phases: quarter-decade log
#: spacing from 1 microsecond to 100 seconds, so streaming p50/p95/p99
#: interpolation stays tight at simulated-latency scales (the default
#: power-of-4 buckets lump every job into one bucket).
LATENCY_BUCKETS: tuple[float, ...] = tuple(
    1e-6 * (10.0 ** (k / 4.0)) for k in range(33)
)


@dataclass(frozen=True)
class SloPolicy:
    """A declarative per-tenant latency SLO.

    ``objective`` is the fraction of jobs that must finish within
    ``target`` (virtual seconds); the error budget is ``1 - objective``.
    The window sizes are *job counts* (not wall time): virtual-clock
    load is bursty and job-indexed windows keep the detector
    deterministic under replay.  Burn thresholds are multiples of the
    allowed bad rate — ``fast_burn=8`` means the recent window misses
    eight times faster than the budget allows.  A burn starts when both
    windows exceed their thresholds and stops only when both drop below
    ``exit_burn`` (hysteresis on the slow window prevents flapping).
    """

    tenant: str
    target: float
    objective: float = 0.95
    fast_window: int = 4
    slow_window: int = 16
    fast_burn: float = 8.0
    slow_burn: float = 2.0
    exit_burn: float = 1.0

    def __post_init__(self) -> None:
        if self.target <= 0.0:
            raise ObsError(f"SLO target must be > 0, got {self.target!r}")
        if not 0.0 < self.objective < 1.0:
            raise ObsError(
                f"SLO objective must be in (0, 1), got {self.objective!r}")
        if self.fast_window < 1 or self.slow_window < self.fast_window:
            raise ObsError(
                "SLO windows need 1 <= fast_window <= slow_window, got "
                f"{self.fast_window}/{self.slow_window}")
        if self.fast_burn <= 0 or self.slow_burn <= 0 or self.exit_burn <= 0:
            raise ObsError("SLO burn thresholds must be > 0")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class JobSli:
    """One finished job's latency decomposition (the SLI record).

    The four phases tile the latency: ``queue_wait`` (submit→admit,
    including deferral), ``start_delay`` (admit→first quantum),
    ``execute`` (first→last quantum), ``drain`` (last quantum→final
    write-back completion).
    """

    job: str
    tenant: str
    t: float                    # finish (drain-end) virtual time
    latency: float
    queue_wait: float
    start_delay: float
    execute: float
    drain: float


def _pct(sorted_values: list[float], q: float) -> float | None:
    """Exact linear-interpolation quantile of an ascending list."""
    if not sorted_values:
        return None
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


class SloTracker:
    """Error-budget accounting and burn-rate detection over job SLIs.

    ``policies`` is an iterable of :class:`SloPolicy` (or a mapping of
    tenant name to policy / bare latency target).  Tenants without a
    policy still get their SLIs recorded in the JSONL stream; only
    policy tenants participate in budgets and burn alerts.
    """

    def __init__(self, policies: Iterable[SloPolicy] | Mapping[str, Any],
                 *, metrics=None) -> None:
        norm: dict[str, SloPolicy] = {}
        if isinstance(policies, Mapping):
            for tenant, pol in policies.items():
                if not isinstance(pol, SloPolicy):
                    pol = SloPolicy(tenant=tenant, target=float(pol))
                norm[tenant] = pol
        else:
            for pol in policies:
                norm[pol.tenant] = pol
        self.policies = norm
        self.metrics = metrics
        self.alerts: list[Alert] = []
        self._jobs: dict[str, int] = {}
        self._bad: dict[str, int] = {}
        self._window: dict[str, list[bool]] = {}   # True = violated target
        self._times: dict[str, list[float]] = {}   # finish times, same ring
        self._latencies: dict[str, list[float]] = {}
        self._burning: set[str] = set()
        #: The ``repro-slo/1`` stream: one ``sli`` record per observed job
        #: and one ``burn`` record per burning-state change.
        self.stream = RecordLog({
            "kind": "header", "schema": SCHEMA,
            "policies": {t: pol.to_dict() for t, pol in norm.items()},
        })

    # -- observation --------------------------------------------------------

    def observe(self, sli: JobSli) -> list[Alert]:
        """Account one finished job; returns any newly fired burn alerts."""
        self.stream.emit("sli", **vars(sli))
        self._latencies.setdefault(sli.tenant, []).append(sli.latency)
        pol = self.policies.get(sli.tenant)
        if pol is None:
            return []
        bad = sli.latency > pol.target
        self._jobs[sli.tenant] = self._jobs.get(sli.tenant, 0) + 1
        if bad:
            self._bad[sli.tenant] = self._bad.get(sli.tenant, 0) + 1
            if self.metrics is not None:
                self.metrics.inc("service.slo.violations")
                self.metrics.inc(f"service.slo.{sli.tenant}.violations")
        ring = self._window.setdefault(sli.tenant, [])
        times = self._times.setdefault(sli.tenant, [])
        ring.append(bad)
        times.append(sli.t)
        if len(ring) > pol.slow_window:
            del ring[0]
            del times[0]
        fast, slow = self.burn_rates(sli.tenant)
        budget = self.error_budget(sli.tenant)
        if self.metrics is not None:
            self.metrics.set_gauge(f"service.slo.{sli.tenant}.burn_fast", fast)
            self.metrics.set_gauge(f"service.slo.{sli.tenant}.burn_slow", slow)
            self.metrics.set_gauge(
                f"service.slo.{sli.tenant}.budget_remaining",
                budget["remaining_fraction"],
            )
        fired: list[Alert] = []
        if sli.tenant not in self._burning:
            armed = self._jobs[sli.tenant] >= pol.fast_window
            if armed and fast >= pol.fast_burn and slow >= pol.slow_burn:
                self._burning.add(sli.tenant)
                alert = self._burn_alert(sli.tenant, pol, fast, slow, sli.t)
                self.alerts.append(alert)
                fired.append(alert)
                self._emit_burn(sli.tenant, "start", fast, slow, sli.t)
                if self.metrics is not None:
                    self.metrics.inc("service.slo.alerts")
        elif fast < pol.exit_burn and slow < pol.exit_burn:
            # hysteresis on BOTH windows: a clean fast window alone would
            # re-admit the overload the moment a few jobs squeak by, and
            # the resulting flap costs the protected tenant a slow job
            # per cycle — the slow window keeps the state latched until
            # the miss history actually ages out
            self._burning.discard(sli.tenant)
            self._emit_burn(sli.tenant, "stop", fast, slow, sli.t)
        return fired

    def _burn_alert(self, tenant: str, pol: SloPolicy, fast: float,
                    slow: float, t: float) -> Alert:
        times = self._times.get(tenant, [t])
        window = (times[max(len(times) - pol.fast_window, 0)], t)
        return Alert(
            detector="slo_burn",
            severity="critical",
            t=t,
            window=window,
            message=(
                f"tenant {tenant!r} burning its error budget: fast "
                f"{fast:.1f}x / slow {slow:.1f}x the allowed miss rate "
                f"(target {pol.target:g}s at {pol.objective:.0%})"
            ),
            evidence={
                "tenant": tenant, "burn_fast": fast, "burn_slow": slow,
                "target": pol.target, "objective": pol.objective,
                "jobs": self._jobs.get(tenant, 0),
                "violations": self._bad.get(tenant, 0),
            },
        )

    def _emit_burn(self, tenant: str, state: str, fast: float, slow: float,
                   t: float) -> None:
        self.stream.emit("burn", t, tenant=tenant, state=state,
                         burn_fast=fast, burn_slow=slow)

    # -- queries ------------------------------------------------------------

    def burn_rates(self, tenant: str) -> tuple[float, float]:
        """(fast, slow) burn rates: window bad fraction / allowed fraction."""
        pol = self.policies.get(tenant)
        ring = self._window.get(tenant, [])
        if pol is None or not ring:
            return (0.0, 0.0)
        allowed = 1.0 - pol.objective

        def rate(window: int) -> float:
            tail = ring[-window:]
            return (sum(tail) / len(tail)) / allowed

        return (rate(pol.fast_window), rate(pol.slow_window))

    def error_budget(self, tenant: str) -> dict[str, float]:
        """The tenant's budget ledger over every observed job.

        ``allowed`` is how many misses the objective permits so far,
        ``burned`` how many happened; ``remaining_fraction`` is 1 with
        no misses and can go negative when overdrawn.
        """
        pol = self.policies.get(tenant)
        jobs = self._jobs.get(tenant, 0)
        burned = float(self._bad.get(tenant, 0))
        allowed = (1.0 - pol.objective) * jobs if pol is not None else 0.0
        if allowed > 0.0:
            remaining = 1.0 - burned / allowed
        else:
            remaining = 1.0 if burned == 0.0 else 0.0
        return {"jobs": float(jobs), "allowed": allowed, "burned": burned,
                "remaining_fraction": remaining}

    def burning(self) -> frozenset[str]:
        """Tenants currently in the burning state."""
        return frozenset(self._burning)

    def backpressure_active(self) -> bool:
        return bool(self._burning)

    def release_backpressure(self) -> bool:
        """Force-exit every burning state (service idle-escape hatch).

        The service calls this when nothing is running, nothing is
        draining, and only backpressured jobs remain: with the protected
        tenants idle there is no one left to protect, so holding
        best-effort jobs any longer would deadlock the queue.  Returns
        True when any state was cleared.
        """
        if not self._burning:
            return False
        for tenant in sorted(self._burning):
            fast, slow = self.burn_rates(tenant)
            times = self._times.get(tenant) or [0.0]
            self._emit_burn(tenant, "release", fast, slow, times[-1])
        self._burning.clear()
        if self.metrics is not None:
            self.metrics.inc("service.slo.backpressure_released")
        return True

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe per-tenant rollup (policies, budget, burn, percentiles)."""
        tenants: dict[str, Any] = {}
        names = sorted(set(self.policies) | set(self._latencies))
        for tenant in names:
            pol = self.policies.get(tenant)
            lats = sorted(self._latencies.get(tenant, []))
            fast, slow = self.burn_rates(tenant)
            tenants[tenant] = {
                "policy": pol.to_dict() if pol is not None else None,
                "budget": self.error_budget(tenant),
                "burn_fast": fast,
                "burn_slow": slow,
                "burning": tenant in self._burning,
                "latency": {
                    "count": len(lats),
                    "p50": _pct(lats, 0.50),
                    "p95": _pct(lats, 0.95),
                    "p99": _pct(lats, 0.99),
                },
            }
        return {
            "schema": SCHEMA,
            "tenants": tenants,
            "alerts": [a.to_dict() for a in self.alerts],
        }



class SloBurnDetector(Detector):
    """Mirror :class:`SloTracker` burning state into the live watchdog.

    The tracker itself fires exact, job-indexed alerts at the moment a
    budget starts burning; this detector re-surfaces the *state* on the
    telemetry sample stream so burns appear in ``obs.watch``, the flight
    recorder, and ``TelemetryBus.health()`` alongside the engine-level
    detectors.  It fires once per transition (new tenants joining the
    burning set re-fire it) and resets when every budget recovers.
    """

    name = "slo_burn"

    def __init__(self, tracker: SloTracker, *, window: int = 2,
                 warmup: int | None = 1, cooldown: float = 0.0) -> None:
        super().__init__(window=window, warmup=warmup, cooldown=cooldown)
        self.tracker = tracker
        self._announced: frozenset[str] = frozenset()

    def _evaluate(self, sample) -> Alert | None:
        burning = self.tracker.burning()
        if not burning:
            self._announced = frozenset()
            return None
        if burning <= self._announced:
            return None
        self._announced = burning
        tenants = sorted(burning)
        rates = {t: self.tracker.burn_rates(t) for t in tenants}
        return self._alert(
            "critical",
            "SLO error budget burning for tenant(s) "
            + ", ".join(f"{t!r}" for t in tenants),
            sample.t,
            tenants=tenants,
            burn_fast={t: r[0] for t, r in rates.items()},
            burn_slow={t: r[1] for t, r in rates.items()},
        )
