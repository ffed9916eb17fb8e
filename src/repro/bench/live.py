"""The ``live`` leg of :mod:`repro.bench.gate`: live telemetry.

Runs a fixed set of workload legs, each monitored end-to-end by the
:mod:`repro.obs.live` stack — a :class:`TelemetryBus` sampling on the
virtual clock, the default :class:`Watchdog` detector set, and a
:class:`FlightRecorder` ready to dump an incident — and checks the
telemetry behaves as specified:

* the four **nominal** legs (the paper's Fig. 5/6 configurations, a
  limited-slot streaming run, and the multi-GPU heat solver) must finish
  with **zero** watchdog alerts;
* each **degraded** leg (prefetch-disabled single-slot overlap collapse,
  single-slot cache thrash, a seeded launch-fault retry storm) must
  raise at least its expected alert class;
* the **incident** leg arms an always-fire h2d fault with a tiny retry
  budget, so the run dies with :class:`~repro.errors.FaultError` — and
  must leave a flight-recorder ``incident.json`` behind.

Every broken expectation is a floor miss.  Next to the manifest, which
carries per-leg ``legs`` entries, all ``alerts`` (each annotated with
its leg) and per-leg ``health``, the leg writes:

* ``telemetry_<leg>.jsonl`` — each leg's full session stream (the input
  of ``python -m repro.obs.watch``);
* ``incidents_<leg>/incident*.json`` — flight-recorder dumps.

Everything runs on the virtual clock with fixed seeds, so the whole
output set is byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..errors import FaultError
from ..faults import FaultPlan, FaultRule, RetryPolicy
from ..obs.live import FlightRecorder, TelemetryBus, Watchdog, default_detectors
from .report import LegResult, Table

#: Shared grid for every leg: small enough for CI, large enough that the
#: per-window statistics clear every detector's warmup.
SHAPE = (128, 128, 128)


@dataclass(frozen=True)
class Leg:
    """One monitored workload: runner + telemetry expectations."""

    name: str
    interval: float
    run: Callable[[TelemetryBus], Any]
    #: alert classes that must appear (subset semantics); empty for
    #: nominal legs, where *any* alert is a failure
    expect_alerts: frozenset[str] = frozenset()
    nominal: bool = True
    #: error type the leg must die with (None = must finish cleanly)
    expect_error: type[BaseException] | None = None
    #: leg must leave at least one flight-recorder incident dump behind
    expect_incident: bool = False


def _legs() -> list[Leg]:
    from ..baselines.tida_runners import run_tida_compute, run_tida_heat
    from ..multi.heat import run_multi_gpu_heat

    return [
        Leg("nominal_heat", 1e-4,
            lambda t: run_tida_heat(shape=SHAPE, steps=6, n_regions=8,
                                    functional=False, telemetry=t)),
        Leg("nominal_compute", 2e-4,
            lambda t: run_tida_compute(shape=SHAPE, steps=3, n_regions=8,
                                       functional=False, telemetry=t)),
        Leg("nominal_streaming", 2e-4,
            lambda t: run_tida_compute(shape=SHAPE, steps=3, n_regions=16,
                                       n_slots=4, prefetch_depth=2,
                                       functional=False, telemetry=t)),
        Leg("nominal_multi", 1e-4,
            lambda t: run_multi_gpu_heat(shape=SHAPE, steps=4, n_devices=2,
                                         regions_per_device=4,
                                         functional=False, telemetry=t)),
        Leg("overlap_collapse", 2e-4,
            lambda t: run_tida_compute(shape=SHAPE, steps=3, n_regions=16,
                                       n_slots=1, prefetch_depth=0,
                                       functional=False, telemetry=t),
            expect_alerts=frozenset({"overlap_collapse"}), nominal=False),
        Leg("cache_thrash", 2e-4,
            lambda t: run_tida_heat(shape=SHAPE, steps=6, n_regions=8,
                                    n_slots=1, prefetch_depth=0,
                                    functional=False, telemetry=t),
            expect_alerts=frozenset({"cache_thrash"}), nominal=False),
        Leg("retry_storm", 1e-3,
            lambda t: run_tida_compute(
                shape=SHAPE, steps=3, n_regions=8,
                faults=FaultPlan.from_spec("launch:p=0.3; seed=11"),
                retry=RetryPolicy(max_attempts=6),
                functional=False, telemetry=t),
            expect_alerts=frozenset({"retry_storm"}), nominal=False),
        Leg("incident_fault", 1e-3,
            lambda t: run_tida_heat(
                shape=SHAPE, steps=2, n_regions=4,
                faults=FaultPlan([FaultRule(op="h2d")]),
                retry=RetryPolicy(max_attempts=2),
                functional=False, telemetry=t),
            nominal=False, expect_error=FaultError, expect_incident=True),
    ]


def run_leg(leg: Leg, out_dir: Path) -> dict[str, Any]:
    """Run one leg under full telemetry; returns its manifest entry."""
    jsonl = out_dir / f"telemetry_{leg.name}.jsonl"
    incident_dir = out_dir / f"incidents_{leg.name}"
    bus = TelemetryBus(sample_interval=leg.interval, jsonl=jsonl)
    bus.add_subscriber(Watchdog(default_detectors(cooldown=10 * leg.interval)))
    recorder = bus.add_subscriber(
        FlightRecorder(incident_dir=incident_dir, min_severity=None)
    )
    error: BaseException | None = None
    try:
        leg.run(bus)
    except Exception as exc:  # the incident leg dies on purpose
        error = exc
    finally:
        bus.close()

    observed = sorted({a.detector for a in bus.alerts})
    problems: list[str] = []
    if leg.nominal and bus.alerts:
        problems.append(f"nominal leg raised alerts: {observed}")
    missing = leg.expect_alerts - set(observed)
    if missing:
        problems.append(f"expected alert class(es) never fired: {sorted(missing)}")
    if leg.expect_error is None:
        if error is not None:
            problems.append(f"leg died with {type(error).__name__}: {error}")
    elif not isinstance(error, leg.expect_error):
        problems.append(
            f"expected {leg.expect_error.__name__}, got "
            f"{type(error).__name__ if error else 'no error'}"
        )
    if leg.expect_incident and not recorder.incident_paths:
        problems.append("no incident.json was dumped")

    return {
        "leg": leg.name,
        "nominal": leg.nominal,
        "sample_interval": leg.interval,
        "samples": len(bus.samples),
        "alerts": [dict(a.to_dict(), leg=leg.name) for a in bus.alerts],
        "observed_detectors": observed,
        "expected_detectors": sorted(leg.expect_alerts),
        "health": bus.health(),
        "telemetry": str(jsonl),
        "incidents": [str(p) for p in recorder.incident_paths],
        "error": type(error).__name__ if error is not None else None,
        "problems": problems,
    }


def _manifest(entries: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "legs": {e["leg"]: e for e in entries},
        "alerts": [a for e in entries for a in e["alerts"]],
        "health": {e["leg"]: e["health"] for e in entries},
    }


def run(out_dir: Path) -> LegResult:
    """Run every live leg; its telemetry and incidents land in ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = [run_leg(leg, out_dir) for leg in _legs()]

    table = Table(
        title="live telemetry legs",
        columns=["leg", "samples", "alerts", "observed", "expected",
                 "incidents", "verdict"],
    )
    for e in entries:
        table.add_row(
            e["leg"], e["samples"], len(e["alerts"]),
            ",".join(e["observed_detectors"]) or "-",
            ",".join(e["expected_detectors"]) or
            ("(none)" if e["nominal"] else "-"),
            len(e["incidents"]), "FAIL" if e["problems"] else "ok",
        )
    print(table.format())
    return LegResult(
        raw=_manifest(entries),
        floor_misses=[f"{e['leg']}: {p}" for e in entries for p in e["problems"]],
    )
