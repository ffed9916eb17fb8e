"""The ``slo`` leg of :mod:`repro.bench.gate`.

The operability spine of the multi-tenant service (see
:mod:`repro.obs.slo`): three legs over seeded deterministic load.

* **nominal** — the :mod:`repro.bench.service_bench` 8-tenant
  contention mix with generous per-tenant SLOs.  Conformance: the
  monitored session log is **byte-identical** to the unmonitored one
  (tracking never touches the clock), re-running produces a
  byte-identical ``repro-slo/1`` stream, and no tenant burns any error
  budget (``nominal_slo_hit_rate == 1``).
* **blame** — every job of the nominal leg is decomposed with
  :func:`~repro.obs.critpath.blame_decomposition` against its solo
  replay; the six components must sum to the observed mux-vs-solo delta
  within ``BLAME_TOLERANCE`` on every job (``blame_exact_hit_rate``).
* **overload** — a priority tenant with a tight SLO shares the device
  with a best-effort flood.  Without backpressure its p95 blows through
  the target and the tracker fires a burn-rate alert; with
  ``Service(backpressure=True)`` the alert defers best-effort
  admissions and the priority jobs admitted under backpressure run
  back under the target (p95), while the deferral counter proves
  best-effort actually waited.

Session/SLI drift, racy hazards and inexact blame are conformance
failures; no burn alert, no recovery, no deferrals or a speedup below
the floor are floor misses.  Raw values live under the manifest's
ungated ``"slo_bench"`` key, and the full SLO snapshots and blame rows
land under ``"slo"`` / ``"blame"`` for ``obs.report --slo/--blame``.
The per-tenant nominal p95s are emitted as
``bench.slo.tenant.<t>.p95_ms`` counters and gated by the committed
baseline through one wildcard pattern (``bench.slo.tenant.*.p95_ms``),
exercising the compare gate's dynamic-key expansion.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..obs.critpath import blame_decomposition, blame_summary
from ..obs.slo import SloPolicy
from ..service import Service, run_solo
from .report import LegResult
from .service_bench import (
    TENANTS,
    TOTAL_SLOTS,
    _p95,
    _run_leg,
    _service,
    _submit_all,
    arrivals,
)

#: Nominal-leg SLO: far above any healthy latency in the committed mix,
#: so a burned budget means latencies moved by orders of magnitude.
NOMINAL_TARGET = 0.05
NOMINAL_OBJECTIVE = 0.95

#: |components sum - delta| bound for the blame exactness check.
BLAME_TOLERANCE = 1e-9

#: Clamp bounds for the gated counters — chosen past what the committed
#: configuration measures, so the baseline sits exactly at the bound.
#: Do not change without regenerating BENCH_slo.json.
BOUNDS = {
    "bench.slo.nominal_slo_hit_rate": 1.0,
    "bench.slo.blame_exact_hit_rate": 1.0,
    "bench.slo.overload_detection_hits": 1.0,
    "bench.slo.backpressure_p95_speedup": 2.0,
    "bench.slo.tenant.*.p95_ms": 6.5,
}

#: Hard floors.
BACKPRESSURE_SPEEDUP_FLOOR = 1.1

#: The overload mix: one tight-SLO priority tenant submitting a steady
#: stream of small jobs while four best-effort tenants flood the device
#: with compute-heavy jobs.  Tuned so the priority tenant violates its
#: target under the flood but comfortably meets it once backpressure
#: defers the flood.
OVERLOAD_PRIO = "prio"
OVERLOAD_BG = ("bg0", "bg1", "bg2", "bg3")
OVERLOAD_PRIO_KW: dict[str, Any] = {"shape": (16, 8, 8), "steps": 1}
OVERLOAD_BG_KW: dict[str, Any] = {
    "shape": (16, 8, 8), "steps": 2, "kernel_iteration": 1024,
}
OVERLOAD_N_PRIO = 16
OVERLOAD_PRIO_GAP = 3e-4
OVERLOAD_N_BG = 24
OVERLOAD_BG_GAP = 1.5e-4
#: ``slow_window == OVERLOAD_N_PRIO``: the early misses that trip the
#: detector never age out of the slow window within the run, so (with
#: the both-windows exit rule) the burn state stays latched and the
#: flood stays deferred instead of flapping back in every few jobs.
OVERLOAD_POLICY = SloPolicy(
    tenant=OVERLOAD_PRIO, target=3e-4, objective=0.90,
    fast_window=3, slow_window=16,
    fast_burn=3.0, slow_burn=2.0, exit_burn=0.5,
)


def _run_nominal_leg(policies: dict[str, float]):
    """The service_bench contention mix with SLO tracking armed."""
    svc = _service("fair", slo=policies)
    jobs = _submit_all(svc, arrivals())
    report = svc.run()
    session = svc.session.to_bytes()
    slo_bytes = svc.slo.stream.to_bytes()
    snapshot = svc.slo.snapshot()
    tenant_p95 = {
        t: info["latency_p95"] for t, info in report.tenants.items()
    }
    svc.close()
    return report, jobs, session, slo_bytes, snapshot, tenant_p95


def _run_overload_leg(*, backpressure: bool):
    svc = Service(total_slots=TOTAL_SLOTS, scheduler="fair",
                  slo=[OVERLOAD_POLICY], backpressure=backpressure)
    svc.add_tenant(OVERLOAD_PRIO, 2.0, priority=True)
    for t in OVERLOAD_BG:
        svc.add_tenant(t, 1.0)
    for k in range(OVERLOAD_N_PRIO):
        svc.submit(OVERLOAD_PRIO, workload="heat", at=k * OVERLOAD_PRIO_GAP,
                   workload_kwargs=dict(OVERLOAD_PRIO_KW, seed=k))
    for i, t in enumerate(OVERLOAD_BG):
        for k in range(OVERLOAD_N_BG):
            svc.submit(t, workload="compute",
                       at=1e-5 * (i + 1) + k * OVERLOAD_BG_GAP,
                       workload_kwargs=dict(OVERLOAD_BG_KW, seed=100 + k))
    report = svc.run()
    tracker = svc.slo
    deferrals = svc.metrics.value("service.slo.backpressure_deferrals")
    svc.close()
    return report, tracker, deferrals


def _blame_rows(report, jobs) -> tuple[list[dict[str, Any]], list[str]]:
    """Blame every nominal-leg job against its solo replay."""
    failures: list[str] = []
    rows: list[dict[str, Any]] = []
    for jid, a in jobs.items():
        solo = run_solo(a.tenant, workload=a.workload,
                        workload_kwargs=dict(a.kwargs, seed=a.seed),
                        total_slots=TOTAL_SLOTS)
        if report.jobs[jid].digests != solo.digests:
            failures.append(f"blame/{jid}: digests diverge from solo run")
            continue
        row = blame_decomposition(report.jobs[jid].timeline, solo.timeline)
        row["job"] = jid
        row["tenant"] = a.tenant
        rows.append(row)
        if abs(row["residual"]) > BLAME_TOLERANCE:
            failures.append(
                f"blame/{jid}: residual {row['residual']:.3e} exceeds "
                f"{BLAME_TOLERANCE:.0e} (components do not sum to delta)")
    return rows, failures


def run(out_dir: Path) -> LegResult:
    failures: list[str] = []

    # -- nominal: monitored == unmonitored, zero burn --------------------
    arr = arrivals()
    _plain_rep, _plain_jobs, plain_session = _run_leg("fair", arr)
    policies = {t: NOMINAL_TARGET for t in TENANTS}
    (nom_rep, nom_jobs, nom_session, nom_slo_bytes, nom_snapshot,
     tenant_p95) = _run_nominal_leg(policies)
    if nom_session != plain_session:
        failures.append("nominal: monitored session differs from unmonitored")
    if nom_rep.racy_hazards:
        failures.append(f"nominal: {nom_rep.racy_hazards} racy hazards")
    (_rep2, _jobs2, session2, slo_bytes2, _snap2, _p2) = _run_nominal_leg(
        policies)
    if session2 != nom_session or slo_bytes2 != nom_slo_bytes:
        failures.append("nominal: same-seed rerun session/SLI streams differ")

    burned = sum(
        info["budget"]["burned"] for info in nom_snapshot["tenants"].values()
    )
    total_jobs = sum(
        info["budget"]["jobs"] for info in nom_snapshot["tenants"].values()
    )
    hit_rate = 1.0 - (burned / total_jobs if total_jobs else 0.0)

    # -- blame: exact decomposition against solo replays -----------------
    blame_jobs, blame_failures = _blame_rows(nom_rep, nom_jobs)
    failures.extend(blame_failures)
    summary = blame_summary(blame_jobs)
    blame_hit_rate = (
        sum(1 for r in blame_jobs if abs(r["residual"]) <= BLAME_TOLERANCE)
        / len(blame_jobs) if blame_jobs else 0.0
    )

    # -- overload: burn alert fires, backpressure recovers p95 -----------
    over_rep, over_tracker, _ = _run_overload_leg(backpressure=False)
    bp_rep, bp_tracker, bp_deferrals = _run_overload_leg(backpressure=True)
    for leg, rep in (("overload", over_rep), ("backpressure", bp_rep)):
        if rep.racy_hazards:
            failures.append(f"{leg}: {rep.racy_hazards} racy hazards")

    p95_over = _p95(over_rep.latencies(OVERLOAD_PRIO))
    p95_bp = _p95(bp_rep.latencies(OVERLOAD_PRIO))
    speedup = p95_over / p95_bp if p95_bp else 0.0
    alerts_nobp = len(over_tracker.alerts)
    alerts_bp = len(bp_tracker.alerts)
    # recovery: priority jobs ADMITTED after the first burn alert must
    # be back under target — admission is what the backpressure hook
    # governs; jobs already in flight when the alert fires (and the
    # flood they contend with) are the detection cost
    recovered_p95 = None
    if bp_tracker.alerts:
        t_alert = bp_tracker.alerts[0].t
        post = [r.latency for r in bp_rep.jobs.values()
                if r.tenant == OVERLOAD_PRIO and r.admitted > t_alert]
        if post:
            recovered_p95 = _p95(post)
    recovered_under_target = (
        recovered_p95 is not None and recovered_p95 <= OVERLOAD_POLICY.target
    )

    if failures:
        return LegResult(conformance=failures)

    print(f"nominal: {int(total_jobs)} jobs, {burned:.0f} budget burned "
          f"(hit rate {hit_rate:.3f}), monitored session byte-identical, "
          f"SLI stream deterministic")
    print(f"blame: {len(blame_jobs)} jobs decomposed, max residual "
          f"{summary['max_residual']:.3e}s (tolerance {BLAME_TOLERANCE:.0e}), "
          f"total delta {summary['delta']*1e3:.3f} ms")
    print(f"overload: priority p95 {p95_over*1e3:.3f} ms without "
          f"backpressure vs {p95_bp*1e3:.3f} ms with "
          f"(speedup {speedup:.3f}x, floor {BACKPRESSURE_SPEEDUP_FLOOR}x; "
          f"target {OVERLOAD_POLICY.target*1e3:.3f} ms)")
    print(f"overload: burn alerts {alerts_nobp} (no bp) / {alerts_bp} (bp), "
          f"{bp_deferrals:.0f} best-effort deferrals, recovered p95 "
          f"{'-' if recovered_p95 is None else format(recovered_p95*1e3, '.3f')}"
          f" ms")

    gated = {
        "bench.slo.nominal_slo_hit_rate": hit_rate,
        "bench.slo.blame_exact_hit_rate": blame_hit_rate,
        "bench.slo.overload_detection_hits": float(alerts_nobp),
        "bench.slo.backpressure_p95_speedup": speedup,
        "bench.slo.recovered_p95_under_target":
            1.0 if recovered_under_target else 0.0,
    }
    for t in sorted(tenant_p95):
        gated[f"bench.slo.tenant.{t}.p95_ms"] = (tenant_p95[t] or 0.0) * 1e3

    raw = {
        "nominal": {
            "jobs": total_jobs, "burned": burned, "hit_rate": hit_rate,
            "tenant_p95_ms": {t: (v or 0.0) * 1e3
                              for t, v in sorted(tenant_p95.items())},
        },
        "blame": {
            "jobs_checked": len(blame_jobs),
            "max_residual": summary["max_residual"],
            "hit_rate": blame_hit_rate,
        },
        "overload": {
            "priority_p95_ms": p95_over * 1e3,
            "backpressure_p95_ms": p95_bp * 1e3,
            "speedup": speedup,
            "target_ms": OVERLOAD_POLICY.target * 1e3,
            "alerts_no_backpressure": alerts_nobp,
            "alerts_backpressure": alerts_bp,
            "deferrals": bp_deferrals,
            "recovered_p95_ms":
                None if recovered_p95 is None else recovered_p95 * 1e3,
            "policy": OVERLOAD_POLICY.to_dict(),
        },
    }

    floor_misses = []
    if hit_rate < 1.0:
        floor_misses.append(f"nominal leg burned budget (hit rate {hit_rate:.3f})")
    if blame_hit_rate < 1.0 or not blame_jobs:
        floor_misses.append("blame decomposition not exact on every job")
    if not alerts_nobp:
        floor_misses.append("overload leg fired no burn-rate alert")
    if not alerts_bp:
        floor_misses.append("backpressure leg fired no burn-rate alert")
    if bp_deferrals <= 0:
        floor_misses.append("backpressure deferred no best-effort admissions")
    if not recovered_under_target:
        floor_misses.append(
            "post-alert priority p95 "
            f"{'-' if recovered_p95 is None else format(recovered_p95*1e3, '.3f')}"
            f" ms not under target {OVERLOAD_POLICY.target*1e3:.3f} ms")
    if speedup < BACKPRESSURE_SPEEDUP_FLOOR:
        floor_misses.append(
            f"backpressure p95 speedup {speedup:.3f} < "
            f"{BACKPRESSURE_SPEEDUP_FLOOR}")
    return LegResult(
        metrics={"counters": gated},
        raw={
            "slo": {"nominal": nom_snapshot,
                    "overload": over_tracker.snapshot(),
                    "overload_backpressure": bp_tracker.snapshot()},
            "blame": {"jobs": blame_jobs, "summary": summary},
            "slo_bench": raw,
        },
        floor_misses=floor_misses,
    )
