"""Per-tenant SLO tracking, burn-rate alerting, and contention blame
(repro.obs.slo + the critpath blame decomposition): unit behavior on
synthetic SLIs, then the service integration — monitored sessions stay
byte-identical, backpressure actually defers, blame sums exactly."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.critpath import (
    BLAME_COMPONENTS,
    blame_decomposition,
    blame_summary,
    job_phases,
)
from repro.obs.live.bus import TelemetrySample
from repro.obs.metrics import ObsError
from repro.obs.records import read_records
from repro.obs.slo import (
    JobSli,
    SloBurnDetector,
    SloPolicy,
    SloTracker,
)
from repro.service import Service


def sli(n, tenant="t0", latency=1.0, t=None):
    """A synthetic job SLI; latency phases split arbitrarily but tile."""
    return JobSli(
        job=f"{tenant}.j{n}", tenant=tenant, t=(n + 1.0) if t is None else t,
        latency=latency, queue_wait=latency / 4, start_delay=latency / 4,
        execute=latency / 4, drain=latency / 4,
    )


#: A policy whose burn math is easy to do by hand: allowed bad fraction
#: 0.1, enter on 3 straight misses, exit only once both windows are
#: fully clean (one miss in the slow ring blocks the exit).
POLICY = SloPolicy(tenant="t0", target=1.0, objective=0.9,
                   fast_window=3, slow_window=6,
                   fast_burn=3.0, slow_burn=2.0, exit_burn=0.5)


class TestSloPolicy:
    def test_validation(self):
        with pytest.raises(ObsError):
            SloPolicy(tenant="t", target=0.0)
        with pytest.raises(ObsError):
            SloPolicy(tenant="t", target=1.0, objective=1.0)
        with pytest.raises(ObsError):
            SloPolicy(tenant="t", target=1.0, fast_window=8, slow_window=4)
        with pytest.raises(ObsError):
            SloPolicy(tenant="t", target=1.0, fast_burn=0.0)

    def test_to_dict_roundtrips_through_tracker_header(self):
        tr = SloTracker([POLICY])
        header = next(tr.stream.events())
        assert header["schema"] == "repro-slo/1"
        assert header["policies"]["t0"] == POLICY.to_dict()

    def test_mapping_form_accepts_bare_targets(self):
        tr = SloTracker({"a": 0.5, "b": SloPolicy(tenant="b", target=2.0)})
        assert tr.policies["a"].target == 0.5
        assert tr.policies["a"].objective == SloPolicy(tenant="x", target=1).objective
        assert tr.policies["b"].target == 2.0


class TestBudgetAccounting:
    def test_no_misses_leaves_budget_whole(self):
        tr = SloTracker([POLICY])
        for n in range(10):
            tr.observe(sli(n, latency=0.5))
        budget = tr.error_budget("t0")
        assert budget["jobs"] == 10.0
        assert budget["burned"] == 0.0
        assert budget["remaining_fraction"] == 1.0

    def test_overdrawn_budget_goes_negative(self):
        tr = SloTracker([POLICY])
        for n in range(10):
            tr.observe(sli(n, latency=2.0))       # every job misses
        budget = tr.error_budget("t0")
        assert budget["allowed"] == pytest.approx(1.0)
        assert budget["burned"] == 10.0
        assert budget["remaining_fraction"] == pytest.approx(-9.0)

    def test_policyless_tenant_records_slis_but_no_budget(self):
        tr = SloTracker([POLICY])
        tr.observe(sli(0, tenant="other", latency=99.0))
        assert tr.error_budget("other")["jobs"] == 0.0
        snap = tr.snapshot()
        assert snap["tenants"]["other"]["policy"] is None
        assert snap["tenants"]["other"]["latency"]["count"] == 1


class TestBurnDetection:
    def test_three_misses_fire_one_critical_alert(self):
        tr = SloTracker([POLICY], metrics=MetricsRegistry())
        fired = []
        for n in range(3):
            fired += tr.observe(sli(n, latency=2.0))
        assert len(fired) == 1
        assert fired[0].severity == "critical"
        assert "t0" in fired[0].message
        assert tr.burning() == frozenset({"t0"})
        assert tr.metrics.value("service.slo.alerts") == 1.0

    def test_needs_a_full_fast_window(self):
        tr = SloTracker([POLICY])
        assert tr.observe(sli(0, latency=2.0)) == []
        assert tr.observe(sli(1, latency=2.0)) == []
        assert tr.burning() == frozenset()

    def test_one_off_miss_never_fires(self):
        tr = SloTracker([POLICY])
        fired = []
        for n in range(12):
            bad = n == 5
            fired += tr.observe(sli(n, latency=2.0 if bad else 0.5))
        assert fired == []

    def test_exit_needs_both_windows_clean(self):
        # the regression pinned here: a clean fast window alone must NOT
        # end the burn while misses are still in the slow window
        tr = SloTracker([POLICY])
        for n in range(3):
            tr.observe(sli(n, latency=2.0))
        assert tr.burning() == frozenset({"t0"})
        for n in range(3, 6):                     # fast window now clean
            tr.observe(sli(n, latency=0.5))
            assert tr.burning() == frozenset({"t0"})
        fast, slow = tr.burn_rates("t0")
        assert fast == 0.0 and slow > POLICY.exit_burn
        for n in range(6, 9):                     # misses age out of slow
            tr.observe(sli(n, latency=0.5))
        assert tr.burning() == frozenset()

    def test_no_double_alert_while_burning(self):
        tr = SloTracker([POLICY])
        fired = []
        for n in range(8):
            fired += tr.observe(sli(n, latency=2.0))
        assert len(fired) == 1
        assert len(tr.alerts) == 1

    def test_release_backpressure_clears_and_marks(self):
        tr = SloTracker([POLICY], metrics=MetricsRegistry())
        for n in range(3):
            tr.observe(sli(n, latency=2.0))
        assert tr.backpressure_active()
        assert tr.release_backpressure() is True
        assert not tr.backpressure_active()
        assert tr.release_backpressure() is False   # idempotent
        marks = [r for r in tr.stream.events() if r["kind"] == "burn"]
        assert [m["state"] for m in marks] == ["start", "release"]
        assert tr.metrics.value("service.slo.backpressure_released") == 1.0


class TestJsonlStream:
    def test_stream_is_deterministic_and_roundtrips(self, tmp_path):
        def build():
            tr = SloTracker([POLICY])
            for n in range(4):
                tr.observe(sli(n, latency=2.0 if n < 3 else 0.5))
            return tr
        a, b = build(), build()
        assert a.stream.to_bytes() == b.stream.to_bytes()
        path = a.stream.write(tmp_path / "slo.jsonl")
        records = read_records(path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "header"
        assert kinds.count("sli") == 4
        assert "burn" in kinds
        sli_rec = next(r for r in records if r["kind"] == "sli")
        assert sli_rec["tenant"] == "t0"
        # the phase decomposition tiles the latency in the record too
        assert sli_rec["queue_wait"] + sli_rec["start_delay"] + \
            sli_rec["execute"] + sli_rec["drain"] == pytest.approx(
                sli_rec["latency"])

    def test_snapshot_shape(self):
        tr = SloTracker([POLICY])
        for n in range(6):
            tr.observe(sli(n, latency=0.5))
        snap = tr.snapshot()
        t0 = snap["tenants"]["t0"]
        assert t0["policy"]["target"] == 1.0
        assert t0["burning"] is False
        assert t0["latency"]["p95"] == pytest.approx(0.5)
        assert snap["alerts"] == []


def mk_sample(seq):
    return TelemetrySample(
        seq=seq, t=(seq + 1) * 1e-3, dt=1e-3, totals={}, deltas={},
        h2d_bytes_per_s=0.0, d2h_bytes_per_s=0.0, stall_fraction=0.0,
        compute_fraction=0.5, transfer_fraction=0.5,
        cache_hit_rate=None, overlap_efficiency=None, queue_depth=0.0,
    )


class TestSloBurnDetector:
    def test_fires_once_per_burning_set_growth(self):
        tr = SloTracker([POLICY])
        det = SloBurnDetector(tr)
        assert det.update(mk_sample(0)) is None     # warmup, not burning
        for n in range(3):
            tr.observe(sli(n, latency=2.0))
        alert = det.update(mk_sample(1))
        assert alert is not None and alert.severity == "critical"
        assert "t0" in alert.message
        assert det.update(mk_sample(2)) is None     # same set: announced
        tr.release_backpressure()
        assert det.update(mk_sample(3)) is None
        for n in range(3, 6):
            tr.observe(sli(n, latency=2.0))
        assert det.update(mk_sample(4)) is not None  # re-entered: re-fires


class TestBlameDecomposition:
    def timeline(self, *, submitted=0.0, admitted=1.0, started=1.5,
                 last_end=5.5, drained=6.0, own=3.0, wait=None):
        return {
            "submitted": submitted, "admitted": admitted, "started": started,
            "last_quantum_end": last_end, "drained": drained,
            "own_seconds": own, "quanta": 2, "wait": dict(wait or {}),
        }

    def test_phases_tile_the_latency(self):
        phases = job_phases(self.timeline(wait={"queued": 0.6, "memory": 0.4}))
        assert phases["queueing"] + phases["deferral"] + phases["preemption"] \
            + phases["own"] + phases["drain"] == pytest.approx(phases["latency"])
        assert phases["deferral"] == pytest.approx(0.4)

    def test_components_telescope_to_delta(self):
        solo = self.timeline(admitted=0.0, started=0.0, last_end=3.0,
                             drained=3.2, own=3.0)
        mux = self.timeline(admitted=1.0, started=1.5, last_end=6.5,
                            drained=7.0, own=3.0,
                            wait={"queued": 0.7, "backpressure": 0.3})
        row = blame_decomposition(mux, solo)
        assert row["delta"] == pytest.approx(7.0 - 3.2)
        assert sum(row["components"][c] for c in BLAME_COMPONENTS) == \
            pytest.approx(row["delta"])
        assert abs(row["residual"]) < 1e-12
        assert row["components"]["admission_deferral"] == pytest.approx(0.3)
        assert row["components"]["quantum_preemption"] == pytest.approx(2.5)

    def test_shrink_and_shed_split_out_of_interference(self):
        solo = self.timeline(admitted=0.0, started=0.0, last_end=3.0,
                             drained=3.0, own=3.0)
        shrunk = self.timeline(admitted=0.0, started=0.0, last_end=4.0,
                               drained=4.0, own=4.0)
        shed = self.timeline(admitted=0.0, started=0.0, last_end=4.5,
                             drained=4.5, own=4.5)
        mux = self.timeline(admitted=0.0, started=0.0, last_end=5.0,
                            drained=5.0, own=5.0)
        row = blame_decomposition(mux, solo, solo_shrunk=shrunk,
                                  solo_shed=shed)
        comp = row["components"]
        assert comp["slot_quota_shrink"] == pytest.approx(1.0)
        assert comp["shed_slots"] == pytest.approx(0.5)
        assert comp["barrier_interference"] == pytest.approx(0.5)
        assert abs(row["residual"]) < 1e-12

    def test_summary_totals(self):
        solo = self.timeline(admitted=0.0, started=0.0, last_end=3.0,
                             drained=3.2, own=3.0)
        mux = self.timeline(admitted=1.0, started=1.5, last_end=6.5,
                            drained=7.0, own=3.0)
        rows = [blame_decomposition(mux, solo) for _ in range(3)]
        agg = blame_summary(rows)
        assert agg["jobs"] == 3
        assert agg["delta"] == pytest.approx(3 * rows[0]["delta"])
        assert agg["max_residual"] <= 1e-12


# -- service integration ----------------------------------------------------

MIX = (
    ("a", "heat", {"shape": (16, 8, 8), "steps": 1, "seed": 0}, 0.0),
    ("b", "compute", {"shape": (8, 8, 8), "steps": 1,
                      "kernel_iteration": 256, "seed": 1}, 1e-5),
    ("a", "heat", {"shape": (16, 8, 8), "steps": 1, "seed": 2}, 2e-4),
)


def run_service(**kwargs):
    svc = Service(total_slots=32, **kwargs)
    svc.add_tenant("a", 2.0, priority=True)
    svc.add_tenant("b", 1.0)
    for tenant, wl, kw, at in MIX:
        svc.submit(tenant, workload=wl, workload_kwargs=kw, at=at)
    report = svc.run()
    session = svc.session.to_bytes()
    tracker = svc.slo
    svc.close()
    return report, session, tracker


class TestServiceIntegration:
    def test_monitoring_never_touches_the_clock(self):
        _, plain, _ = run_service()
        _, monitored, tracker = run_service(slo={"a": 1.0, "b": 1.0})
        assert monitored == plain
        assert tracker is not None

    def test_sli_stream_is_deterministic_across_reruns(self):
        _, _, tr1 = run_service(slo={"a": 1.0, "b": 1.0})
        _, _, tr2 = run_service(slo={"a": 1.0, "b": 1.0})
        assert tr1.stream.to_bytes() == tr2.stream.to_bytes()
        assert len([r for r in tr1.stream.events() if r["kind"] == "sli"]) == 3

    def test_stamps_feed_tracker_and_tenant_histograms(self):
        report, _, tracker = run_service(slo={"a": 1.0, "b": 1.0})
        snap = tracker.snapshot()
        assert snap["tenants"]["a"]["budget"]["jobs"] == 2.0
        assert snap["tenants"]["b"]["budget"]["jobs"] == 1.0
        # generous targets: nothing burned
        assert all(t["budget"]["burned"] == 0.0
                   for t in snap["tenants"].values())
        assert report.tenants["a"]["latency_p95"] is not None
        assert report.tenants["a"]["latency_p95"] >= \
            report.jobs[min(report.jobs)].latency * 0.0  # present and finite

    def test_blame_is_exact_on_a_real_contention_run(self):
        from repro.service import run_solo

        svc = Service(total_slots=32)
        svc.add_tenant("a", 2.0, priority=True)
        svc.add_tenant("b", 1.0)
        specs = {}
        for tenant, wl, kw, at in MIX:
            jid = svc.submit(tenant, workload=wl, workload_kwargs=kw, at=at)
            specs[jid] = (tenant, wl, kw)
        report = svc.run()
        svc.close()
        rows = []
        for jid, (tenant, wl, kw) in specs.items():
            res = report.jobs[jid]
            solo = run_solo(tenant, workload=wl, workload_kwargs=kw,
                            total_slots=32)
            assert res.digests == solo.digests
            rows.append(blame_decomposition(res.timeline, solo.timeline))
        assert rows
        for row in rows:
            assert abs(row["residual"]) <= 1e-12
            assert sum(row["components"][c] for c in BLAME_COMPONENTS) == \
                pytest.approx(row["delta"], abs=1e-12)


class TestBackpressure:
    def overload(self, *, backpressure):
        policy = SloPolicy(tenant="prio", target=2e-4, objective=0.9,
                           fast_window=2, slow_window=4,
                           fast_burn=2.0, slow_burn=2.0, exit_burn=0.5)
        svc = Service(total_slots=32, slo=[policy], backpressure=backpressure)
        svc.add_tenant("prio", 2.0, priority=True)
        bg = ("bg0", "bg1", "bg2", "bg3")
        for t in bg:
            svc.add_tenant(t, 1.0)
        for k in range(6):
            svc.submit("prio", workload="heat", at=k * 4e-4,
                       workload_kwargs={"shape": (16, 8, 8), "steps": 1,
                                        "seed": k})
        for i, t in enumerate(bg):
            for k in range(4):
                svc.submit(t, workload="compute",
                           at=1e-5 * (i + 1) + k * 2e-4,
                           workload_kwargs={"shape": (16, 8, 8), "steps": 2,
                                            "kernel_iteration": 2048,
                                            "seed": 100 + k})
        report = svc.run()
        tracker = svc.slo
        deferrals = svc.metrics.value("service.slo.backpressure_deferrals")
        svc.close()
        return report, tracker, deferrals

    def test_burn_alert_fires_under_contention(self):
        _, tracker, deferrals = self.overload(backpressure=False)
        assert tracker.alerts
        assert deferrals == 0.0

    def test_backpressure_defers_best_effort_and_completes_everything(self):
        report, tracker, deferrals = self.overload(backpressure=True)
        assert tracker.alerts
        assert deferrals > 0
        # nothing is lost: the flood still runs after the priority
        # stream drains (the release escape hatch)
        assert sum(1 for r in report.jobs.values()
                   if r.tenant.startswith("bg")) == 16
        assert sum(1 for r in report.jobs.values() if r.tenant == "prio") == 6

    def test_backpressure_improves_priority_latency(self):
        plain, _, _ = self.overload(backpressure=False)
        guarded, _, _ = self.overload(backpressure=True)
        p95 = lambda xs: sorted(xs)[int(0.95 * (len(xs) - 1))]  # noqa: E731
        assert p95(guarded.latencies("prio")) < p95(plain.latencies("prio"))
