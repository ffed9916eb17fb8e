"""Admission control: queueing instead of OOM, degrade, shed, reject.

The controller stands between ``submit`` and ``cudaMalloc``: injected
memory pressure turns would-be OOM crashes into queueing delay, a plan
that cannot fit the live budget is replanned at minimum slots under
``policy="degrade"``, a priority job that defers under ``policy="queue"``
evicts best-effort slots instead, and a job whose *minimum* footprint
exceeds an empty device is rejected at submission with a typed
:class:`~repro.errors.ServiceError` carrying tenant/job context.
"""

from __future__ import annotations

import pytest

from repro.errors import CudaInvalidValueError, ServiceError
from repro.faults.plan import FaultPlan, FaultRule
from repro.service import (
    ADMIT,
    DEFER,
    DEGRADE,
    REJECT,
    AdmissionController,
    Service,
    run_solo,
)

HEAT_KW = {"shape": (32, 16, 16), "steps": 1, "seed": 0}
COMPUTE_KW = {"shape": (8, 8, 8), "steps": 1, "kernel_iteration": 4, "seed": 0}


class TestQueueUnderPressure:
    def test_pressure_defers_instead_of_oom(self):
        # 20 GB of injected pressure dwarfs the K40m: nothing fits until
        # the window closes at t=10ms, then the job runs normally
        faults = FaultPlan([FaultRule(
            op="malloc", kind="pressure", oom_bytes=2 * 10**10, until_t=0.01,
        )])
        svc = Service(faults=faults)
        svc.add_tenant("t")
        jid = svc.submit("t", workload="heat", workload_kwargs=HEAT_KW, at=0.0)
        report = svc.run()
        svc.close()
        result = report.jobs[jid]
        assert result.admitted >= 0.01, "admitted while pressure was active"
        assert result.finished > result.admitted
        assert result.digests == run_solo(
            "t", workload="heat", workload_kwargs=HEAT_KW).digests

    def test_queued_job_latency_includes_the_wait(self):
        faults = FaultPlan([FaultRule(
            op="malloc", kind="pressure", oom_bytes=2 * 10**10, until_t=0.01,
        )])
        svc = Service(faults=faults)
        svc.add_tenant("t")
        jid = svc.submit("t", workload="heat", workload_kwargs=HEAT_KW, at=0.0)
        report = svc.run()
        svc.close()
        assert report.jobs[jid].latency >= 0.01


class TestDegrade:
    def test_degraded_replan_is_byte_identical(self):
        # 8 slots per field do not fit a 3 MB device, 1 slot does; the
        # degraded job must still produce its solo bits
        kw = {"shape": (64, 48, 48), "steps": 1, "seed": 0}
        svc = Service(device_memory_limit=3_000_000)
        svc.add_tenant("t")
        jid = svc.submit("t", workload="heat", workload_kwargs=kw,
                         n_regions=8, n_slots=8)
        report = svc.run()
        svc.close()
        result = report.jobs[jid]
        assert result.degraded
        assert result.n_slots < 8
        assert result.digests == run_solo(
            "t", workload="heat", workload_kwargs=kw, n_regions=8).digests

    def test_fitting_job_is_not_degraded(self):
        svc = Service()
        svc.add_tenant("t")
        jid = svc.submit("t", workload="heat", workload_kwargs=HEAT_KW)
        report = svc.run()
        svc.close()
        assert not report.jobs[jid].degraded


class TestShed:
    def test_priority_job_evicts_best_effort_slots(self):
        # under policy="queue" a deferring priority job may not shrink
        # itself; it takes slots from running best-effort jobs instead
        # 3 MB device: the best-effort pool (~1.6 MB) fits alone, but the
        # priority job (~1.6 MB) defers behind the reserved footprint —
        # under policy="queue" it takes a best-effort slot instead
        be_kw = {"shape": (64, 64, 64), "steps": 2,
                 "kernel_iteration": 512, "seed": 1}
        vip_kw = {"shape": (64, 48, 48), "steps": 1, "seed": 0}
        svc = Service(device_memory_limit=3_000_000, admission_policy="queue")
        svc.add_tenant("be")
        svc.add_tenant("vip", priority=True)
        be = svc.submit("be", workload="compute", workload_kwargs=be_kw,
                        n_regions=8, n_slots=6, at=0.0)
        vip = svc.submit("vip", workload="heat", workload_kwargs=vip_kw,
                         n_regions=8, n_slots=4, at=1e-4)
        report = svc.run()
        counters = svc.runtime.metrics.snapshot()["counters"]
        svc.close()
        assert counters.get("service.evictions.priority", 0) >= 1
        assert report.jobs[vip].finished > 0
        # the victim sheds capacity, never correctness
        for jid, name, kw in ((be, "compute", be_kw), (vip, "heat", vip_kw)):
            solo = run_solo(report.jobs[jid].tenant, workload=name,
                            workload_kwargs=kw, n_regions=8)
            assert report.jobs[jid].digests == solo.digests
        assert report.racy_hazards == 0


class TestReject:
    def test_oversized_job_rejected_at_submit_with_context(self):
        svc = Service(device_memory_limit=1_000_000)
        svc.add_tenant("t")
        with pytest.raises(ServiceError) as exc:
            svc.submit("t", workload="heat",
                       workload_kwargs={"shape": (8, 256, 256), "steps": 1},
                       name="too-big")
        svc.close()
        assert exc.value.reason == "reject"
        assert exc.value.tenant == "t"
        assert exc.value.job == "too-big"


class TestServiceErrors:
    def test_unknown_tenant(self):
        svc = Service()
        with pytest.raises(ServiceError) as exc:
            svc.submit("ghost", workload="heat", workload_kwargs=HEAT_KW)
        svc.close()
        assert exc.value.reason == "unknown-tenant"
        assert exc.value.tenant == "ghost"

    def test_unknown_workload(self):
        svc = Service()
        svc.add_tenant("t")
        with pytest.raises(ServiceError):
            svc.submit("t", workload="no-such-workload")
        svc.close()

    def test_duplicate_job_name(self):
        svc = Service()
        svc.add_tenant("t")
        svc.submit("t", workload="heat", workload_kwargs=HEAT_KW, name="dup")
        with pytest.raises(ServiceError) as exc:
            svc.submit("t", workload="heat", workload_kwargs=HEAT_KW,
                       name="dup")
        svc.close()
        assert exc.value.job == "dup"

    @pytest.mark.parametrize("at", [float("nan"), float("inf")])
    def test_non_finite_arrival(self, at):
        """A NaN arrival is neither due nor pending, so run() would spin
        forever on it; it is refused at submit, naming ``at``."""
        svc = Service()
        svc.add_tenant("t")
        with pytest.raises(ServiceError, match=r"at=") as exc:
            svc.submit("t", workload="heat", workload_kwargs=HEAT_KW, at=at)
        svc.close()
        assert exc.value.reason == "bad-submission"
        assert exc.value.tenant == "t"

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), 0, -1.0, "heavy"])
    def test_bad_tenant_weight(self, weight):
        """A non-finite or non-positive weight is refused before any state
        changes: the service keeps working (NaN used to poison the slot
        partitioner for every later add_tenant)."""
        svc = Service()
        svc.add_tenant("a")
        with pytest.raises(ServiceError, match=r"weight") as exc:
            svc.add_tenant("b", weight)
        assert exc.value.reason == "bad-weight"
        assert exc.value.tenant == "b"
        assert list(svc.tenants) == ["a"]
        svc.add_tenant("b", 2.0)
        jid = svc.submit("b", workload="heat", workload_kwargs=HEAT_KW)
        assert svc.run().jobs[jid].finished > 0
        svc.close()

    @pytest.mark.parametrize("it", [float("nan"), float("inf"), 2.5, "4", 0])
    def test_bad_kernel_iteration(self, it):
        """A NaN iteration count used to be queued and then kill run()
        with a raw ValueError from the kernel body, taking every tenant's
        jobs with it; it is refused at submit, naming the knob."""
        svc = Service()
        svc.add_tenant("a")
        svc.add_tenant("b")
        with pytest.raises(CudaInvalidValueError, match=r"kernel_iteration"):
            svc.submit("a", workload="compute",
                       workload_kwargs={**COMPUTE_KW, "kernel_iteration": it})
        ja = svc.submit("a", workload="compute", workload_kwargs=COMPUTE_KW)
        jb = svc.submit("b", workload="heat", workload_kwargs=HEAT_KW)
        assert ja == "a.j0"
        jobs = svc.run().jobs
        assert jobs[ja].finished > 0 and jobs[jb].finished > 0
        svc.close()

    def test_duplicate_tenant(self):
        svc = Service()
        svc.add_tenant("a", 2.0, priority=True)
        with pytest.raises(ServiceError, match=r"'a'") as exc:
            svc.add_tenant("a", 1.0)
        svc.close()
        assert exc.value.reason == "duplicate-tenant"
        assert exc.value.tenant == "a"
        assert svc.tenants["a"].weight == 2.0 and svc.tenants["a"].priority
        assert svc.wfq._weights["a"] == 2.0

    def test_unknown_workload_knob(self):
        svc = Service()
        svc.add_tenant("t")
        with pytest.raises(ServiceError, match=r"bogus") as exc:
            svc.submit("t", workload="heat", workload_kwargs={"bogus": 1})
        svc.close()
        assert exc.value.reason == "bad-submission"
        assert exc.value.tenant == "t"
        assert not svc._queued

    def test_bad_knob_fails_at_submit_not_run(self):
        """A queued job rebuilds its inputs at admission; a knob that
        cannot build must still be refused by submit, even for a job
        dated in the future, so run() never meets it."""
        svc = Service()
        svc.add_tenant("t")
        good = svc.submit("t", workload="heat", workload_kwargs=HEAT_KW, at=1e-3)
        with pytest.raises(ServiceError, match=r"kappa"):
            svc.submit("t", workload="heat", at=2e-3,
                       workload_kwargs=dict(HEAT_KW, kappa=3))
        assert list(svc.run().jobs) == [good]
        svc.close()

    def test_unknown_scheduler_and_policy(self):
        with pytest.raises(ServiceError):
            Service(scheduler="fifo")
        with pytest.raises(ServiceError):
            Service(admission_policy="magic")


class TestControllerUnit:
    def _controller(self, **kwargs):
        svc = Service(**kwargs)
        return svc, svc.admission

    def test_reserved_tightens_the_budget(self):
        # slot pools allocate lazily: free memory alone would re-admit
        # bytes already promised to running jobs
        svc, ctl = self._controller(device_memory_limit=10_000_000)
        try:
            assert ctl.budget() == ctl.budget(reserved=0)
            assert ctl.budget(reserved=4_000_000) <= 6_000_000
            assert ctl.decide(7_000_000) == ADMIT
            assert ctl.decide(7_000_000, reserved=4_000_000) == DEFER
        finally:
            svc.close()

    def test_decision_ladder(self):
        svc, ctl = self._controller(device_memory_limit=10_000_000)
        try:
            assert ctl.decide(1) == ADMIT
            assert ctl.decide(10**9, 1) == DEGRADE
            assert ctl.decide(10**9, 9_000_000, reserved=5_000_000) == DEFER
            assert ctl.decide(10**9) == REJECT
        finally:
            svc.close()


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
