"""Back-to-back jobs on one runtime: per-job state must not leak.

The serialized scheduler runs independent jobs on one shared
``CudaRuntime``, calling ``reset_schedule(drop_dag=True)`` between
them.  Plain ``reset_schedule()`` deliberately *keeps* the hazard
checker's DAG and hazard list — harness repetitions of one logical run
accumulate there by design — which is exactly wrong between independent
tenants: job A's nodes, hazards, and ``racy()`` verdicts would leak
into job B's report.  These tests pin the ``drop_dag`` contract at the
runtime level and the no-leak behavior at the service level, plus the
telemetry lifecycle (watchdog detectors must not carry one job's state
into spurious alerts on the next).
"""

from __future__ import annotations

import gc

import pytest

from repro.cuda.runtime import CudaRuntime
from repro.obs.live.bus import TelemetryBus
from repro.service import LoadGenerator, Service, TrafficPattern, run_solo

HEAT_KW = {"shape": (16, 8, 8), "steps": 1, "seed": 0}


class TestDropDagContract:
    def _one_job(self, rt, stream):
        h = rt.malloc_pinned(1024, label="h")
        d = rt.malloc(1024, label="d")
        rt.memcpy_async(d, h, stream)
        rt.free(d)
        rt.free_host(h)

    def test_plain_reset_keeps_the_dag(self, tiny_machine):
        # repetition semantics: the DAG is the run's record
        rt = CudaRuntime(tiny_machine, check="observe")
        self._one_job(rt, rt.create_stream())
        recorded = len(rt.checker.dag)
        assert recorded > 0
        rt.reset_schedule()
        assert len(rt.checker.dag) == recorded

    def test_drop_dag_clears_record_and_verdicts(self, tiny_machine):
        # independent-job semantics: nothing of job A survives
        rt = CudaRuntime(tiny_machine, check="observe")
        self._one_job(rt, rt.create_stream())
        assert len(rt.checker.dag) > 0
        rt.reset_schedule(drop_dag=True)
        assert len(rt.checker.dag) == 0
        assert rt.checker.hazards == []
        assert rt.checker.racy() == []

    def test_cross_job_conflicts_are_not_hazards(self, tiny_machine):
        # job B touches the same buffers job A wrote, with no ordering
        # between them — legal, because they are different jobs
        rt = CudaRuntime(tiny_machine, check="observe")
        a = rt.malloc(1024, label="shared")
        h = rt.malloc_pinned(1024, label="host")
        rt.memcpy_async(a, h, rt.create_stream())
        rt.reset_schedule(drop_dag=True)
        rt.memcpy_async(h, a, rt.create_stream())
        assert rt.checker.racy() == []


class TestServiceBackToBack:
    def _serial(self, n_jobs, **kwargs):
        svc = Service(scheduler="serial", **kwargs)
        svc.add_tenant("t")
        jids = [
            svc.submit("t", workload="heat", workload_kwargs=HEAT_KW, at=0.0)
            for _ in range(n_jobs)
        ]
        report = svc.run()
        dag_nodes = len(svc.runtime.checker.dag)
        svc.close()
        return report, jids, dag_nodes

    def test_no_dag_accumulation_across_jobs(self):
        # every job's record is dropped at its finish: the surviving DAG
        # never grows with the job count
        _, _, after_two = self._serial(2)
        _, _, after_four = self._serial(4)
        assert after_two == after_four

    def test_later_jobs_identical_to_first(self):
        report, jids, _ = self._serial(3)
        solo = run_solo("t", workload="heat", workload_kwargs=HEAT_KW)
        for jid in jids:
            assert report.jobs[jid].digests == solo.digests
        assert report.racy_hazards == 0

    def test_busy_accounting_survives_the_resets(self):
        # reset_schedule rewinds engine busy_time; the service must fold
        # each job's busy into the aggregate before rewinding
        one, _, _ = self._serial(1)
        three, _, _ = self._serial(3)
        assert three.busy_seconds == pytest.approx(3 * one.busy_seconds,
                                                   rel=1e-6)
        assert 0 < three.utilization <= 1.0

    def test_fair_mode_keeps_the_multiplexed_record(self):
        # the fair scheduler interleaves jobs on one schedule: its DAG is
        # the cross-job record the checker's verdict is based on, so it
        # must NOT be dropped mid-run
        svc = Service()
        svc.add_tenant("t")
        for _ in range(2):
            svc.submit("t", workload="heat", workload_kwargs=HEAT_KW, at=0.0)
        svc.run()
        assert len(svc.runtime.checker.dag) > 0
        svc.close()


class TestTelemetryLifecycle:
    def test_watchdog_quiet_across_back_to_back_jobs(self):
        bus = TelemetryBus()
        svc = Service(scheduler="serial", telemetry=bus)
        svc.add_tenant("a", 2.0)
        svc.add_tenant("b", 1.0)
        for tenant in ("a", "b"):
            for _ in range(2):
                svc.submit(tenant, workload="heat", workload_kwargs=HEAT_KW,
                           at=0.0)
        report = svc.run()
        svc.close()
        assert report.racy_hazards == 0
        starvation = [a for a in bus.alerts
                      if a.detector == "tenant_starvation"]
        assert starvation == []

    def test_watchdog_quiet_while_future_jobs_wait_to_arrive(self):
        # a job submitted with a future at= is not backlogged until it
        # arrives: a tenant whose only job lies 20 sample windows ahead
        # must not read as starved while the clock runs towards it
        bus = TelemetryBus()
        svc = Service(telemetry=bus)
        svc.add_tenant("a", 1.0)
        svc.add_tenant("b", 1.0)
        svc.submit("a", workload="heat", workload_kwargs=HEAT_KW, at=0.0)
        svc.submit("b", workload="heat", workload_kwargs=HEAT_KW,
                   at=20 * bus.sample_interval)
        backlog = svc.metrics.gauge("service.tenant.b.backlog")
        assert backlog.value == 0
        report = svc.run()
        svc.close()
        assert report.racy_hazards == 0
        assert len(report.jobs) == 2
        starvation = [a for a in bus.alerts
                      if a.detector == "tenant_starvation"]
        assert starvation == []
        # once it arrived the job was counted until its admission
        assert (backlog.value, backlog.max) == (0, 1)

    def test_per_tenant_counters_published(self):
        svc = Service()
        svc.add_tenant("t")
        svc.submit("t", workload="heat", workload_kwargs=HEAT_KW)
        svc.run()
        counters = svc.runtime.metrics.snapshot()["counters"]
        svc.close()
        assert counters.get("service.tenant.t.quanta", 0) > 0


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(pytest.main([__file__, "-v"]))


class TestBoundedCheckerState:
    """A reaped job leaves nothing in the hazard checker: its buffers die
    with it and its streams and completion snapshots are retired, so a
    session holds the same checker state after 2N jobs as after N."""

    KW = {"heat": {"shape": (16, 8, 8), "steps": 2},
          "coeff-heat": {"shape": (16, 8, 8), "steps": 2}}

    def _session(self, n_jobs):
        svc = Service(total_slots=16)
        svc.add_tenant("vip", 2.0, priority=True)
        svc.add_tenant("be", 1.0)
        gen = LoadGenerator(1, ["vip", "be"], workloads=tuple(self.KW),
                            workload_kwargs=self.KW,
                            pattern=TrafficPattern(mean_gap=1e-4, burst_size=2))
        gen.replay_open(svc, n_jobs)
        report = svc.run()
        svc.close()
        gc.collect()
        checker = svc.runtime.checker
        return {
            "buffers": len(checker._buffers),
            "streams": len(checker._streams),
            "completions": len(checker._completions),
            "dedup_hits": svc.metrics.value("service.dedup_hits"),
            "jobs": len(report.jobs),
        }

    def test_checker_state_does_not_grow_with_the_session(self):
        n, n2 = self._session(12), self._session(24)
        assert (n["jobs"], n2["jobs"]) == (12, 24)
        assert n2["dedup_hits"] > n["dedup_hits"] > 0
        for key in ("buffers", "streams", "completions"):
            assert n2[key] == n[key], key

    def test_retired_stream_leaves_no_absorbed_source_record(self, monkeypatch):
        # each stream state records the stamps of the host and completion
        # clock pairs its last op absorbed; the record goes with the state
        # when the stream is retired, and holds ints, never clocks
        from repro.check.hazards import HazardChecker

        used = set()
        record_op = HazardChecker.record_op

        def noting(self, **kw):
            used.update((self._rt(rt), s.stream_id) for rt, s in kw["streams"])
            return record_op(self, **kw)

        monkeypatch.setattr(HazardChecker, "record_op", noting)
        svc = Service(total_slots=16)
        svc.add_tenant("vip", 2.0, priority=True)
        svc.add_tenant("be", 1.0)
        LoadGenerator(1, ["vip", "be"], workloads=tuple(self.KW), workload_kwargs=self.KW,
                      pattern=TrafficPattern(mean_gap=1e-4, burst_size=2)
                      ).replay_open(svc, 12)
        svc.run()
        checker = svc.runtime.checker
        live = set(checker._streams)
        assert len(used) > 20 and len(live) == 1
        assert all(key not in live for key in used - live)
        for st in checker._streams.values():
            assert st.seen and all(type(stamp) is int for stamp in st.seen)
        svc.close()

    def test_reaped_job_is_freed_by_reference_counting(self):
        # no reaped job's manager, pool or buffers wait for the cyclic
        # collector: with it off, the checker tracks no buffer at the end
        gc.collect()
        gc.disable()
        try:
            svc = Service(total_slots=16)
            svc.add_tenant("vip", 2.0, priority=True)
            svc.add_tenant("be", 1.0)
            LoadGenerator(1, ["vip", "be"], workloads=tuple(self.KW),
                          workload_kwargs=self.KW,
                          pattern=TrafficPattern(mean_gap=1e-4, burst_size=2)
                          ).replay_open(svc, 12)
            report = svc.run()
            svc.close()
            assert len(report.jobs) == 12
            assert len(svc.runtime.checker._buffers) == 0
        finally:
            gc.enable()

    def test_shed_slot_stream_is_retired(self):
        # the slot a priority job takes from a best-effort pool is gone
        # from the pool when the job is reaped; its stream goes too
        svc = Service(device_memory_limit=3_000_000, admission_policy="queue")
        svc.add_tenant("be")
        svc.add_tenant("vip", priority=True)
        svc.submit("be", workload="compute", n_regions=8, n_slots=6, at=0.0,
                   workload_kwargs={"shape": (64, 64, 64), "steps": 2,
                                    "kernel_iteration": 1, "seed": 1})
        svc.submit("vip", workload="heat", n_regions=8, n_slots=4, at=1e-4,
                   workload_kwargs={"shape": (64, 48, 48), "steps": 1, "seed": 0})
        svc.run()
        svc.close()
        assert svc.metrics.value("cache.shed") == 1
        assert svc.runtime.checker._streams == {}

    def test_dataset_is_evictable_once_no_running_job_borrows_it(self):
        # the owner finishes while a borrower still runs: the cached kappa
        # dataset stays; once the borrower has finished too, it can go
        svc = Service(total_slots=16)
        svc.add_tenant("t")
        svc.add_tenant("u")
        for tenant, steps, at in (("t", 1, 0.0), ("u", 4, 1e-5)):
            svc.submit(tenant, workload="coeff-heat", at=at,
                       workload_kwargs={"shape": (16, 8, 8), "steps": steps, "seed": 0})
        seen = []

        def on_finish(result, svc):
            if result.job == "t.j0":
                seen.append(([j.id for j in svc._running], svc._evict_dataset_cache()))

        svc.on_finish = on_finish
        report = svc.run()
        assert report.jobs["u.j1"].shared_fields == ("kappa",)
        assert seen == [(["u.j1"], False)]
        assert len(svc._datasets) == 1
        assert svc._evict_dataset_cache() is True
        assert svc._datasets == {}
        assert svc.metrics.value("service.dedup_evicted") == 1
        svc.close()


class TestQueuedJobInputs:
    """A named workload's input arrays are built once per job, when it is
    first considered for admission; ``submit`` builds only its program."""

    def test_submit_builds_no_input_array(self, monkeypatch):
        from repro.service import workloads

        built = []
        inputs = workloads._inputs

        def counting(name, *args):
            built.append(name)
            return inputs(name, *args)

        monkeypatch.setattr(workloads, "_inputs", counting)
        svc = Service(total_slots=16)
        svc.add_tenant("t")
        kinds = ("heat", "wave", "compute", "coeff-heat", "heat", "heat")
        for i, name in enumerate(kinds):
            svc.submit("t", workload=name, at=i * 1e-4,
                       workload_kwargs={"shape": (16, 8, 8), "steps": 1, "seed": i})
        assert built == []
        report = svc.run()
        svc.close()
        assert len(report.jobs) == len(kinds)
        assert sorted(built) == sorted(kinds)
