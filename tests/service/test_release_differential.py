"""Releasing a drained job's state changes no artifact.

A service session lets go of what a reaped job leaves behind: the
hazard checker holds buffers and events weakly (a dead one's access
state goes with it), ``Service._reap_drained`` hands the job's streams
(and ``_evict_dataset_cache`` an evicted dedup dataset's) to
``HazardChecker.retire_streams`` (their clocks go, and so does every
completion snapshot no surviving manager can still pass as ``after=``),
and a queued workload job builds its input arrays only when it is
first considered for admission.

The reference here releases nothing: a test-side list keeps every
buffer and event the checker sees alive, ``retire_streams`` is a no-op,
and each workload job's inputs are built at submit.  Each scenario runs
under both and must give the same DAG JSON, hazards, ``HazardError``
message, session and SLO streams, telemetry JSONL and alerts, job
results (digests included) and metrics snapshot (``check.after_unresolved``
included).
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.check.hazards import HazardChecker
from repro.core.tile_acc import TileAcc
from repro.errors import HazardError
from repro.faults import FaultPlan, RetryPolicy
from repro.obs.live import TelemetryBus
from repro.obs.slo import SloPolicy
from repro.service import LoadGenerator, Service, TrafficPattern
from repro.service.workloads import build_workload

SMALL_KW = {
    "heat": {"shape": (16, 8, 8), "steps": 2},
    "wave": {"shape": (16, 8, 8), "steps": 2},
    "compute": {"shape": (8, 8, 8), "steps": 1, "kernel_iteration": 64},
    "coeff-heat": {"shape": (16, 8, 8), "steps": 2},
}


def _arrivals(svc, seed, tenants, n, **plan_kwargs):
    gen = LoadGenerator(seed, tenants, workloads=tuple(SMALL_KW),
                        workload_kwargs=SMALL_KW,
                        pattern=TrafficPattern(mean_gap=1e-4, burst_size=2))
    for a in gen.arrivals(n):
        svc.submit(a.tenant, workload=a.workload, at=a.t,
                   workload_kwargs=dict(a.kwargs, seed=a.seed), **plan_kwargs)


def slo_mix(seed):
    """8 tenants (t0 priority), dedup, SLOs with backpressure, telemetry."""
    def build(jsonl):
        tenants = [f"t{i}" for i in range(8)]
        policies = [SloPolicy(tenant=t, target=2e-4, objective=0.9,
                              fast_window=2, slow_window=4, fast_burn=2.0,
                              slow_burn=2.0, exit_burn=0.5) for t in tenants]
        bus = TelemetryBus(sample_interval=1e-4, jsonl=jsonl)
        svc = Service(total_slots=32, telemetry=bus, slo=policies,
                      backpressure=True)
        svc.add_tenant("t0", 2.0, priority=True)
        for t in tenants[1:]:
            svc.add_tenant(t, 1.0)
        _arrivals(svc, seed, tenants, 40)
        return svc, bus
    return build


def faulty_evicting(seed):
    """Transient H2D faults retried on 2-slot pools that keep evicting:
    a retried upload re-reads its slot's barrier (``_slot_after``)."""
    def build(jsonl):
        svc = Service(total_slots=16, retry=RetryPolicy(max_attempts=8),
                      faults=FaultPlan.from_spec(f"h2d:p=0.15; seed={seed}"))
        svc.add_tenant("t0", 2.0, priority=True)
        for t in ("t1", "t2", "t3"):
            svc.add_tenant(t, 1.0)
        _arrivals(svc, seed, ["t0", "t1", "t2", "t3"], 24,
                  n_regions=4, n_slots=2)
        return svc, None
    return build


def shed(jsonl):
    """A priority job sheds a best-effort slot (policy "queue", 3 MB)."""
    svc = Service(device_memory_limit=3_000_000, admission_policy="queue")
    svc.add_tenant("be")
    svc.add_tenant("vip", priority=True)
    svc.submit("be", workload="compute", n_regions=8, n_slots=6, at=0.0,
               workload_kwargs={"shape": (64, 64, 64), "steps": 2,
                                "kernel_iteration": 1, "seed": 1})
    svc.submit("vip", workload="heat", n_regions=8, n_slots=4, at=1e-4,
               workload_kwargs={"shape": (64, 48, 48), "steps": 1, "seed": 0})
    return svc, None


def dedup_evict(jsonl):
    """Borrowed coeff-heat ``kappa`` datasets evicted to admit a larger
    heat job (policy "queue", 3 MB), then cached again."""
    bus = TelemetryBus(sample_interval=1e-4, jsonl=jsonl)
    svc = Service(device_memory_limit=3_000_000, admission_policy="queue",
                  telemetry=bus)
    svc.add_tenant("t")
    svc.add_tenant("u")
    for tenant, workload, shape, steps, seed, n_slots, at in (
        ("t", "coeff-heat", (64, 32, 32), 2, 0, 4, 0.0),
        ("u", "coeff-heat", (64, 32, 32), 1, 0, 4, 1e-4),   # borrows kappa
        ("t", "heat", (64, 44, 44), 1, 1, 8, 2e-3),         # evicts it
        ("u", "coeff-heat", (64, 32, 32), 1, 0, 4, 3e-3),
        ("t", "heat", (64, 44, 44), 1, 2, 8, 4e-3),
    ):
        svc.submit(tenant, workload=workload, n_regions=8, n_slots=n_slots, at=at,
                   workload_kwargs={"shape": shape, "steps": steps, "seed": seed})
    return svc, bus


def degrade(jsonl):
    """8-slot plans that do not fit a 3 MB device run degraded."""
    svc = Service(device_memory_limit=3_000_000)
    svc.add_tenant("t")
    for name in ("heat", "coeff-heat", "heat"):
        svc.submit("t", workload=name, n_regions=8, n_slots=8,
                   workload_kwargs={"shape": (64, 48, 48), "steps": 1, "seed": 0})
    return svc, None


def racy(mode):
    """Readiness deps dropped (mutant 5 of tests/check/test_mutants.py):
    the checker reports races, or raises on the first in strict mode."""
    def build(jsonl):
        svc = Service(check=mode, total_slots=16)
        svc.add_tenant("t0", 2.0, priority=True)
        svc.add_tenant("t1", 1.0)
        _arrivals(svc, 3, ["t0", "t1"], 12)
        return svc, None
    return build


# -- recording ---------------------------------------------------------------


def _artifacts(svc, bus, jsonl):
    try:
        report = svc.run()
        outcome = None
    except HazardError as exc:
        report, outcome = None, str(exc)
    if bus is not None:
        bus.close()
    checker = svc.runtime.checker
    return {
        "error": outcome,
        "dag": json.dumps(checker.dag_export(), sort_keys=True),
        "hazards": [h.describe() for h in checker.hazards],
        "session": svc.session.to_bytes(),
        "slo": svc.slo.stream.to_bytes() if svc.slo is not None else None,
        "telemetry": jsonl.read_bytes() if bus is not None else None,
        "alerts": [a.to_dict() for a in bus.alerts] if bus is not None else None,
        "jobs": report.jobs if report is not None else None,
        "metrics": svc.metrics.snapshot(),
    }


def run_scenario(build, jsonl):
    svc, bus = build(jsonl)
    out = _artifacts(svc, bus, jsonl)
    svc.close()
    gc.collect()
    return out, svc


def releasing_nothing(m, pinned):
    """Patch in the reference: nothing a drained job used is let go."""
    buf_state = HazardChecker._buf_state
    on_event_record = HazardChecker.on_event_record
    submit = Service.submit

    def pinning_buf_state(self, buf):
        pinned.append(buf)
        return buf_state(self, buf)

    def pinning_event_record(self, event, runtime_id, stream):
        pinned.append(event)
        return on_event_record(self, event, runtime_id, stream)

    def submit_with_inputs(self, *args, **kwargs):
        job_id = submit(self, *args, **kwargs)
        job = next(j for j in self._queued if j.id == job_id)
        if job.inputs is None:
            job.inputs = dict(build_workload(job.workload, **job.workload_kwargs).inputs)
        return job_id

    m.setattr(HazardChecker, "_buf_state", pinning_buf_state)
    m.setattr(HazardChecker, "on_event_record", pinning_event_record)
    m.setattr(HazardChecker, "retire_streams", lambda self, *a, **kw: None)
    m.setattr(Service, "submit", submit_with_inputs)


#: name -> (scenario, counters it must drive above zero)
SCENARIOS = {
    "slo-mix-3": (slo_mix(3), ("service.dedup_hits",
                               "service.slo.backpressure_deferrals")),
    "slo-mix-5": (slo_mix(5), ("service.dedup_hits",)),
    "slo-mix-11": (slo_mix(11), ("service.dedup_hits",)),
    "faults-7": (faulty_evicting(7), ("faults.retries",)),
    "faults-9": (faulty_evicting(9), ("faults.retries",)),
    "shed": (shed, ("service.evictions.priority",)),
    "degrade": (degrade, ("service.degraded",)),
    "dedup-evict": (dedup_evict, ("service.dedup_hits", "service.dedup_evicted")),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_release_changes_no_artifact(scenario, tmp_path, monkeypatch):
    build, exercised = SCENARIOS[scenario]
    got, svc = run_scenario(build, tmp_path / "released.jsonl")
    pinned: list = []
    with monkeypatch.context() as m:
        releasing_nothing(m, pinned)
        ref, ref_svc = run_scenario(build, tmp_path / "reference.jsonl")
    assert got == ref
    counters = got["metrics"]["counters"]
    assert all(counters.get(name, 0) > 0 for name in exercised)
    # the reference kept what the change let go
    checker, ref_checker = svc.runtime.checker, ref_svc.runtime.checker
    assert len(ref_checker._buffers) > len(checker._buffers)
    assert len(ref_checker._completions) > len(checker._completions)
    assert len(ref_checker._streams) > len(checker._streams)


def test_an_evicted_dataset_leaves_no_stream_state(tmp_path):
    svc, bus = dedup_evict(tmp_path / "evict.jsonl")
    svc.run()
    bus.close()
    cached = {s.stream_id for ds in svc._datasets.values() for s in ds["manager"].streams}
    assert svc.metrics.value("service.dedup_evicted") == 2
    # every job was reaped, so only a cached dataset may keep a stream
    assert {sid for _rt, sid in svc.runtime.checker._streams} <= cached
    svc.close()


@pytest.mark.parametrize("mode", ["observe", "strict"])
def test_racy_runs_report_the_same(mode, tmp_path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(TileAcc, "device_ready_deps", lambda self, rid: ())
        got, _ = run_scenario(racy(mode), tmp_path / "released.jsonl")
        releasing_nothing(m, [])
        ref, _ = run_scenario(racy(mode), tmp_path / "reference.jsonl")
    assert got == ref
    if mode == "observe":
        assert got["hazards"] and got["error"] is None
    else:
        assert got["error"] is not None and "racy" in got["error"]
