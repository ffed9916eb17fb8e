"""Incremental telemetry sampling equals the from-scratch sampler.

A telemetry sample reads only what changed since the previous one: the
trace events recorded since then (merged into running interval unions)
and the instruments registered since then (appended to cached registry
families).  The scanning versions those replaced are kept here as the
reference — ``_activity`` re-merged the whole trace, ``sum_counters`` /
``max_gauge`` scanned every instrument, and the starvation detector
built a sorted snapshot of the registry — and each test runs one
scenario under both and requires byte-identical ``repro-telemetry/1``
JSONL and alert lists.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.tida_runners import run_tida_compute, run_tida_heat
from repro.cuda.kernel import KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.faults import FaultPlan, RetryPolicy
from repro.obs.live import TelemetryBus, Watchdog, default_detectors
from repro.obs.live.watchdog import TenantStarvationDetector
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloPolicy
from repro.service import LoadGenerator, Service, TrafficPattern
from repro.sim.trace import Trace

# -- the reference: the scanning sampler -------------------------------------


def _merge_intervals(ivs):
    if not ivs:
        return ivs
    ivs.sort()
    merged = [ivs[0]]
    for lo, hi in ivs[1:]:
        if lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def activity_from_scratch(events, t):
    """(compute_busy, transfer_busy, overlap, active) over every event."""
    comp, trans, host = [], [], []
    for e in events:
        if e.start >= t:
            continue
        end = min(e.end, t)
        if end <= e.start:
            continue
        if e.category == "kernel":
            comp.append((e.start, end))
        elif e.category in ("h2d", "d2h"):
            trans.append((e.start, end))
        elif e.category == "host":
            host.append((e.start, end))
    comp = _merge_intervals(comp)
    trans = _merge_intervals(trans)
    active = _merge_intervals(comp + trans + _merge_intervals(host))
    overlap = 0.0
    i = j = 0
    while i < len(comp) and j < len(trans):
        lo = max(comp[i][0], trans[j][0])
        hi = min(comp[i][1], trans[j][1])
        if hi > lo:
            overlap += hi - lo
        if comp[i][1] <= trans[j][1]:
            i += 1
        else:
            j += 1
    return (
        sum(b - a for a, b in comp),
        sum(b - a for a, b in trans),
        overlap,
        sum(b - a for a, b in active),
    )


def reference_activity(self, t):
    if self._trace is None:
        return (0.0, 0.0, 0.0, 0.0)
    return activity_from_scratch(self._trace.events, t)


def reference_sum_counters(self, prefix):
    return sum(c.value for n, c in self._counters.items() if n.startswith(prefix))


def reference_max_gauge(self, prefix, suffix=""):
    vals = [
        g.value for n, g in self._gauges.items()
        if n.startswith(prefix) and n.endswith(suffix)
    ]
    return max(vals) if vals else 0.0


def reference_tenants(self):
    if self.metrics is None:
        return []
    snap = self.metrics.snapshot()
    names = set()
    for key in snap.get("counters", {}):
        if key.startswith("service.tenant.") and key.endswith(".quanta"):
            names.add(key[len("service.tenant."):-len(".quanta")])
    for key in snap.get("gauges", {}):
        if key.startswith("service.tenant.") and key.endswith(".backlog"):
            names.add(key[len("service.tenant."):-len(".backlog")])
    return sorted(names)


def exact(values):
    """Values with their types, floats by bit pattern."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


# -- the scenarios -------------------------------------------------------------

SMALL_KW = {
    "heat": {"shape": (16, 8, 8), "steps": 1},
    "compute": {"shape": (8, 8, 8), "steps": 1, "kernel_iteration": 256},
}


def service_session(bus):
    """8 tenants, SLOs with backpressure, open-loop future-dated arrivals."""
    tenants = [f"t{i}" for i in range(8)]
    policies = [SloPolicy(tenant=t, target=2e-4, objective=0.9,
                          fast_window=2, slow_window=4, fast_burn=2.0,
                          slow_burn=2.0, exit_burn=0.5) for t in tenants]
    svc = Service(total_slots=32, telemetry=bus, slo=policies, backpressure=True)
    svc.add_tenant("t0", 2.0, priority=True)
    for t in tenants[1:]:
        svc.add_tenant(t, 1.0)
    gen = LoadGenerator(5, tenants, workload_kwargs=SMALL_KW,
                        pattern=TrafficPattern(mean_gap=1e-4, burst_size=2))
    gen.replay_open(svc, 32)
    svc.run()
    svc.close()


def seeded_fault_run(bus):
    """The fault run of tests/obs/test_live_determinism.py."""
    bus.add_subscriber(Watchdog(default_detectors(cooldown=4 * bus.sample_interval)))
    run_tida_compute(
        shape=(64, 64, 64), steps=3, n_regions=8,
        faults=FaultPlan.from_spec("launch:p=0.5; seed=11"),
        retry=RetryPolicy(max_attempts=8),
        functional=False, telemetry=bus,
    )


def heat_with_host_spans(bus):
    """Heat whose host-compute spans cross sample boundaries."""
    bus.add_subscriber(Watchdog())
    res = run_tida_heat(shape=(64, 32, 32), steps=2, n_regions=8,
                        telemetry=bus)
    k = bus.sample_interval
    crossing = [e for e in res.trace if e.category == "host"
                and math.floor(e.start / k) != math.floor(e.end / k)]
    assert crossing, "sanity: some host span straddles a sample boundary"


def busy_kernel():
    def body(arr):
        arr += 1.0
    return KernelSpec(name="busy", body=body, bytes_per_cell=16.0,
                      flops_per_cell=100.0)


def late_attached_bus(bus):
    """A bus attached to a runtime that has already recorded events."""
    rt = CudaRuntime()
    host = rt.malloc_pinned((256, 256))
    dev = rt.malloc((256, 256))
    streams = [rt.create_stream(), rt.create_stream()]
    for k in range(6):
        if k == 2:
            bus.add_subscriber(Watchdog())
            rt.attach_telemetry(bus)
        s = streams[k % 2]
        rt.memcpy_async(dev, host, s)
        rt.launch(busy_kernel(), buffers=[dev], stream=s)
        rt.memcpy_async(host, dev, s)
        rt.host_compute("prep", 3e-6 * (k + 1))
        rt.stream_synchronize(s)
    assert bus.samples[0].totals["compute_busy"] > 0.0


SCENARIOS = {
    "service-session": (service_session, 1e-4),
    "seeded-fault-run": (seeded_fault_run, 5e-4),
    "heat-host-spans": (heat_with_host_spans, 4e-6),
    "late-attach": (late_attached_bus, 2e-5),
}


def monitored(tmp_path, tag, scenario):
    run, interval = SCENARIOS[scenario]
    jsonl = tmp_path / f"{tag}.jsonl"
    bus = TelemetryBus(sample_interval=interval, jsonl=jsonl)
    run(bus)
    bus.close()
    return jsonl.read_bytes(), [a.to_dict() for a in bus.alerts], len(bus.samples)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_stream_matches_scanning_sampler(scenario, tmp_path, monkeypatch):
    blob, alerts, n = monitored(tmp_path, "incremental", scenario)
    with monkeypatch.context() as m:
        m.setattr(TelemetryBus, "_activity", reference_activity)
        m.setattr(MetricsRegistry, "sum_counters", reference_sum_counters)
        m.setattr(MetricsRegistry, "max_gauge", reference_max_gauge)
        m.setattr(TenantStarvationDetector, "_tenants", reference_tenants)
        ref_blob, ref_alerts, _ = monitored(tmp_path, "reference", scenario)
    assert n > 8, "sanity: enough samples to fill detector windows"
    assert alerts == ref_alerts
    assert blob == ref_blob


def test_service_session_exercises_the_service_detectors(tmp_path):
    _, alerts, _ = monitored(tmp_path, "s", "service-session")
    assert any(a["detector"] == "slo_burn" for a in alerts)


# -- the unions themselves, on random span streams ----------------------------

CATEGORIES = ("kernel", "h2d", "d2h", "host", "sync")

#: Spans on a coarse grid, so touching, nested and zero-length spans are
#: common; a batch may start before earlier sample times (late spans).
span = st.tuples(st.sampled_from(CATEGORIES), st.integers(0, 40),
                 st.integers(0, 8))
batches = st.lists(st.tuples(st.lists(span, max_size=6), st.integers(0, 6)),
                   min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(batches=batches, scale=st.sampled_from([1.0, 0.1, 1e-6, 1.1e-5, 3.3e-7]))
def test_incremental_unions_equal_from_scratch_merge(batches, scale):
    trace = Trace()
    bus = TelemetryBus()
    bus._trace = trace
    t = 0
    for spans, advance in batches:
        for cat, start, dur in spans:
            trace.record("op", cat, cat, start * scale, (start + dur) * scale)
        t += advance   # advance 0 samples twice at one time (empty window)
        got = bus._activity(t * scale)
        assert exact(got) == exact(activity_from_scratch(trace.events, t * scale))


# -- the cached registry families ---------------------------------------------


class TestFamilies:
    def test_counter_created_after_first_read_is_summed(self):
        m = MetricsRegistry()
        m.inc("cache.hits.a", 2.0)
        assert m.sum_counters("cache.hits.") == 2.0
        m.inc("cache.misses.a", 5.0)
        m.inc("cache.hits.b", 3.0)
        assert m.sum_counters("cache.hits.") == 5.0
        assert [c.name for c in m.family("counter", "cache.hits.")] == [
            "cache.hits.a", "cache.hits.b"]

    def test_reset_then_recreated_family_sums_from_zero(self):
        m = MetricsRegistry()
        m.inc("cache.hits.a", 7.0)
        m.set_gauge("cuda.stream.1.queue_depth", 4.0)
        assert m.sum_counters("cache.hits.") == 7.0
        assert m.max_gauge("cuda.", ".queue_depth") == 4.0
        m.reset()
        assert exact([m.sum_counters("cache.hits.")]) == exact([0])
        assert m.max_gauge("cuda.", ".queue_depth") == 0.0
        m.inc("cache.hits.a", 1.0)
        m.set_gauge("cuda.stream.1.queue_depth", 1.0)
        assert m.sum_counters("cache.hits.") == 1.0
        assert m.max_gauge("cuda.", ".queue_depth") == 1.0

    def test_results_equal_the_scan_in_value_and_type(self):
        m = MetricsRegistry()
        names = ["cache.hits.x", "cuda.stream.1.queue_depth", "cache.hits.y",
                 "cache.hitsz", "cuda.stream.2.queue_depth", "cuda.other"]
        for k, name in enumerate(names):
            m.inc(name, 0.1 * (k + 1))
            m.set_gauge(name, 0.3 * (k % 3))
            for prefix, suffix in (("cache.hits.", ""), ("cache.", ""),
                                   ("cuda.", ".queue_depth"), ("none.", "")):
                assert exact([m.sum_counters(prefix)]) == exact(
                    [reference_sum_counters(m, prefix)])
                assert exact([m.max_gauge(prefix, suffix)]) == exact(
                    [reference_max_gauge(m, prefix, suffix)])

    def test_disabled_registry_families_stay_empty(self):
        m = MetricsRegistry(enabled=False)
        m.inc("cache.hits.a")
        assert m.family("counter", "cache.") == []
        assert exact([m.sum_counters("cache.")]) == exact([0])
