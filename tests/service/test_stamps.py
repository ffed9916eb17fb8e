"""Property tests for the per-job lifecycle stamps the service records
(the SLIs behind repro.obs.slo): every job's submit/admit/start/drain
timeline is monotone, the phase decomposition tiles the latency exactly,
and the stamp stream is byte-deterministic across reruns for both
open- and closed-loop load."""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.service import LoadGenerator, Service, TrafficPattern

TENANTS = ("t0", "t1", "t2")
SMALL_KW = {
    "heat": {"shape": (16, 8, 8), "steps": 1},
    "compute": {"shape": (8, 8, 8), "steps": 1, "kernel_iteration": 256},
}


def run_load(seed, *, closed=False, slo=None):
    gen = LoadGenerator(seed, TENANTS, workload_kwargs=SMALL_KW,
                        pattern=TrafficPattern(mean_gap=3e-4))
    svc = Service(total_slots=48, slo=slo)
    for i, t in enumerate(TENANTS):
        svc.add_tenant(t, 2.0 if i == 0 else 1.0, priority=(i == 0))
    if closed:
        gen.replay_closed(svc, jobs_per_tenant=2)
    else:
        gen.replay_open(svc, 6)
    report = svc.run()
    session = svc.session.to_bytes()
    slo_bytes = svc.slo.stream.to_bytes() if svc.slo is not None else b""
    svc.close()
    return report, session, slo_bytes


def stamp_stream(report) -> bytes:
    """Canonical bytes of every job's timeline, for rerun comparison."""
    return json.dumps(
        {jid: report.jobs[jid].timeline for jid in sorted(report.jobs)},
        sort_keys=True,
    ).encode()


class TestStampInvariants:
    @given(st.integers(0, 1000), st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_stamps_are_monotone_and_tile_the_latency(self, seed, closed):
        report, _, _ = run_load(seed, closed=closed)
        assert report.jobs
        for res in report.jobs.values():
            tl = res.timeline
            assert tl["submitted"] <= tl["admitted"] <= tl["started"]
            assert tl["started"] <= tl["last_quantum_end"] <= tl["drained"]
            assert res.arrival == tl["submitted"]
            assert res.admitted == tl["admitted"]
            assert res.finished == tl["drained"]
            assert res.latency == tl["drained"] - tl["submitted"]
            # the job's own quantum time fits inside its execute span
            assert 0.0 <= tl["own_seconds"] <= (
                tl["last_quantum_end"] - tl["started"]) + 1e-12
            # recorded wait reasons never exceed the pre-admission span
            assert sum(tl["wait"].values()) <= (
                tl["admitted"] - tl["submitted"]) + 1e-12

    @given(st.integers(0, 1000), st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_stamps_are_byte_deterministic_across_reruns(self, seed, closed):
        rep1, session1, _ = run_load(seed, closed=closed)
        rep2, session2, _ = run_load(seed, closed=closed)
        assert stamp_stream(rep1) == stamp_stream(rep2)
        assert session1 == session2

    @given(st.integers(0, 1000))
    @settings(max_examples=4, deadline=None)
    def test_monitored_run_matches_unmonitored(self, seed):
        # arming the SLO tracker must not move a single stamp
        rep_plain, session_plain, _ = run_load(seed)
        rep_slo, session_slo, slo_bytes = run_load(
            seed, slo={t: 1.0 for t in TENANTS})
        assert stamp_stream(rep_plain) == stamp_stream(rep_slo)
        assert session_plain == session_slo
        # and the SLI stream itself reruns byte-identically
        _, _, slo_bytes2 = run_load(seed, slo={t: 1.0 for t in TENANTS})
        assert slo_bytes == slo_bytes2
