"""A completion record lets go of its clocks once the host has
synchronized past every op it holds, and that changes no artifact.

Every later op joins the host's clocks (or a stream that absorbed them),
so an ``after=`` naming such a record only adds DAG edges: the join it
skips could only be a no-op.  The reference here keeps every clock (the
release is patched out).  Each scenario runs under both and must give
the same DAG JSON, hazard descriptions, ``check.*`` counters and
``HazardError`` message.  The bounded-state tests pin what the release
is for: after an observed out-of-core heat run the records still holding
clocks are at most the ops issued since the host's last sync, at any run
length.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import Neumann, TidaAcc, heat_kernel
from repro.baselines.tida_runners import run_tida_compute, run_tida_heat
from repro.check import hazards
from repro.check.hazards import HazardChecker
from repro.core.tile_acc import TileAcc
from repro.cuda.runtime import CudaRuntime
from repro.errors import HazardError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.multi.heat import run_multi_gpu_heat
from repro.service import Service


@pytest.fixture
def checkers(monkeypatch):
    """Every HazardChecker built while the test runs, in creation order."""
    made = []
    init = HazardChecker.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(HazardChecker, "__init__", recording_init)
    return made


# -- scenarios ----------------------------------------------------------------


def ooc_heat_prefetch():
    """Out-of-core heat: 8 regions through 3 slots per field, evictions
    with write-backs, and lookahead prefetch."""
    return run_tida_heat(shape=(48, 24, 24), steps=3, n_regions=8, n_slots=3,
                         device_memory_limit=310_000, mode="timing",
                         prefetch_depth=2, eviction="lookahead",
                         check="observe").metrics


def safe_ghost_exchange():
    """The hybrid ghost exchange with ``safe=True``: event record/wait
    pairs order each source region's stream."""
    lib = TidaAcc(mode="timing", check="observe")
    for name in ("old", "new"):
        lib.add_array(name, (12, 8, 8), n_regions=3, halo=1)
    kernel = heat_kernel(3)
    for _ in range(3):
        lib.fill_boundary("old", Neumann(), safe=True)
        it = lib.iterator("new", "old").reset(gpu=True)
        while it.is_valid():
            lib.compute(it, kernel, params={"coef": 0.1})
            it.next()
        lib.swap("old", "new")
    lib.synchronize()
    return lib.metrics.snapshot()


def multi_gpu_peer():
    """Two devices exchanging ghosts by peer copies."""
    return run_multi_gpu_heat(shape=(32, 16, 16), steps=2, n_devices=2,
                              regions_per_device=2, mode="timing",
                              check="observe").metrics


def events_and_syncs():
    """Event record and wait, an event sync and a device sync, each
    followed by ops whose ``after=`` names completions synced past."""
    from repro.config import k40m_pcie3

    rt = CudaRuntime(k40m_pcie3(), check="observe")
    d1, d2 = rt.malloc(4096, label="d1"), rt.malloc(4096, label="d2")
    h1, h2 = rt.malloc_pinned(4096, label="h1"), rt.malloc_pinned(4096, label="h2")
    s1, s2, s3 = rt.create_stream(), rt.create_stream(), rt.create_stream()
    ev = rt.create_event()
    up1 = rt.memcpy_async(d1, h1, s1)
    up2 = rt.memcpy_async(d2, h2, s2)
    rt.event_record(ev, s1)
    late = rt.memcpy_async(h1, d1, s1)           # after the event: not synced
    rt.stream_wait_event(s3, ev)
    down = rt.memcpy_async(h2, d1, s3)
    rt.event_synchronize(ev)                     # up1 synced past
    rt.memcpy_async(d1, h1, s2, after=(up1, up2, late))
    rt.memcpy_async(h1, d2, s1, after=down)      # racy: d2's upload not synced
    rt.device_synchronize()                      # everything synced past
    rt.memcpy_async(d2, h1, s3, after=(up1, up2, down))
    rt.memcpy_async(h2, d2, s1, after=(up2, down))
    rt.device_synchronize()
    return rt.metrics.snapshot()


def transient_faults():
    """Uploads killed by transient H2D faults and retried while eviction
    write-backs run on their own stream."""
    return run_tida_compute(shape=(64, 16, 16), steps=3, n_regions=8, n_slots=3,
                            device_memory_limit=70_000, functional=True,
                            faults=FaultPlan.from_spec("h2d:p=0.25; seed=3"),
                            retry=RetryPolicy(max_attempts=12),
                            check="observe").metrics


def dedup_borrowers():
    """Coeff-heat jobs of three tenants sharing one read-only ``kappa``:
    borrowers' kernels name completions of earlier borrowers'."""
    svc = Service(total_slots=16)
    for t in ("a", "b", "c"):
        svc.add_tenant(t, 1.0)
    for k in range(6):
        svc.submit("abc"[k % 3], workload="coeff-heat", at=k * 2e-5,
                   workload_kwargs={"shape": (16, 8, 8), "steps": 2, "seed": k})
    svc.run()
    snap = svc.metrics.snapshot()
    svc.close()
    return snap


def racy_mutant_strict():
    """Readiness deps dropped (mutant 5 of tests/check/test_mutants.py)
    from the second step of an out-of-core heat run, under the strict
    checker: the first race raises, after a step the host synced past."""
    lib = TidaAcc(mode="timing", device_memory_limit=310_000, check="strict")
    for name in ("old", "new"):
        lib.add_array(name, (48, 24, 24), n_regions=8, halo=1, n_slots=3)
    kernel = heat_kernel(3)
    orig = TileAcc.device_ready_deps
    try:
        for step in range(3):
            lib.fill_boundary("old", Neumann())
            it = lib.iterator("new", "old").reset(gpu=True)
            while it.is_valid():
                lib.compute(it, kernel, params={"coef": 0.1})
                it.next()
            lib.swap("old", "new")
            lib.synchronize()
            TileAcc.device_ready_deps = lambda self, rid: ()
    finally:
        TileAcc.device_ready_deps = orig


#: name -> (scenario, counters the scenario must drive above zero)
SCENARIOS = {
    "ooc-heat-prefetch": (ooc_heat_prefetch, ("cache.evictions.", "cache.writebacks.",
                                              "cache.prefetch_issued.")),
    "safe-ghost-exchange": (safe_ghost_exchange, ()),
    "multi-gpu-peer": (multi_gpu_peer, ()),
    "events-and-syncs": (events_and_syncs, ("check.hazards.racy",)),
    "transient-faults": (transient_faults, ("faults.retries", "cache.evictions.")),
    "dedup-borrowers": (dedup_borrowers, ("service.dedup_hits",)),
    "racy-mutant-strict": (racy_mutant_strict, ()),
}


def _record(checkers, run):
    """(HazardError message, counters the run reported, per checker: DAG
    JSON, hazard descriptions, ``check.*`` counters)."""
    del checkers[:]
    try:
        counters = (run() or {}).get("counters", {})
        error = None
    except HazardError as exc:
        counters, error = {}, str(exc)
    assert checkers, "the run must be checked"
    return error, counters, [
        (json.dumps(c.dag_export(), sort_keys=True),
         [h.describe() for h in c.hazards],
         {k: v for k, v in c.metrics.snapshot()["counters"].items()
          if k.startswith("check.")})
        for c in checkers
    ]


def _held(checker):
    """Completion records still holding their clocks."""
    return sum(done.strong is not None for done in checker._completions.values())


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_release_changes_no_artifact(scenario, checkers, monkeypatch):
    run, exercised = SCENARIOS[scenario]
    released = []
    synced_past = hazards._synced_past

    def counting(chain):
        synced_past(chain)
        while chain is not None:
            _tick, done, chain = chain
            if done.strong is None:
                released.append(done)

    with monkeypatch.context() as m:
        m.setattr(hazards, "_synced_past", counting)
        got = _record(checkers, run)
    with monkeypatch.context() as m:
        m.setattr(hazards, "_synced_past", lambda chain: None)
        ref = _record(checkers, run)
        assert all(_held(c) == len(c._completions) for c in checkers)
    assert got[0] == ref[0]
    assert got[2] == ref[2]
    # the scenario exercised what it claims, and some clocks went
    assert released
    for prefix in exercised:
        assert sum(v for k, v in got[1].items() if k.startswith(prefix)) > 0, prefix
    dags = [json.loads(dag) for dag, _, _ in got[2]]
    if scenario == "safe-ghost-exchange":
        assert any(kind == "event" for row in dags[0] for _, kind in row["deps"])
    if scenario == "multi-gpu-peer":
        assert any(row["kind"] == "peer" for row in dags[0])
    if scenario == "racy-mutant-strict":
        assert got[0] is not None and "racy" in got[0]


# -- bounded state -------------------------------------------------------------


def _observed_heat_ooc(steps):
    """The benchmark's heat-ooc episode (64^3, 16 regions, 4 slots per
    field, timing mode, observing checker), simulation only.  Returns
    the checker, the records holding clocks at the end of each step, the
    ops issued after the host's last sync, and the ``now`` and ``live``
    of the last retirement pass (the last swap's)."""
    shape, regions, slots = (64, 64, 64), 16, 4
    slab = math.ceil(shape[0] / regions)
    region_bytes = 8 * (slab + 2) * (shape[1] + 2) * (shape[2] + 2)
    lib = TidaAcc(mode="timing", device_memory_limit=2 * slots * region_bytes,
                  check="observe")
    for name in ("u_old", "u_new"):
        lib.add_array(name, shape, n_regions=regions, halo=1, n_slots=slots)
    checker = lib.checker
    ops_at_sync = [0]
    sync = checker.host_sync_stream

    def noting_sync(*args):
        ops_at_sync[0] = len(checker.dag)
        return sync(*args)

    checker.host_sync_stream = noting_sync
    last_pass = []
    retire = checker.retire_streams

    def noting_retire(runtime_id, streams, *, now, live):
        last_pass[:] = [now, set(live)]
        return retire(runtime_id, streams, now=now, live=live)

    checker.retire_streams = noting_retire
    kernel, bc, per_step = heat_kernel(3), Neumann(), []
    for _ in range(steps):
        lib.fill_boundary("u_old", bc)
        it = lib.iterator("u_new", "u_old").reset(gpu=True)
        while it.is_valid():
            lib.compute(it, kernel, params={"coef": 0.1})
            it.next()
        lib.swap("u_old", "u_new")
        per_step.append(_held(checker))
    lib.manager("u_old").flush_to_host()
    lib.synchronize()
    return checker, per_step, len(checker.dag) - ops_at_sync[0], last_pass


class TestBoundedState:
    @pytest.fixture(scope="class")
    def runs(self):
        return {steps: _observed_heat_ooc(steps) for steps in (40, 160)}

    @pytest.mark.parametrize("steps", [40, 160])
    def test_held_clocks_at_most_the_unsynced_ops(self, runs, steps):
        checker, _, unsynced, _ = runs[steps]
        assert len(checker.dag) > 75 * steps          # 3,196 ops at 40 steps
        assert _held(checker) <= unsynced

    @pytest.mark.parametrize("steps", [40, 160])
    def test_records_follow_the_live_schedule(self, runs, steps):
        """A standalone library retires records at each swap: what is left
        is the completion times its managers could still name then, plus
        those that ended after it (3,196 and 12,796 records before)."""
        checker, _, _, (now, live) = runs[steps]
        later = [t for t in checker._completions if t > now]
        assert set(checker._completions) <= live | set(later)
        assert len(checker._completions) <= len(live) + len(later)
        assert len(checker._completions) < 100

    def test_records_do_not_grow_with_the_run(self, runs):
        assert len(runs[40][0]._completions) == len(runs[160][0]._completions)

    def test_held_clocks_per_step_do_not_grow_with_the_run(self, runs):
        short, long = runs[40][1], runs[160][1]
        assert 0 < max(long) <= 100
        assert max(long) == max(short)
