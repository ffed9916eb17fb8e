"""A library that made its own runtime retires, at each swap, every
completion record that ended by then and that none of its managers can
still name, and that changes no artifact.

Every ``after=`` a library issues comes from one of its managers (or
from a kernel of the same call), so a completion time no manager holds
is never named again.  The reference here never retires
(``HazardChecker.retire_streams`` patched to do nothing).  Each scenario
runs under both and must give the same DAG JSON, hazard descriptions,
``check.*`` counters and ``HazardError`` message, and the shipped run
must have retired records.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Neumann, TidaAcc, heat_kernel
from repro.apps.cg import cg_program
from repro.baselines.tida_runners import run_tida_heat
from repro.check.hazards import HazardChecker
from repro.core.tile_acc import TileAcc
from repro.errors import HazardError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.kernels.reductions import norm2_reduction
from repro.plan import Program


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


def _heat_steps(lib, old, new, steps, *, safe=False, between=None):
    kernel = heat_kernel(3)
    for step in range(steps):
        lib.fill_boundary(old, Neumann(), safe=safe)
        it = lib.iterator(new, old).reset(gpu=True)
        while it.is_valid():
            lib.compute(it, kernel, params={"coef": 0.1})
            it.next()
        lib.swap(old, new)
        if between is not None:
            between(step)


# -- scenarios ----------------------------------------------------------------


def ooc_heat_prefetch():
    """Out-of-core heat: 8 regions through 3 slots per field, evictions
    with write-backs, and lookahead prefetch."""
    return run_tida_heat(shape=(48, 24, 24), steps=4, n_regions=8, n_slots=3,
                         device_memory_limit=310_000, mode="timing",
                         prefetch_depth=2, eviction="lookahead",
                         check="observe").metrics


def safe_ghost_exchange():
    """The hybrid ghost exchange with ``safe=True``: event record/wait
    pairs order each source region's stream."""
    lib = TidaAcc(mode="timing", check="observe")
    for name in ("old", "new"):
        lib.add_array(name, (12, 8, 8), n_regions=3, halo=1)
    _heat_steps(lib, "old", "new", 4, safe=True)
    lib.synchronize()
    return lib.metrics.snapshot()


def events_record_and_wait():
    """Events recorded on one slot stream and waited on by another
    between steps, with an event sync every other step."""
    lib = TidaAcc(mode="timing", check="observe")
    for name in ("old", "new"):
        lib.add_array(name, (16, 8, 8), n_regions=4, halo=1)
    rt = lib.runtime

    def cross_wait(step):
        slots = lib.manager("new").slots
        ev = rt.create_event()
        rt.event_record(ev, slots[0].stream)
        rt.stream_wait_event(slots[-1].stream, ev)
        if step % 2:
            rt.event_synchronize(ev)

    _heat_steps(lib, "old", "new", 4, between=cross_wait)
    lib.synchronize()
    return lib.metrics.snapshot()


def transient_faults():
    """Out-of-core heat whose uploads transient H2D faults kill and the
    retry policy re-issues while eviction write-backs run on their own
    stream."""
    return run_tida_heat(shape=(48, 24, 24), steps=4, n_regions=8, n_slots=3,
                         device_memory_limit=310_000, functional=True,
                         faults=FaultPlan.from_spec("h2d:p=0.25; seed=3"),
                         retry=RetryPolicy(max_attempts=12),
                         check="observe").metrics


def planned_sweep_until():
    """A planned program: ``sweep(until=)`` over heat steps, a swap and a
    reduction per trip, out of core."""
    shape = (32, 16, 16)
    prog = Program(shape, bc=Neumann())
    with prog.sweep(6, until=lambda env: env["rr"] <= env["threshold"]):
        prog.step(heat_kernel(3), ("u_new", "u_old"), params={"coef": 0.1})
        prog.swap("u_old", "u_new")
        prog.reduce(norm2_reduction(), "u_old", store="rr")
    init = np.random.default_rng(5).random(shape)
    lib = TidaAcc(functional=True, device_memory_limit=200_000, check="observe")
    run = lib.run_program(prog, n_regions=8, n_slots=3,
                          inputs={"u_old": init, "u_new": init},
                          env={"rr": np.inf, "threshold": 0.995 * float((init * init).sum())})
    assert 0 < run.iterations < 6          # until= ended the sweep
    lib.synchronize()
    return lib.metrics.snapshot()


def cg_then_swaps():
    """The planned CG solve (reductions, ``sweep(until=)``), then heat
    steps on two more fields of the same library: the first swap's pass
    sees every record the solve left."""
    shape = (8, 6, 6)
    b = np.random.default_rng(3).standard_normal(shape)
    lib = TidaAcc(functional=True, check="observe")
    run = lib.run_program(cg_program(shape, max_iterations=40, tol=1e-8), n_regions=2,
                          inputs={"r": b, "p": b, "x": np.zeros(shape)},
                          env={"threshold": 1e-16 * float((b * b).sum())})
    assert run.iterations > 1
    for name in ("old", "new"):
        lib.add_array(name, shape, n_regions=2, halo=1)
    _heat_steps(lib, "old", "new", 3)
    lib.synchronize()
    return lib.metrics.snapshot()


def racy_mutant_strict():
    """Readiness deps dropped (mutant 5 of tests/check/test_mutants.py)
    from the third step of an out-of-core heat run, under the strict
    checker: the first race raises, after two retirement passes."""
    lib = TidaAcc(mode="timing", device_memory_limit=310_000, check="strict")
    for name in ("old", "new"):
        lib.add_array(name, (48, 24, 24), n_regions=8, halo=1, n_slots=3)
    orig = TileAcc.device_ready_deps

    def mutate(step):
        if step == 1:
            TileAcc.device_ready_deps = lambda self, rid: ()

    try:
        _heat_steps(lib, "old", "new", 4, between=mutate)
    finally:
        TileAcc.device_ready_deps = orig


#: name -> (scenario, counters the scenario must drive above zero)
SCENARIOS = {
    "ooc-heat-prefetch": (ooc_heat_prefetch, ("cache.evictions.", "cache.writebacks.",
                                              "cache.prefetch_issued.")),
    "safe-ghost-exchange": (safe_ghost_exchange, ()),
    "events-record-and-wait": (events_record_and_wait, ()),
    "transient-faults": (transient_faults, ("faults.retries", "cache.evictions.")),
    "planned-sweep-until": (planned_sweep_until, ("cache.evictions.",)),
    "cg-then-swaps": (cg_then_swaps, ()),
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


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_retirement_changes_no_artifact(scenario, checkers, monkeypatch):
    run, exercised = SCENARIOS[scenario]
    retired = []
    retire = HazardChecker.retire_streams

    def counting(self, runtime_id, streams, *, now, live):
        before = len(self._completions)
        retire(self, runtime_id, streams, now=now, live=live)
        retired.append(before - len(self._completions))

    with monkeypatch.context() as m:
        m.setattr(HazardChecker, "retire_streams", counting)
        got = _record(checkers, run)
    with monkeypatch.context() as m:
        m.setattr(HazardChecker, "retire_streams", lambda self, *a, **k: None)
        ref = _record(checkers, run)
    assert got[0] == ref[0]
    assert got[2] == ref[2]
    # the scenario exercised what it claims, and records went
    assert sum(retired) > 0
    for prefix in exercised:
        assert sum(v for k, v in got[1].items() if k.startswith(prefix)) > 0, prefix
    dags = [json.loads(dag) for dag, _, _ in got[2]]
    kinds = {kind for row in dags[0] for _, kind in row["deps"]}
    assert "after" in kinds
    if scenario in ("safe-ghost-exchange", "events-record-and-wait"):
        assert "event" in kinds
    if scenario in ("planned-sweep-until", "cg-then-swaps"):
        assert any(row["label"].startswith("reduce:") for row in dags[0])
    if scenario == "racy-mutant-strict":
        assert got[0] is not None and "racy" in got[0]


def test_a_library_on_a_shared_runtime_leaves_records_alone():
    """Only the runtime's owner knows every caller that may name a time."""
    owner = TidaAcc(mode="timing", check="observe")
    lib = TidaAcc(runtime=owner.runtime, acc=owner.acc)
    for name in ("old", "new"):
        lib.add_array(name, (16, 8, 8), n_regions=4, halo=1)
    _heat_steps(lib, "old", "new", 3)
    assert len(owner.checker._completions) == len(
        {node.end for node in owner.checker.dag})
