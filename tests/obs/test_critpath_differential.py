"""Differential test: the compiled-DAG critpath against the per-node original.

:mod:`repro.obs.critpath` compiles a DAG once into flat per-op lists and
runs one scheduling loop for both :func:`replay` and
:func:`replay_machine`.  The functions below are the earlier per-node
implementations, kept verbatim (only renamed ``ref_*`` so they call each
other), as the reference; ``ref_overlap_report`` instead merges each
side and intersects the merged lists from scratch, then rescans every
piece for every window.  Every output must match byte for byte under
``json.dumps(sort_keys=True)``: the whole :func:`critpath_summary`, and
every replayed node's ``(start, end, issue)``.

Recorded DAGs cover a checked heat run, a limited-memory run with
eviction write-backs, a trace-only DAG, a multi-GPU run with peer
copies and a run with fault hangs; a hypothesis strategy adds random
DAGs with dangling and forward edges, zero-duration ops, equal-end ties
and iteration marks outside the run.
"""

from __future__ import annotations

import json
import random
from typing import Any, Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.tida_runners import run_tida_compute, run_tida_heat
from repro.check.dag import DagNode
from repro.check.explore import perturb_machine
from repro.config import DEFAULT_MACHINE, MachineSpec, k40m_pcie3
from repro.faults.plan import FaultPlan
from repro.multi.heat import run_multi_gpu_heat
from repro.obs.critpath import (
    TRANSFER_KINDS,
    WHATIF_SCENARIOS,
    PathSegment,
    RunDag,
    Scenario,
    attribution,
    attribution_by_field,
    attribution_by_region,
    categorize,
    critical_path,
    critpath_summary,
    flip_point,
    machine_makespans,
    overlap_report,
    replay,
    replay_machine,
    whatif,
)

# -- the reference: the per-node implementation, verbatim --------------------


def ref_critical_path(nodes: Sequence[DagNode]) -> list[PathSegment]:
    if not nodes:
        return []
    by_id = {n.op_id: n for n in nodes}
    t0 = min(n.start for n in nodes)
    sink = max(nodes, key=lambda n: (n.end, n.op_id))
    segments: list[PathSegment] = []
    cur = sink
    while True:
        segments.append(PathSegment(
            start=cur.start, end=cur.end, category=categorize(cur),
            label=cur.label, op_id=cur.op_id,
        ))
        preds = [by_id[d] for d, _kind in cur.deps if d in by_id]
        if cur.host_dep is not None and cur.host_dep in by_id:
            preds.append(by_id[cur.host_dep])
        preds = [p for p in preds if p.op_id < cur.op_id]
        if not preds:
            if cur.start > t0:
                segments.append(PathSegment(
                    start=t0, end=cur.start, category="host", label="(issue)",
                ))
            break
        binding = max(preds, key=lambda p: (p.end, p.op_id))
        if cur.start > binding.end:
            segments.append(PathSegment(
                start=binding.end, end=cur.start, category="host",
                label=f"(waiting to issue {cur.label})",
            ))
        cur = binding
    segments.reverse()
    return segments


def ref_merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def ref_overlap_report(dag: RunDag) -> list[dict[str, Any]]:
    """From scratch: merge each side, intersect the merged lists, and
    rescan every piece for every window."""
    if not dag.nodes:
        return []
    bounds = [dag.t0]
    for ts in dag.iteration_marks:
        if bounds[-1] < ts < dag.t_end:
            bounds.append(ts)
    bounds.append(dag.t_end)
    kern = ref_merge([(n.start, n.end) for n in dag.nodes
                      if n.kind not in TRANSFER_KINDS])
    copy = ref_merge([(n.start, n.end) for n in dag.nodes
                      if n.kind in TRANSFER_KINDS])
    both = []
    i = j = 0
    while i < len(kern) and j < len(copy):
        lo = max(kern[i][0], copy[j][0])
        hi = min(kern[i][1], copy[j][1])
        if hi > lo:
            both.append((lo, hi))
        if kern[i][1] <= copy[j][1]:
            i += 1
        else:
            j += 1
    rows: list[dict[str, Any]] = []
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        if hi <= lo:
            continue
        compute = transfer = achieved = 0.0
        for a, b in kern:
            clip = min(b, hi) - max(a, lo)
            if clip > 0:
                compute += clip
        for a, b in copy:
            clip = min(b, hi) - max(a, lo)
            if clip > 0:
                transfer += clip
        for a, b in both:
            clip = min(b, hi) - max(a, lo)
            if clip > 0:
                achieved += clip
        wall = hi - lo
        ideal = max(compute, transfer)
        ideal_overlap = min(compute, transfer)
        achieved = min(achieved, ideal_overlap)
        rows.append({
            "iteration": i,
            "wall_s": wall,
            "compute_s": compute,
            "transfer_s": transfer,
            "ideal_s": ideal,
            "achieved_overlap_s": achieved,
            "ideal_overlap_s": ideal_overlap,
            "efficiency": (achieved / ideal_overlap) if ideal_overlap > 0 else 1.0,
        })
    return rows


def ref_scaled_duration(
    node: DagNode, scenario: Scenario, machine: MachineSpec
) -> float:
    dur = node.duration
    if scenario.drop_writebacks and node.label.startswith("evict:"):
        return 0.0
    if node.kind in TRANSFER_KINDS:
        if scenario.link_factor != 1.0:
            lat = min(machine.link.latency, dur)
            dur = lat + (dur - lat) / scenario.link_factor
        return dur
    if scenario.kernel_factor != 1.0:
        dur = dur / scenario.kernel_factor
    if scenario.zero_launch:
        dur = max(0.0, dur - machine.gpu.kernel_launch_overhead)
    return dur


def ref_replay(
    nodes: Sequence[DagNode],
    scenario: Scenario,
    *,
    machine: MachineSpec = DEFAULT_MACHINE,
) -> tuple[list[DagNode], float]:
    ends: dict[int, float] = {}
    prev_issue = 0.0
    out: list[DagNode] = []
    for n in sorted(nodes, key=lambda x: x.op_id):
        host_end = ends.get(n.host_dep, 0.0) if n.host_dep is not None else 0.0
        issue = max(prev_issue, host_end) + n.host_gap
        start = issue
        for dep, _kind in n.deps:
            start = max(start, ends.get(dep, 0.0))
        end = start + ref_scaled_duration(n, scenario, machine)
        ends[n.op_id] = end
        prev_issue = issue
        out.append(n.shifted(start=start, end=end, issue=issue))
    if not out:
        return [], 0.0
    makespan = max(n.end for n in out) - min(n.start for n in out)
    return out, makespan


def ref_machine_duration(
    node: DagNode, machine: MachineSpec, perturbed: MachineSpec
) -> float:
    dur = node.duration
    if node.kind in TRANSFER_KINDS:
        direction = "h2d" if node.kind == "h2d" else "d2h"
        base = machine.link.transfer_time(
            node.nbytes, direction=direction, pinned=True
        )
        new = perturbed.link.transfer_time(
            node.nbytes, direction=direction, pinned=True
        )
        return new + max(0.0, dur - base)
    old_oh = machine.gpu.kernel_launch_overhead
    new_oh = perturbed.gpu.kernel_launch_overhead
    if node.cost is None:
        return new_oh + max(0.0, dur - old_oh)
    mem, flop = node.cost
    body = mem * (machine.gpu.mem_bandwidth / perturbed.gpu.mem_bandwidth)
    body = max(body, flop * (machine.gpu.dp_flops / perturbed.gpu.dp_flops))
    residual = max(0.0, dur - old_oh - max(node.cost))
    return new_oh + body + residual


def ref_replay_machine(
    nodes: Sequence[DagNode],
    *,
    machine: MachineSpec,
    perturbed: MachineSpec,
) -> tuple[list[DagNode], float]:
    gap_scale = (
        perturbed.cpu.api_call_overhead / machine.cpu.api_call_overhead
    )
    ends: dict[int, float] = {}
    prev_issue = 0.0
    out: list[DagNode] = []
    for n in sorted(nodes, key=lambda x: x.op_id):
        host_end = ends.get(n.host_dep, 0.0) if n.host_dep is not None else 0.0
        issue = max(prev_issue, host_end) + n.host_gap * gap_scale
        start = issue
        for dep, _kind in n.deps:
            start = max(start, ends.get(dep, 0.0))
        end = start + ref_machine_duration(n, machine, perturbed)
        ends[n.op_id] = end
        prev_issue = issue
        out.append(n.shifted(start=start, end=end, issue=issue))
    if not out:
        return [], 0.0
    makespan = max(n.end for n in out) - min(n.start for n in out)
    return out, makespan


def ref_bound_of(nodes: Sequence[DagNode]) -> str:
    attr = attribution(ref_critical_path(nodes))
    transfer = sum(attr[c] for c in ("h2d", "d2h", "write-back", "peer"))
    compute = sum(attr[c] for c in ("kernel", "ghost"))
    host = attr["host"]
    top = max(("transfer", transfer), ("compute", compute), ("host", host),
              key=lambda kv: kv[1])
    return top[0]


def ref_whatif(
    dag: RunDag,
    *,
    machine: MachineSpec = DEFAULT_MACHINE,
    scenarios: Sequence[Scenario] = WHATIF_SCENARIOS,
) -> list[dict[str, Any]]:
    _, base = ref_replay(dag.nodes, Scenario("baseline"), machine=machine)
    rows: list[dict[str, Any]] = []
    for sc in scenarios:
        nodes, makespan = ref_replay(dag.nodes, sc, machine=machine)
        rows.append({
            "scenario": sc.name,
            "makespan_s": makespan,
            "speedup": (base / makespan) if makespan > 0 else float("inf"),
            "bound": ref_bound_of(nodes) if nodes else "-",
        })
    return rows


def ref_flip_point(
    dag: RunDag,
    *,
    machine: MachineSpec = DEFAULT_MACHINE,
    factors: Sequence[float] = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0),
) -> float | None:
    nodes, _ = ref_replay(dag.nodes, Scenario("baseline"), machine=machine)
    if not nodes or ref_bound_of(nodes) != "transfer":
        return None
    for f in sorted(factors):
        if f <= 1.0:
            continue
        nodes, _ = ref_replay(
            dag.nodes, Scenario(f"x{f:g}", link_factor=f), machine=machine
        )
        if ref_bound_of(nodes) != "transfer":
            return f
    return float("inf")


def ref_critpath_summary(
    dag: RunDag, *, machine: MachineSpec = DEFAULT_MACHINE
) -> dict[str, Any]:
    segments = ref_critical_path(dag.nodes)
    attr = attribution(segments)
    overlap = ref_overlap_report(dag)
    rows = ref_whatif(dag, machine=machine)
    flip = ref_flip_point(dag, machine=machine)
    return {
        "wall_s": dag.wall,
        "n_ops": len(dag.nodes),
        "path": [
            {
                "start": s.start, "duration": s.duration,
                "category": s.category, "label": s.label, "op": s.op_id,
            }
            for s in segments
        ],
        "attribution": attr,
        "attribution_by_field": attribution_by_field(segments),
        "attribution_by_region": attribution_by_region(segments),
        "overlap": overlap,
        "whatif": rows,
        "flip_link_factor": flip,
    }


# -- comparison helpers ------------------------------------------------------

def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True)


def schedule_bytes(result: tuple[list[DagNode], float]) -> str:
    nodes, makespan = result
    return dumps([[n.op_id, n.start, n.end, n.issue] for n in nodes] + [makespan])


def segments_bytes(segments: list[PathSegment]) -> str:
    return dumps([
        [s.start, s.end, s.category, s.label, s.op_id] for s in segments
    ])


#: Scenarios replayed one by one: the what-if panel plus the flip sweep.
SCENARIOS = WHATIF_SCENARIOS + tuple(
    Scenario(f"x{f:g}", link_factor=f) for f in (1.5, 3.0, 6.0, 16.0)
) + (Scenario("mixed", link_factor=3.0, kernel_factor=0.5, zero_launch=True,
              drop_writebacks=True),)


def assert_same(dag: RunDag, machine: MachineSpec) -> None:
    """Every analysis of ``dag`` matches the reference byte for byte."""
    assert dumps(critpath_summary(dag, machine=machine)) == dumps(
        ref_critpath_summary(dag, machine=machine))
    assert segments_bytes(critical_path(dag.nodes)) == segments_bytes(
        ref_critical_path(dag.nodes))
    assert dumps(overlap_report(dag)) == dumps(ref_overlap_report(dag))
    assert dumps(whatif(dag, machine=machine)) == dumps(
        ref_whatif(dag, machine=machine))
    assert dumps(flip_point(dag, machine=machine)) == dumps(
        ref_flip_point(dag, machine=machine))
    for sc in SCENARIOS:
        assert schedule_bytes(replay(dag.nodes, sc, machine=machine)) == (
            schedule_bytes(ref_replay(dag.nodes, sc, machine=machine))), sc.name
    for seed in (None, 1, 2):
        perturbed = machine if seed is None else perturb_machine(machine, seed)
        assert schedule_bytes(replay_machine(
            dag.nodes, machine=machine, perturbed=perturbed)) == schedule_bytes(
            ref_replay_machine(dag.nodes, machine=machine, perturbed=perturbed))


# -- recorded DAGs -----------------------------------------------------------

MACHINE = k40m_pcie3()
LIMITED = dict(shape=(48, 24, 24), steps=3, n_regions=8, n_slots=2,
               device_memory_limit=2 * 2 * 8 * 8 * 26 * 26 + 4096)
COMPUTE = dict(shape=(64, 16, 16), steps=2, n_regions=8, n_slots=3,
               device_memory_limit=70_000)


def marks_of(trace) -> list[float]:
    return [m["ts"] for m in trace.marks if m["name"] == "iteration"]


class TestRecordedDags:
    def test_heat_run(self, heat_run):
        assert_same(RunDag.from_nodes(heat_run.dag, marks=marks_of(heat_run.trace)),
                    MACHINE)

    def test_limited_memory_eviction_run(self):
        run = run_tida_heat(MACHINE, check="observe", **LIMITED)
        assert any(n.label.startswith("evict:") for n in run.dag)
        assert_same(RunDag.from_nodes(run.dag, marks=marks_of(run.trace)), MACHINE)

    def test_trace_only_dag(self, heat_run):
        dag = RunDag.from_trace(heat_run.trace)
        assert dag.nodes and dag.iteration_marks
        assert_same(dag, MACHINE)

    def test_multi_gpu_peer_dag(self):
        run = run_multi_gpu_heat(MACHINE, shape=(32, 16, 16), steps=2,
                                 check="observe")
        assert any(n.kind == "peer" for n in run.dag)
        assert_same(RunDag.from_nodes(run.dag, marks=marks_of(run.trace)), MACHINE)

    def test_fault_hang_dag(self):
        faults = FaultPlan.from_spec("h2d:hang=0.0005,p=0.3; seed=3")
        run = run_tida_compute(MACHINE, check="observe", faults=faults, **COMPUTE)
        assert run.metrics["counters"].get("faults.injected", 0) > 0
        assert_same(RunDag.from_nodes(run.dag), MACHINE)

    def test_empty_dag(self):
        assert_same(RunDag(nodes=()), MACHINE)


# -- random DAGs -------------------------------------------------------------

LABELS = {
    "h2d": ("h2d:u.r0", "prefetch:u.r1", "ghost:u.r1<-u.r0"),
    "d2h": ("d2h:u.r2", "evict:u.r3", "evict:v.r0"),
    "kernel": ("compute:heat3d:u.r0", "ghost:u.r2<-u.r1", "bc-faces:v.r1"),
    "peer": ("peer:halo",),
}
EDGE_KINDS = ("stream", "event", "after", "engine")

#: Times on a quarter grid: equal ends (ties broken by op id) are common.
quarters = st.integers(0, 24).map(lambda k: k / 4)


@st.composite
def random_dags(draw) -> RunDag:
    """A RunDag with unique op ids and arbitrary edges.

    Edge targets range over ids that are absent, the op's own, and
    later ones as well as earlier ones; ``host_dep`` too.  Durations
    include zero, and marks fall inside, on and outside ``[t0, t_end]``.
    """
    n = draw(st.integers(0, 16))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    edge_target = st.integers(-1, 42)
    nodes = []
    for op_id in ids:
        kind = draw(st.sampled_from(sorted(LABELS)))
        start = draw(quarters)
        nodes.append(DagNode(
            op_id=op_id, kind=kind, label=draw(st.sampled_from(LABELS[kind])),
            start=start, end=start + draw(st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.75))),
            issue=draw(quarters), nbytes=draw(st.integers(0, 1 << 22)),
            streams=((0, draw(st.integers(0, 3))),), engines=(kind,),
            deps=tuple(draw(st.lists(
                st.tuples(edge_target, st.sampled_from(EDGE_KINDS)), max_size=4))),
            host_dep=draw(st.none() | edge_target),
            host_gap=draw(st.sampled_from((0.0, 0.125, 0.5))),
            cost=draw(st.none() | st.tuples(
                st.sampled_from((0.0, 0.25, 1.0)), st.sampled_from((0.0, 0.5, 2.0)))),
        ))
    marks = draw(st.lists(st.integers(-8, 40).map(lambda k: k / 4), max_size=6))
    random.Random(draw(st.integers(0, 3))).shuffle(nodes)
    if draw(st.booleans()):
        return RunDag.from_nodes(nodes, marks=marks)
    # unsorted nodes and marks, as a hand-built RunDag may carry them
    return RunDag(nodes=tuple(nodes), iteration_marks=tuple(marks))


class TestRandomDags:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dag=random_dags(), seed=st.integers(0, 3))
    def test_matches_reference(self, dag, seed):
        machine = MACHINE if seed == 0 else perturb_machine(MACHINE, seed)
        assert_same(dag, machine)

    def test_edge_cases_in_one_dag(self):
        """One hand-built DAG holding every case the strategy draws."""
        nodes = [
            DagNode(op_id=2, kind="h2d", label="h2d:u.r0", start=0.0, end=1.0,
                    issue=0.0, nbytes=1 << 20, streams=((0, 1),),
                    engines=("h2d",), deps=((99, "stream"), (7, "event")),
                    host_dep=7),                          # absent + later
            DagNode(op_id=3, kind="d2h", label="evict:u.r1", start=0.0, end=1.0,
                    issue=0.0, nbytes=1 << 19, streams=((0, 2),),
                    engines=("d2h",), deps=((3, "stream"),), host_dep=42),
            DagNode(op_id=5, kind="kernel", label="compute:k:u.r0", start=1.0,
                    end=1.0, issue=0.5, nbytes=0, streams=((0, 1),),
                    engines=("compute",), deps=((2, "stream"), (3, "event")),
                    host_dep=3, host_gap=0.5, cost=(0.0, 0.0)),   # zero duration
            DagNode(op_id=7, kind="kernel", label="ghost:u.r0<-u.r1", start=1.0,
                    end=2.0, issue=1.0, nbytes=0, streams=((0, 2),),
                    engines=("compute",), deps=((5, "engine"), (3, "stream")),
                    host_dep=None),
            DagNode(op_id=9, kind="h2d", label="h2d:v.r0", start=1.0, end=2.0,
                    issue=1.0, nbytes=1 << 20, streams=((0, 3),),
                    engines=("h2d",), deps=((2, "engine"),)),  # ties op 7's end
        ]
        dag = RunDag(nodes=tuple(reversed(nodes)),
                     iteration_marks=(-1.0, 0.5, 0.5, 3.0, 1.5))
        assert critical_path(dag.nodes)[-1].op_id == 9   # tie -> larger id
        for machine in (MACHINE, perturb_machine(MACHINE, 1)):
            assert_same(dag, machine)


class TestMachineMakespans:
    """``machine_makespans`` (one compile, no nodes rebuilt) gives each
    candidate the makespan the reference machine replay gives."""

    def test_matches_reference_replay(self, heat_run):
        runs = [heat_run.dag, run_tida_compute(MACHINE, check="observe", **COMPUTE).dag,
                RunDag.from_trace(heat_run.trace).nodes, []]
        candidates = [MACHINE] + [perturb_machine(MACHINE, seed) for seed in range(1, 6)]
        for nodes in runs:
            got = machine_makespans(nodes, machine=MACHINE, candidates=candidates)
            want = [ref_replay_machine(nodes, machine=MACHINE, perturbed=c)[1]
                    for c in candidates]
            assert repr(got) == repr(want)
