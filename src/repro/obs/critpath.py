"""Critical-path profiling, overlap attribution, and what-if analysis.

The paper's claim (Figs. 3-7) is that tiled pipelining hides PCIe
transfers behind compute.  Lane utilization says how busy each engine
was; it cannot say *which* operations bound the run.  This module
answers that from the causal run DAG the hazard checker records
(:mod:`repro.check.dag`): every device operation with its strong-order
edges — stream FIFO, event waits, explicit ``after=`` components — plus
the engine-FIFO edge that bound its start on *this* machine, the host
sync it waited for, and the host-only time before its issue.

Three analyses build on the DAG:

* **critical path** (:func:`critical_path`): walk backward from the
  last-finishing operation, always to the predecessor whose completion
  bound the start; intervals where no predecessor was running are
  attributed to the host ("host stall").  The resulting segments
  partition the wall time exactly, so the per-category attribution sums
  to the end-to-end time by construction.
* **overlap efficiency** (:func:`overlap_report`): per iteration (the
  library marks each ``swap``), compare the achieved wall time with the
  ideal ``max(compute, transfer)`` lower bound — the Fig. 3/7 metric,
  computed instead of eyeballed.
* **what-if** (:func:`whatif`, :func:`replay`): re-schedule the DAG
  under perturbed machine parameters (PCIe x2, zero launch latency,
  faster kernels, unlimited slots) keeping the recorded issue order and
  host behaviour fixed, and report predicted speedups plus the link
  speed at which the bottleneck flips from transfer- to compute-bound.

Each analysis compiles the DAG once into flat per-op lists
(:class:`_CompiledDag`) and runs one scheduling loop over them;
:func:`replay` (scenario durations) and :func:`replay_machine` (durations
on another :class:`MachineSpec`) differ only in the per-op durations and
host-gap scale they feed it.

When a run carries only a trace (no checker, hence no DAG),
:meth:`RunDag.from_trace` reconstructs a coarser DAG from stream and
lane FIFO order alone — good enough for the critical path and the
attribution, while host stalls absorb what the missing host edges
cannot explain.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from typing import Any, Iterable, Sequence

from ..check.dag import DagNode, dag_from_json
from ..config import DEFAULT_MACHINE, MachineSpec
from ..sim.intervals import IntervalUnion, intersection
from ..sim.trace import Trace

__all__ = [
    "BLAME_COMPONENTS",
    "PathSegment",
    "RunDag",
    "Scenario",
    "WHATIF_SCENARIOS",
    "attribution",
    "blame_decomposition",
    "blame_summary",
    "categorize",
    "critical_path",
    "critpath_metrics",
    "critpath_summary",
    "field_of",
    "flip_point",
    "job_phases",
    "machine_makespans",
    "overlap_report",
    "region_of",
    "replay",
    "replay_machine",
    "whatif",
]

_op_id = attrgetter("op_id")

#: DAG node kinds that occupy a copy engine (the "transfer" side of the
#: overlap bound); everything else is compute.
TRANSFER_KINDS = ("h2d", "d2h", "peer")

#: Attribution categories, in display order.
CATEGORIES = ("kernel", "h2d", "d2h", "write-back", "ghost", "peer", "host")


def categorize(node: DagNode) -> str:
    """Attribution category of one DAG node, from its kind and label.

    Labels follow the runtime's conventions: ``evict:`` prefixes mark
    slot-eviction write-backs (a D2H the pipeline *caused*, as opposed
    to a requested flush), ``ghost:``/``bc-faces:`` mark the hybrid
    ghost-exchange work of §IV-B.6 regardless of which engine ran it.
    """
    label = node.label
    if label.startswith("evict:"):
        return "write-back"
    if label.startswith(("ghost:", "bc-faces:")):
        return "ghost"
    if node.kind == "peer":
        return "peer"
    if node.kind in ("h2d", "d2h"):
        return node.kind
    return "kernel"


def _label_target(label: str) -> str:
    """The ``field.rN`` token a label acts on (empty when unparseable)."""
    token = label.rsplit(":", 1)[-1]
    return token.split("<-", 1)[0]           # ghost:dst<-src: keep the dst


def field_of(label: str) -> str:
    """Field name a label targets (``"-"`` when it names none)."""
    token = _label_target(label)
    if ".r" in token:
        return token.rsplit(".r", 1)[0]
    return token or "-"


def region_of(label: str) -> str:
    """``field.rN`` region tag of a label (``"-"`` when it names none)."""
    token = _label_target(label)
    return token if ".r" in token else "-"


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One interval of the critical path: an operation, or a host gap."""

    start: float
    end: float
    category: str
    label: str
    op_id: int | None = None     # None for host-stall gaps

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class RunDag:
    """A run's causal DAG plus its iteration boundaries."""

    nodes: tuple[DagNode, ...]
    iteration_marks: tuple[float, ...] = ()

    @cached_property
    def t0(self) -> float:
        return min((n.start for n in self.nodes), default=0.0)

    @cached_property
    def t_end(self) -> float:
        return max((n.end for n in self.nodes), default=0.0)

    @property
    def wall(self) -> float:
        return self.t_end - self.t0

    @classmethod
    def from_nodes(
        cls, nodes: Iterable[DagNode], *, marks: Iterable[float] = ()
    ) -> "RunDag":
        return cls(
            nodes=tuple(sorted(nodes, key=_op_id)),
            iteration_marks=tuple(sorted(marks)),
        )

    @classmethod
    def from_manifest(cls, data: dict[str, Any]) -> "RunDag | None":
        """Load from a run manifest's ``"dag"`` key (None when absent).

        Iteration marks come from the manifest's trace events when
        present (``ph: "i"`` instants named ``iteration``).
        """
        rows = data.get("dag")
        if not rows:
            return None
        marks = [
            e.get("ts", 0.0) / 1e6
            for e in data.get("traceEvents", ())
            if e.get("name") == "iteration" and e.get("ph") == "i"
        ]
        return cls.from_nodes(dag_from_json(rows), marks=marks)

    @classmethod
    def from_trace(cls, trace: Trace) -> "RunDag":
        """Coarse DAG from a bare trace: stream FIFO + lane FIFO edges.

        Without the checker there are no event/after/host edges; the
        critical-path walk charges the unexplained waiting to the host,
        and :func:`replay` treats every issue as immediate.  Use the
        checker-recorded DAG when prediction accuracy matters.
        """
        events = sorted(
            (e for e in trace if e.category in ("h2d", "d2h", "kernel")),
            key=lambda e: (e.start, e.end),
        )
        last_stream: dict[Any, tuple[int, float]] = {}
        last_lane: dict[str, tuple[int, float]] = {}
        nodes: list[DagNode] = []
        for op_id, e in enumerate(events):
            deps: dict[int, str] = {}
            if e.stream is not None and e.stream in last_stream:
                deps.setdefault(last_stream[e.stream][0], "stream")
            if e.lane in last_lane:
                deps.setdefault(last_lane[e.lane][0], "engine")
            nodes.append(DagNode(
                op_id=op_id, kind=e.category, label=e.name,
                start=e.start, end=e.end, issue=e.start, nbytes=e.nbytes,
                streams=((0, e.stream),) if e.stream is not None else (),
                engines=(e.lane,), deps=tuple(sorted(deps.items())),
            ))
            if e.stream is not None:
                last_stream[e.stream] = (op_id, e.end)
            last_lane[e.lane] = (op_id, e.end)
        marks = [m["ts"] for m in trace.marks if m["name"] == "iteration"]
        return cls.from_nodes(nodes, marks=marks)


# -- the compiled DAG --------------------------------------------------------

class _CompiledDag:
    """A DAG flattened once into per-op lists, in op-id order.

    Every analysis below — the replay's scheduling rule, the
    critical-path walk, the what-if panel — runs over these lists
    instead of re-reading :class:`DagNode` fields and id dictionaries.
    Ops are addressed by position; position ``n`` (one past the last op)
    is a sentinel whose end time is always ``0.0``, the value the
    scheduling rule reads for an edge to an op that is absent or not yet
    scheduled (the same or a later op id).  Op ids are assumed unique,
    as the hazard checker assigns them.
    """

    def __init__(self, nodes: Iterable[DagNode]) -> None:
        self.nodes = sorted(nodes, key=_op_id)
        n = len(self.nodes)
        index = {node.op_id: i for i, node in enumerate(self.nodes)}.get
        #: ordering-edge predecessors, in recorded order (sentinel kept),
        #: flat: op ``i``'s are ``deps[dep_ends[i - 1]:dep_ends[i]]`` (from
        #: 0 for the first op), one list and one array instead of a tuple
        #: per op
        self.deps: list[int] = []
        self.dep_ends = array("q")
        #: the op the host last blocked on before each issue
        self.host_deps: list[int] = []
        extend = self.deps.extend
        for i, node in enumerate(self.nodes):
            extend([j if (j := index(d, n)) < i else n for d, _kind in node.deps])
            self.dep_ends.append(len(self.deps))
            host = index(node.host_dep, n)
            self.host_deps.append(host if host < i else n)
        self.host_gaps = [node.host_gap for node in self.nodes]

    @cached_property
    def preds(self) -> tuple[list[int], array]:
        """The predecessors the critical-path walk may step to, flat like
        :attr:`deps`: ``(preds, ends)``, op ``i``'s being
        ``preds[ends[i - 1]:ends[i]]``."""
        n = len(self.nodes)
        preds: list[int] = []
        ends = array("q")
        deps, start = self.deps, 0
        for end, host in zip(self.dep_ends, self.host_deps):
            preds.extend([j for j in deps[start:end] if j < n])
            if host < n:
                preds.append(host)
            ends.append(len(preds))
            start = end
        return preds, ends

    @cached_property
    def categories(self) -> list[str]:
        known: dict[tuple[str, str], str] = {}    # labels repeat every step
        out = []
        for node in self.nodes:
            key = (node.kind, node.label)
            cat = known.get(key)
            if cat is None:
                cat = known[key] = categorize(node)
            out.append(cat)
        return out

    @cached_property
    def durations(self) -> list[float]:
        """Recorded durations."""
        return [node.end - node.start for node in self.nodes]

    @cached_property
    def by_class(self) -> tuple[list[int], list[int], list[int]]:
        """Positions of (transfers, kernels, eviction write-backs): the
        ops each :class:`Scenario` knob rescales."""
        transfers: list[int] = []
        kernels: list[int] = []
        evictions: list[int] = []
        for i, node in enumerate(self.nodes):
            (transfers if node.kind in TRANSFER_KINDS else kernels).append(i)
            if node.label.startswith("evict:"):
                evictions.append(i)
        return transfers, kernels, evictions

    def schedule(
        self, durations: Sequence[float], gap_scale: float
    ) -> tuple[list[float], list[float], list[float]]:
        """The one scheduling rule; returns (starts, ends, issues).

        ``issue' = max(previous issue', end'(host_dep)) + host_gap *
        gap_scale`` and ``start' = max(issue', ordering-edge ends')``,
        with ``end' = start' + durations[i]``.  Every replay — what-if
        scenarios and the machine surrogate — differs only in the
        per-op ``durations`` and the host-gap scale it passes here.
        """
        n = len(self.nodes)
        ends = [0.0] * (n + 1)          # ends[n] is the sentinel
        starts = [0.0] * n
        issues = [0.0] * n
        gaps = (self.host_gaps if gap_scale == 1.0
                else [gap * gap_scale for gap in self.host_gaps])
        deps = self.deps
        issue = 0.0
        i = first = 0
        for host, gap, last, dur in zip(self.host_deps, gaps, self.dep_ends, durations):
            host_end = ends[host]
            issue = (host_end if host_end > issue else issue) + gap
            start = issue
            for j in deps[first:last]:
                end = ends[j]
                if end > start:
                    start = end
            first = last
            starts[i] = start
            issues[i] = issue
            ends[i] = start + dur
            i += 1
        ends.pop()
        return starts, ends, issues

    def chain(self, starts: Sequence[float], ends: Sequence[float]) -> list[int]:
        """The ops on the critical path of a schedule, in time order.

        Walks back from the latest-ending op (the highest id among
        ties), each time to the predecessor whose end bound the op's
        start: the latest-ending one, the highest id among ties.  The
        path's host time lies between consecutive ops (``ends[prev]`` to
        ``starts[op]``, when positive) and before the first op (from the
        schedule's earliest start).
        """
        last = max(ends)
        cur = len(ends) - 1 - ends[::-1].index(last)   # latest end, then id
        preds, pred_ends = self.preds
        out = [cur]
        while True:
            p = preds[pred_ends[cur - 1] if cur else 0:pred_ends[cur]]
            if not p:
                break
            binding = p[0]
            bend = ends[binding]
            for j in p:
                end = ends[j]
                if end > bend or (end == bend and j > binding):
                    binding, bend = j, end
            out.append(binding)
            cur = binding
        out.reverse()
        return out


# -- critical path ----------------------------------------------------------

def _critical_path(dag: _CompiledDag) -> list[PathSegment]:
    if not dag.nodes:
        return []
    segments: list[PathSegment] = []
    starts = [node.start for node in dag.nodes]
    ends = [node.end for node in dag.nodes]
    prev_end = min(starts)
    for k, i in enumerate(dag.chain(starts, ends)):
        node = dag.nodes[i]
        start = starts[i]
        if start > prev_end:
            label = "(issue)" if k == 0 else f"(waiting to issue {node.label})"
            segments.append(PathSegment(prev_end, start, "host", label))
        segments.append(PathSegment(start, ends[i], dag.categories[i],
                                    node.label, node.op_id))
        prev_end = ends[i]
    return segments


def critical_path(nodes: Sequence[DagNode]) -> list[PathSegment]:
    """The chain of operations that bound the end-to-end time.

    Walks backward from the last-finishing node, at each step to the
    predecessor (ordering edge or host sync) whose completion was the
    latest — by the scheduling rule ``start = max(issue, dep ends)``
    that predecessor is what the operation actually waited for.  Time
    between the binding predecessor's end and the operation's start is
    host-bound (API overhead, host compute, issue latency) and becomes
    a ``"host"`` segment.  The returned segments tile ``[t0, t_end]``
    exactly, so their durations sum to the wall time.
    """
    return _critical_path(_CompiledDag(nodes))


def attribution(segments: Sequence[PathSegment]) -> dict[str, float]:
    """Seconds of critical path per category (zero-filled, display order)."""
    out = {c: 0.0 for c in CATEGORIES}
    for seg in segments:
        out[seg.category] = out.get(seg.category, 0.0) + seg.duration
    return out


def _grouped(
    segments: Sequence[PathSegment], group_of
) -> dict[str, dict[str, float]]:
    """Category seconds per group of op label (host gaps under ``"-"``)."""
    out: dict[str, dict[str, float]] = {}
    groups: dict[str, str] = {}        # label -> group, each parsed once
    for seg in segments:
        if seg.op_id is None:
            group = "-"
        else:
            group = groups.get(seg.label)
            if group is None:
                group = groups[seg.label] = group_of(seg.label)
        cats = out.setdefault(group, {})
        cats[seg.category] = cats.get(seg.category, 0.0) + seg.duration
    return out


def attribution_by_field(
    segments: Sequence[PathSegment],
) -> dict[str, dict[str, float]]:
    """Per-field category seconds on the path (host gaps under ``"-"``)."""
    return _grouped(segments, field_of)


def attribution_by_region(
    segments: Sequence[PathSegment],
) -> dict[str, dict[str, float]]:
    """Per-region (``field.rN``) category seconds on the path."""
    return _grouped(segments, region_of)


# -- overlap efficiency -----------------------------------------------------

def overlap_report(dag: RunDag) -> list[dict[str, Any]]:
    """Achieved vs. ideal overlap, per iteration.

    An iteration runs between consecutive ``iteration`` marks (the
    library emits one per ``swap``); a run without marks is one
    iteration.  Within each window, ``compute`` and ``transfer`` are the
    merged busy time of kernel-kind and copy-engine nodes (clipped to
    the window; two copy engines busy at once count once).  The pipeline
    cannot finish the window faster than ``ideal = max(compute,
    transfer)``; the overlap it *achieved* is the length of their
    intersection, out of an ideal ``min(compute, transfer)``.
    """
    if not dag.nodes:
        return []
    t_end = dag.t_end
    bounds = [dag.t0]
    for ts in dag.iteration_marks:
        if bounds[-1] < ts < t_end:
            bounds.append(ts)
    bounds.append(t_end)
    windows = len(bounds) - 1
    kernels = IntervalUnion((n.start, n.end) for n in dag.nodes if n.kind not in TRANSFER_KINDS)
    copies = IntervalUnion((n.start, n.end) for n in dag.nodes if n.kind in TRANSFER_KINDS)
    compute, transfer, both = [0.0] * windows, [0.0] * windows, [0.0] * windows
    # each merged piece adds its clipped length to the windows it spans,
    # so every window sums its pieces in time order
    for sums, pieces in ((compute, zip(kernels.lo, kernels.hi)),
                         (transfer, zip(copies.lo, copies.hi)),
                         (both, intersection(kernels, copies))):
        for a, b in pieces:
            first = max(bisect_right(bounds, a) - 1, 0)
            for i in range(first, min(bisect_left(bounds, b), windows)):
                clip = min(b, bounds[i + 1]) - max(a, bounds[i])
                if clip > 0:
                    sums[i] += clip
    rows: list[dict[str, Any]] = []
    for i in range(windows):
        lo, hi = bounds[i], bounds[i + 1]
        if hi <= lo:
            continue
        ideal_overlap = min(compute[i], transfer[i])
        # the intersection lies inside both unions; summing its pieces
        # can still round an ulp past the shorter side's total
        achieved = min(both[i], ideal_overlap)
        rows.append({
            "iteration": i,
            "wall_s": hi - lo,
            "compute_s": compute[i],
            "transfer_s": transfer[i],
            "ideal_s": max(compute[i], transfer[i]),
            "achieved_overlap_s": achieved,
            "ideal_overlap_s": ideal_overlap,
            "efficiency": (achieved / ideal_overlap) if ideal_overlap > 0 else 1.0,
        })
    return rows


# -- what-if replay ---------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A machine perturbation to replay the recorded schedule under.

    ``link_factor`` scales PCIe bandwidth (transfer durations keep
    their fixed latency: ``dur' = latency + (dur - latency)/factor``,
    matching :meth:`LinkSpec.transfer_time` exactly); ``kernel_factor``
    scales kernel throughput; ``zero_launch`` removes the per-launch
    overhead; ``drop_writebacks`` zeroes eviction write-backs — the
    limit of "enough slots that nothing is ever evicted".
    """

    name: str
    link_factor: float = 1.0
    kernel_factor: float = 1.0
    zero_launch: bool = False
    drop_writebacks: bool = False


#: The default what-if panel printed by ``obs.report --critpath``.
WHATIF_SCENARIOS = (
    Scenario("baseline"),
    Scenario("pcie x2", link_factor=2.0),
    Scenario("pcie x4", link_factor=4.0),
    Scenario("nvlink (x5)", link_factor=5.0),
    Scenario("kernels x2", kernel_factor=2.0),
    Scenario("zero launch latency", zero_launch=True),
    Scenario("unlimited slots", drop_writebacks=True),
)


def _scenario_durations(
    dag: _CompiledDag, scenario: Scenario, machine: MachineSpec
) -> list[float]:
    """Per-op durations under ``scenario`` (recorded ones, rescaled)."""
    out = list(dag.durations)
    transfers, kernels, evictions = dag.by_class
    factor = scenario.link_factor
    if factor != 1.0:
        latency = machine.link.latency
        for i in transfers:
            dur = out[i]
            lat = dur if dur < latency else latency
            out[i] = lat + (dur - lat) / factor
    factor = scenario.kernel_factor
    if factor != 1.0:
        for i in kernels:
            out[i] = out[i] / factor
    if scenario.zero_launch:
        launch = machine.gpu.kernel_launch_overhead
        for i in kernels:
            out[i] = max(0.0, out[i] - launch)
    if scenario.drop_writebacks:
        for i in evictions:
            out[i] = 0.0
    return out


def _replayed(
    dag: _CompiledDag, durations: Sequence[float], gap_scale: float
) -> tuple[list[DagNode], float]:
    """Schedule ``dag`` with these inputs; the rescheduled nodes + makespan."""
    if not dag.nodes:
        return [], 0.0
    starts, ends, issues = dag.schedule(durations, gap_scale)
    out = [
        n.shifted(start=start, end=end, issue=issue)
        for n, start, end, issue in zip(dag.nodes, starts, ends, issues)
    ]
    return out, max(ends) - min(starts)


def replay(
    nodes: Sequence[DagNode],
    scenario: Scenario,
    *,
    machine: MachineSpec = DEFAULT_MACHINE,
) -> tuple[list[DagNode], float]:
    """Re-schedule the DAG under ``scenario``; returns (nodes', makespan).

    The replay keeps the recorded structure fixed — issue order, stream
    assignment, engine FIFO order, host think time (``host_gap``) — and
    recomputes times with the scheduling rule the simulator itself
    uses: ``issue' = max(previous issue', end'(host sync)) + host_gap``
    and ``start' = max(issue', ordering-edge ends')``.  Under the
    identity scenario this reproduces the recorded schedule exactly;
    under a perturbation it predicts what the same program would have
    done, up to schedule decisions (eviction choices, FIFO races) that
    a re-run might make differently.
    """
    dag = _CompiledDag(nodes)
    return _replayed(dag, _scenario_durations(dag, scenario, machine), 1.0)


def _machine_duration(
    node: DagNode, machine: MachineSpec, perturbed: MachineSpec
) -> float:
    """Duration of one recorded op under ``perturbed``, from first principles.

    Transfers are recomputed exactly the way the runtime computes them —
    ``link.transfer_time(nbytes, direction, pinned=True)`` (peer copies
    price at D2H rate, matching :meth:`MultiGpuRuntime.peer_copy`) — plus
    the *residual* between the recorded duration and what the recording
    machine's formula predicts.  The residual carries everything the
    formula does not see (fault hang time, pageable staging, managed
    migration) unchanged into the replay, so perturbing the link never
    erases a fault injection and the identity replay is exact.

    Kernels rescale each recorded roofline leg (:attr:`DagNode.cost`) by
    the bandwidth/throughput ratio and re-take the max — reproducing
    roofline crossovers a re-simulation would find — then swap the launch
    overhead.  Nodes recorded without cost legs (older manifests, copy
    kernels from bare traces) keep their body time and only swap the
    overhead.  Geometry-efficiency and math-model perturbations are not
    modelled here; legs that change those must fall back to simulation.
    """
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


def replay_machine(
    nodes: Sequence[DagNode],
    *,
    machine: MachineSpec,
    perturbed: MachineSpec,
) -> tuple[list[DagNode], float]:
    """Re-schedule a recorded DAG on a different machine; (nodes', makespan).

    The sweep surrogate: :func:`~repro.check.explore.conformance_matrix`
    and replay-strategy autotuning record one DAG per (workload, shape)
    and call this for every candidate machine instead of re-simulating.
    Same scheduling rule as :func:`replay` — recorded issue order, stream
    and engine structure, and host think time are kept; only per-op
    durations (see :func:`_machine_duration`) and the host gaps (scaled
    by the API-call-overhead ratio) change.  ``replay_machine(nodes,
    machine=m, perturbed=m)`` reproduces the recording byte-exactly.
    """
    dag = _CompiledDag(nodes)
    return _replayed(dag, *_machine_inputs(dag, machine, perturbed))


def machine_makespans(
    nodes: Sequence[DagNode],
    *,
    machine: MachineSpec,
    candidates: Sequence[MachineSpec],
) -> list[float]:
    """``replay_machine(nodes, machine=machine, perturbed=c)[1]`` for each
    candidate ``c``: the DAG is compiled once and no node is rebuilt,
    which is all a sweep that ranks machines by makespan needs."""
    dag = _CompiledDag(nodes)
    out: list[float] = []
    for perturbed in candidates:
        if dag.nodes:
            starts, ends, _ = dag.schedule(*_machine_inputs(dag, machine, perturbed))
            out.append(max(ends) - min(starts))
        else:
            out.append(0.0)
    return out


def _machine_inputs(
    dag: _CompiledDag, machine: MachineSpec, perturbed: MachineSpec
) -> tuple[list[float], float]:
    """Per-op durations on ``perturbed`` and the host-gap scale."""
    durations = [_machine_duration(n, machine, perturbed) for n in dag.nodes]
    gap_scale = (
        perturbed.cpu.api_call_overhead / machine.cpu.api_call_overhead
    )
    return durations, gap_scale


def _bound_of(
    dag: _CompiledDag, starts: Sequence[float], ends: Sequence[float]
) -> str:
    """``"transfer"``/``"compute"``/``"host"``: what dominates the path."""
    attr = dict.fromkeys(CATEGORIES, 0.0)
    categories = dag.categories
    prev_end = min(starts)
    for i in dag.chain(starts, ends):
        start = starts[i]
        if start > prev_end:
            attr["host"] += start - prev_end
        attr[categories[i]] += ends[i] - start
        prev_end = ends[i]
    transfer = sum(attr[c] for c in ("h2d", "d2h", "write-back", "peer"))
    compute = sum(attr[c] for c in ("kernel", "ghost"))
    host = attr["host"]
    top = max(("transfer", transfer), ("compute", compute), ("host", host),
              key=lambda kv: kv[1])
    return top[0]


#: Memo of one summary's replays: unnamed scenario -> (makespan, bound).
_Memo = dict[Scenario, tuple[float, str]]


def _outcome(
    dag: _CompiledDag, scenario: Scenario, machine: MachineSpec, memo: _Memo
) -> tuple[float, str]:
    """(makespan, bound) of ``dag`` replayed under ``scenario``.

    For one DAG and machine a scenario's fields other than its name fix
    the duration vector (host gaps keep scale 1), so one replay serves
    every scenario and flip factor with the same fields.  Only the two
    results are kept, not the vector or the schedule.
    """
    key = replace(scenario, name="")
    hit = memo.get(key)
    if hit is None:
        if dag.nodes:
            durations = _scenario_durations(dag, scenario, machine)
            starts, ends, _issues = dag.schedule(durations, 1.0)
            hit = (max(ends) - min(starts), _bound_of(dag, starts, ends))
        else:
            hit = (0.0, "-")
        memo[key] = hit
    return hit


def _whatif(
    dag: _CompiledDag, machine: MachineSpec, scenarios: Sequence[Scenario],
    memo: _Memo,
) -> list[dict[str, Any]]:
    base, _ = _outcome(dag, Scenario("baseline"), machine, memo)
    rows: list[dict[str, Any]] = []
    for sc in scenarios:
        makespan, bound = _outcome(dag, sc, machine, memo)
        rows.append({
            "scenario": sc.name,
            "makespan_s": makespan,
            "speedup": (base / makespan) if makespan > 0 else float("inf"),
            "bound": bound,
        })
    return rows


def whatif(
    dag: RunDag,
    *,
    machine: MachineSpec = DEFAULT_MACHINE,
    scenarios: Sequence[Scenario] = WHATIF_SCENARIOS,
) -> list[dict[str, Any]]:
    """Predicted makespan/speedup per scenario, against the identity replay.

    Speedups are measured against the *replayed* baseline, not the raw
    recorded wall time, so modelling error common to both cancels out.
    """
    return _whatif(_CompiledDag(dag.nodes), machine, scenarios, {})


#: Link-speed factors :func:`flip_point` sweeps by default.
_FLIP_FACTORS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


def _flip_point(
    dag: _CompiledDag, machine: MachineSpec, factors: Sequence[float],
    memo: _Memo,
) -> float | None:
    if not dag.nodes:
        return None
    if _outcome(dag, Scenario("baseline"), machine, memo)[1] != "transfer":
        return None
    for f in sorted(factors):
        if f <= 1.0:
            continue
        sc = Scenario(f"x{f:g}", link_factor=f)
        if _outcome(dag, sc, machine, memo)[1] != "transfer":
            return f
    return float("inf")


def flip_point(
    dag: RunDag,
    *,
    machine: MachineSpec = DEFAULT_MACHINE,
    factors: Sequence[float] = _FLIP_FACTORS,
) -> float | None:
    """Smallest link-speed factor at which the run stops being transfer-bound.

    Returns ``None`` when the baseline is already compute- or host-bound
    (nothing to flip), or ``inf`` when even the largest swept factor
    leaves it transfer-bound.
    """
    return _flip_point(_CompiledDag(dag.nodes), machine, factors, {})


# -- summaries --------------------------------------------------------------

def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name).strip("_")


def critpath_summary(
    dag: RunDag, *, machine: MachineSpec = DEFAULT_MACHINE
) -> dict[str, Any]:
    """Everything the critpath analyses produce, as one JSON-able dict.

    This is what the harness embeds under a manifest's ``"critpath"``
    key and what :func:`critpath_metrics` flattens for ``--compare``
    gating.
    """
    compiled = _CompiledDag(dag.nodes)
    segments = _critical_path(compiled)
    attr = attribution(segments)
    overlap = overlap_report(dag)
    memo: _Memo = {}        # whatif and flip_point share their replays
    rows = _whatif(compiled, machine, WHATIF_SCENARIOS, memo)
    flip = _flip_point(compiled, machine, _FLIP_FACTORS, memo)
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


def critpath_metrics(summary: dict[str, Any]) -> dict[str, float]:
    """Flat ``critpath.*`` counters for snapshot comparison / CI gating.

    Category seconds and wall time are lower-is-better by the default
    comparison rule; names carrying ``overlap``/``speedup`` fragments
    are higher-is-better (see :mod:`repro.obs.compare`).
    """
    out: dict[str, float] = {"critpath.wall_s": float(summary["wall_s"])}
    for cat, secs in summary["attribution"].items():
        out[f"critpath.path.{_slug(cat)}_s"] = float(secs)
    overlap = summary.get("overlap") or []
    if overlap:
        ideal = sum(r["ideal_overlap_s"] for r in overlap)
        achieved = sum(r["achieved_overlap_s"] for r in overlap)
        out["critpath.overlap_efficiency"] = (
            achieved / ideal if ideal > 0 else 1.0
        )
    for row in summary.get("whatif", ()):
        out[f"critpath.whatif.{_slug(row['scenario'])}.speedup"] = float(
            row["speedup"]
        )
    return out


# -- multi-tenant contention blame ------------------------------------------

#: Blame components, in display order.  Signed seconds; they sum to the
#: multiplexed-minus-solo latency delta by construction.
BLAME_COMPONENTS = (
    "queueing_wait",
    "admission_deferral",
    "quantum_preemption",
    "slot_quota_shrink",
    "shed_slots",
    "barrier_interference",
)


def job_phases(timeline: dict[str, Any]) -> dict[str, float]:
    """Phase decomposition of one job's lifecycle timeline.

    ``timeline`` is :attr:`repro.service.JobResult.timeline` — the
    virtual-clock stamps the service records for every job.  The five
    phases tile the latency exactly: ``queueing`` + ``deferral`` =
    admit - submit (split by recorded wait reasons), ``preemption`` +
    ``own`` = last quantum end - admit (gaps where other tenants held
    the device vs. the job's own quantum time), and ``drain`` = final
    write-back completion - last quantum end.
    """
    wait = timeline.get("wait") or {}
    deferral = sum(v for k, v in wait.items() if k != "queued")
    queueing = (timeline["admitted"] - timeline["submitted"]) - deferral
    own = timeline["own_seconds"]
    preemption = (timeline["last_quantum_end"] - timeline["admitted"]) - own
    drain = timeline["drained"] - timeline["last_quantum_end"]
    return {
        "queueing": queueing,
        "deferral": deferral,
        "preemption": preemption,
        "own": own,
        "drain": drain,
        "latency": timeline["drained"] - timeline["submitted"],
    }


def blame_decomposition(
    mux: dict[str, Any],
    solo: dict[str, Any],
    *,
    solo_shrunk: dict[str, Any] | None = None,
    solo_shed: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Attribute a job's multiplexed-vs-solo slowdown to named causes.

    ``mux`` and ``solo`` are the job's timelines from the shared and the
    dedicated service (:func:`repro.service.run_solo`).  Like
    :func:`critical_path`'s category attribution, the decomposition is
    exact *by construction*: each component is a phase-wise difference,
    so the six components telescope to ``delta = latency_mux -
    latency_solo`` (``residual`` reports the float rounding left over).

    * ``queueing_wait`` — extra time queued behind other admissions;
    * ``admission_deferral`` — extra time deferred by the admission
      controller (memory pressure, SLO backpressure);
    * ``quantum_preemption`` — scheduling gaps between the job's
      quanta while other tenants held the device;
    * ``slot_quota_shrink`` — slower execution from running at a
      shrunk/degraded slot quota (needs ``solo_shrunk``, a solo replay
      at the multiplexed leg's slot count; 0 when not supplied);
    * ``shed_slots`` — further slowdown from slots shed to priority
      tenants mid-run (needs ``solo_shed``; 0 when not supplied);
    * ``barrier_interference`` — everything left inside the job's own
      execution and drain: engine-queue interference from co-running
      jobs' transfers/kernels sharing the FIFOs, plus drain-time
      contention.  Components are signed — sharing can also *help*
      (e.g. a warmer device) and shows up negative.
    """
    pm, ps = job_phases(mux), job_phases(solo)
    own_base = ps["own"]
    shrink = 0.0
    if solo_shrunk is not None:
        shrink = job_phases(solo_shrunk)["own"] - own_base
        own_base += shrink
    shed = 0.0
    if solo_shed is not None:
        shed = job_phases(solo_shed)["own"] - own_base
        own_base += shed
    components = {
        "queueing_wait": pm["queueing"] - ps["queueing"],
        "admission_deferral": pm["deferral"] - ps["deferral"],
        "quantum_preemption": pm["preemption"] - ps["preemption"],
        "slot_quota_shrink": shrink,
        "shed_slots": shed,
        "barrier_interference": (
            (pm["own"] - own_base) + (pm["drain"] - ps["drain"])
        ),
    }
    delta = pm["latency"] - ps["latency"]
    residual = delta - sum(components[c] for c in BLAME_COMPONENTS)
    return {
        "delta": delta,
        "latency": pm["latency"],
        "solo_latency": ps["latency"],
        "components": components,
        "residual": residual,
    }


def blame_summary(rows: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate per-job blame rows: component totals and the worst residual.

    Each row is a :func:`blame_decomposition` result (optionally carrying
    ``job``/``tenant`` labels); the totals answer "where did the fleet's
    slowdown go" the way the critical path answers it for one run.
    """
    rows = list(rows)
    totals = {c: 0.0 for c in BLAME_COMPONENTS}
    delta = 0.0
    max_residual = 0.0
    for row in rows:
        for c in BLAME_COMPONENTS:
            totals[c] += row["components"][c]
        delta += row["delta"]
        max_residual = max(max_residual, abs(row["residual"]))
    return {
        "jobs": len(rows),
        "delta": delta,
        "components": totals,
        "max_residual": max_residual,
    }
