"""The causal run DAG: every device operation with its true ordering edges.

The hazard checker (:mod:`repro.check.hazards`) already observes every
device operation the runtime issues, together with the synchronization
facts that order it: stream FIFO program order, ``event_record`` /
``stream_wait_event`` pairs, host blocking syncs, and explicit ``after=``
readiness dependencies.  This module defines the node record the checker
appends per operation — a :class:`DagNode` — plus (de)serialization, so a
run manifest can carry the full causal DAG and
:mod:`repro.obs.critpath` can compute critical paths and replay the
schedule under perturbed machine parameters offline.

Edge kinds on ``DagNode.deps`` (predecessor op id, kind):

* ``"stream"`` — the previous operation issued to the same stream (FIFO
  program order; strong);
* ``"event"`` — a ``stream_wait_event`` edge consumed by this operation
  (strong);
* ``"after"`` — an explicit ``after=`` readiness component, resolved to
  the operation whose completion time it names (strong);
* ``"engine"`` — the previous operation on the same hardware engine
  (FIFO of the machine, not of the program; weak, but it is what bounds
  the start time on *this* machine).

Host ordering is carried separately: ``host_dep`` is the operation the
host most recently blocked on before issuing this one (via a stream /
event / device synchronize), and ``host_gap`` the host's own
non-blocked time between that wake-up (or the previous issue, whichever
is later) and this issue — API-call overheads, host compute, driver
work.  A replay reconstructs issue times as
``max(previous issue', end'(host_dep)) + host_gap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

__all__ = ["DagNode", "dag_to_json", "dag_from_json"]


@dataclass(frozen=True)
class DagNode:
    """One scheduled device operation and everything that ordered it."""

    op_id: int
    kind: str                      # "h2d" | "d2h" | "kernel" | "peer"
    label: str
    start: float
    end: float
    issue: float                   # host virtual time at issue
    nbytes: int
    streams: tuple[tuple[int, int], ...]   # (runtime_id, stream_id)
    engines: tuple[str, ...]               # engine lane names
    deps: tuple[tuple[int, str], ...]      # (predecessor op id, edge kind)
    host_dep: int | None = None            # op the host last blocked on
    host_gap: float = 0.0                  # host-only time before issue
    #: Kernel roofline legs ``(mem_time, flop_time)`` on the recording
    #: machine (launch overhead and hang excluded; ``max`` = body time).
    #: Lets the replay surrogate rescale each leg under a candidate
    #: machine exactly — None on transfers and on pre-cost recordings.
    cost: tuple[float, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def shifted(self, start: float, end: float, issue: float) -> "DagNode":
        """A copy of this node rescheduled to new times (what-if replay)."""
        # a replay builds one node per op: copying the field dict skips
        # the frozen-dataclass __init__ and its per-field setattr calls
        new = object.__new__(DagNode)
        new.__dict__.update(self.__dict__, start=start, end=end, issue=issue)
        return new


def dag_to_json(nodes: Iterable[DagNode]) -> list[dict[str, Any]]:
    """Plain-dict rows for a run manifest's ``"dag"`` key."""
    out: list[dict[str, Any]] = []
    for n in nodes:
        out.append({
            "op": n.op_id,
            "kind": n.kind,
            "label": n.label,
            "start": n.start,
            "end": n.end,
            "issue": n.issue,
            "nbytes": n.nbytes,
            "streams": [list(s) for s in n.streams],
            "engines": list(n.engines),
            "deps": [[d, k] for d, k in n.deps],
            "host_dep": n.host_dep,
            "host_gap": n.host_gap,
            "cost": (None if n.cost is None else list(n.cost)),
        })
    return out


def dag_from_json(rows: Sequence[dict[str, Any]]) -> list[DagNode]:
    """Rebuild :func:`dag_to_json` output (tolerates missing optionals)."""
    nodes: list[DagNode] = []
    for r in rows:
        nodes.append(DagNode(
            op_id=int(r["op"]),
            kind=str(r.get("kind", "?")),
            label=str(r.get("label", "")),
            start=float(r["start"]),
            end=float(r["end"]),
            issue=float(r.get("issue", r["start"])),
            nbytes=int(r.get("nbytes", 0)),
            streams=tuple((int(a), int(b)) for a, b in r.get("streams", ())),
            engines=tuple(str(e) for e in r.get("engines", ())),
            deps=tuple((int(d), str(k)) for d, k in r.get("deps", ())),
            host_dep=(None if r.get("host_dep") is None else int(r["host_dep"])),
            host_gap=float(r.get("host_gap", 0.0)),
            cost=(None if r.get("cost") is None
                  else (float(r["cost"][0]), float(r["cost"][1]))),
        ))
    nodes.sort(key=lambda n: n.op_id)
    return nodes
