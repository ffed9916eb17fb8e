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

from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence

from ..errors import DagFormatError

__all__ = ["DagNode", "dag_to_json", "dag_from_json"]


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, op_id: int, kind: str, label: str, start: float,
                 end: float, issue: float, nbytes: int,
                 streams: tuple[tuple[int, int], ...], engines: tuple[str, ...],
                 deps: tuple[tuple[int, str], ...], host_dep: int | None = None,
                 host_gap: float = 0.0,
                 cost: tuple[float, float] | None = None) -> None:
        # One node per recorded op and per loaded row: filling the slots
        # through their descriptors costs half what the generated frozen
        # __init__ pays going through object.__setattr__.
        _set_op_id(self, op_id)
        _set_kind(self, kind)
        _set_label(self, label)
        _set_start(self, start)
        _set_end(self, end)
        _set_issue(self, issue)
        _set_nbytes(self, nbytes)
        _set_streams(self, streams)
        _set_engines(self, engines)
        _set_deps(self, deps)
        _set_host_dep(self, host_dep)
        _set_host_gap(self, host_gap)
        _set_cost(self, cost)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def shifted(self, start: float, end: float, issue: float) -> "DagNode":
        """A copy of this node rescheduled to new times (what-if replay)."""
        return DagNode(self.op_id, self.kind, self.label, start, end, issue,
                       self.nbytes, self.streams, self.engines, self.deps,
                       self.host_dep, self.host_gap, self.cost)


(_set_op_id, _set_kind, _set_label, _set_start, _set_end, _set_issue,
 _set_nbytes, _set_streams, _set_engines, _set_deps, _set_host_dep,
 _set_host_gap, _set_cost) = (vars(DagNode)[f.name].__set__ for f in fields(DagNode))


def _listed(pairs: tuple[tuple[Any, ...], ...]) -> list[list[Any]]:
    return list(map(list, pairs))


def dag_to_json(nodes: Iterable[DagNode]) -> list[dict[str, Any]]:
    """Plain-dict rows for a run manifest's ``"dag"`` key.

    Rows with equal ``streams`` (or ``engines``) share one list: a run
    has a few distinct values and thousands of rows.  Treat the rows as
    read-only.
    """
    streams = cache(_listed)
    engines = cache(list)
    return [
        {
            "op": n.op_id,
            "kind": n.kind,
            "label": n.label,
            "start": n.start,
            "end": n.end,
            "issue": n.issue,
            "nbytes": n.nbytes,
            "streams": streams(n.streams),
            "engines": engines(n.engines),
            "deps": list(map(list, n.deps)),
            "host_dep": n.host_dep,
            "host_gap": n.host_gap,
            "cost": None if n.cost is None else list(n.cost),
        }
        for n in nodes
    ]


def dag_from_json(rows: Sequence[dict[str, Any]]) -> list[DagNode]:
    """Rebuild :func:`dag_to_json` output (tolerates missing optionals).

    Every node with equal ``streams`` (or ``engines``) gets the same
    tuple.  Raises :class:`~repro.errors.DagFormatError` naming the first
    row that cannot be converted and its field.
    """
    nodes: list[DagNode] = []
    append = nodes.append
    shared: dict[tuple, tuple] = {}
    share = shared.setdefault
    try:
        for r in rows:
            host_dep = r.get("host_dep")
            cost = r.get("cost")
            streams = tuple([(int(a), int(b)) for a, b in r.get("streams", ())])
            engines = tuple(map(str, r.get("engines", ())))
            append(DagNode(
                int(r["op"]),
                str(r.get("kind", "?")),
                str(r.get("label", "")),
                float(r["start"]),
                float(r["end"]),
                float(r.get("issue", r["start"])),
                int(r.get("nbytes", 0)),
                share(streams, streams),
                share(engines, engines),
                tuple([(int(d), str(k)) for d, k in r.get("deps", ())]),
                None if host_dep is None else int(host_dep),
                float(r.get("host_gap", 0.0)),
                None if cost is None else (float(cost[0]), float(cost[1])),
            ))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise _row_error(len(nodes), rows[len(nodes)], exc) from exc
    nodes.sort(key=_op_id)
    return nodes


_op_id = attrgetter("op_id")

#: Each row field with the conversion :func:`dag_from_json` applies to
#: it.  Consulted only after a row failed, to name the field at fault.
_ROW_FIELDS: tuple[tuple[str, Callable[[dict[str, Any]], Any]], ...] = (
    ("op", lambda r: int(r["op"])),
    ("kind", lambda r: str(r.get("kind", "?"))),
    ("label", lambda r: str(r.get("label", ""))),
    ("start", lambda r: float(r["start"])),
    ("end", lambda r: float(r["end"])),
    ("issue", lambda r: float(r.get("issue", 0.0))),
    ("nbytes", lambda r: int(r.get("nbytes", 0))),
    ("streams", lambda r: [(int(a), int(b)) for a, b in r.get("streams", ())]),
    ("engines", lambda r: [str(e) for e in r.get("engines", ())]),
    ("deps", lambda r: [(int(d), str(k)) for d, k in r.get("deps", ())]),
    ("host_dep", lambda r: None if r.get("host_dep") is None else int(r["host_dep"])),
    ("host_gap", lambda r: float(r.get("host_gap", 0.0))),
    ("cost", lambda r: None if r.get("cost") is None
     else (float(r["cost"][0]), float(r["cost"][1]))),
)


def _row_error(index: int, row: Any, exc: Exception) -> DagFormatError:
    if not isinstance(row, dict):
        return DagFormatError(
            f"dag row {index}: expected an object, got {type(row).__name__}",
            row=index, field=None,
        )
    for name, convert in _ROW_FIELDS:
        try:
            convert(row)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
            what = "missing" if isinstance(err, KeyError) and name not in row \
                else f"bad value {row[name]!r} ({err})"
            return DagFormatError(f"dag row {index}: field {name!r} {what}",
                                  row=index, field=name)
    return DagFormatError(f"dag row {index}: {exc}", row=index, field=None)
