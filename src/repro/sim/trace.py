"""Operation trace: the raw material for timeline figures and overlap metrics.

Every operation the runtime schedules (transfers, kernels, host-side index
computation, synchronization waits) is recorded as a :class:`TraceEvent`.
From the trace we derive:

* the end-to-end span of an experiment (what the paper's timing loops
  measure);
* per-lane busy time and the **overlap fraction** between copy engines and
  the compute engine — the quantity Figs. 3 and 7 illustrate;
* an ASCII Gantt chart that regenerates the shape of Figs. 3, 4 and 7.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from ..errors import SimulationError
from .intervals import IntervalUnion, intersection

#: Event categories used by the runtime.
CATEGORIES = ("h2d", "d2h", "kernel", "host", "sync")

#: Value types a shared dict may hold.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _key(values: tuple) -> tuple | None:
    """``values`` plus what tells them from equal values that serialize
    differently: each one's type (``1``, ``1.0`` and ``True`` compare
    equal) and each float's sign (so do ``0.0`` and ``-0.0``).

    None when a value is not a plain scalar: a list may change after it
    is stored, and a tuple's items would need the same care.
    """
    types = tuple(map(type, values))
    if not _SCALARS.issuperset(types):
        return None
    if float in types:
        types += tuple([math.copysign(1.0, v) for v in values if type(v) is float])
    return values + types


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One scheduled operation.

    ``lane`` is the resource the operation occupied (engine name, or
    ``"host"``); ``stream`` is the CUDA stream id it was issued to (or
    ``None`` for host work); ``nbytes`` is the payload for transfers.
    """

    name: str
    category: str
    lane: str
    start: float
    end: float
    stream: int | None = None
    nbytes: int = 0
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(f"event {self.name!r} ends before it starts")
        if self.category not in CATEGORIES:
            raise SimulationError(
                f"unknown category {self.category!r}; expected one of {CATEGORIES}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """Append-only record of scheduled operations.

    Besides the span events, a trace can carry two observability
    side-channels that never affect the timing metrics:

    * **counter samples** (:meth:`record_counter`) — time series such as
      per-engine queue depth or slot-cache occupancy, exported to
      Perfetto as counter tracks (``ph: "C"``);
    * **decision marks** (:meth:`mark`) — instant events recording a
      scheduling decision (cache hit, eviction, skipped write-back) with
      structured args, exported as instant events (``ph: "i"``).

    Both are stored flat, once: a counter track as an ``array("d")`` of
    sample times plus a list of the values as given (ints stay ints), a
    mark as a ``(name, ts, args)`` tuple.  The readers build their dicts
    and tuples on read.

    A span's ``meta`` and a mark's ``args`` are kept once per distinct
    value: equal dicts of plain scalars (str, int, float, bool, None)
    that serialize alike, keys in the same order, are one shared dict,
    so treat them as read-only.  A dict holding anything else keeps its
    own.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._counters: dict[str, tuple[array, list[float]]] = {}
        self._marks: list[tuple[str, float, dict[str, Any]]] = []
        self._shared: dict[tuple, dict[str, Any]] = {}

    def _share(self, args: dict[str, Any]) -> dict[str, Any]:
        """The stored dict equal to ``args`` (``args`` itself the first
        time, or when it cannot be shared)."""
        key = _key((*args, *args.values()))
        if key is None:
            return args
        return self._shared.setdefault(key, args)

    def add(self, event: TraceEvent) -> TraceEvent:
        self._events.append(event)
        return event

    def record(
        self,
        name: str,
        category: str,
        lane: str,
        start: float,
        end: float,
        *,
        stream: int | None = None,
        nbytes: int = 0,
        **meta: Any,
    ) -> TraceEvent:
        return self.add(
            TraceEvent(
                name=name,
                category=category,
                lane=lane,
                start=start,
                end=end,
                stream=stream,
                nbytes=nbytes,
                meta=self._share(meta),
            )
        )

    def record_counter(self, track: str, ts: float, value: float) -> None:
        """Append one sample to counter track ``track`` at time ``ts``."""
        if ts < 0:
            raise SimulationError(f"counter sample time must be >= 0, got {ts!r}")
        samples = self._counters.get(track)
        if samples is None:
            samples = self._counters[track] = (array("d"), [])
        samples[0].append(ts)
        samples[1].append(value)

    def mark(self, name: str, ts: float, **args: Any) -> None:
        """Record an instant decision event (evict/hit/skip) at ``ts``."""
        if ts < 0:
            raise SimulationError(f"mark time must be >= 0, got {ts!r}")
        self._marks.append((name, ts, self._share(args)))

    @property
    def counter_tracks(self) -> dict[str, list[tuple[float, float]]]:
        """Each track's ``(ts, value)`` samples, in recording order (a
        fresh dict of fresh lists)."""
        return {track: list(zip(times, values))
                for track, (times, values) in self._counters.items()}

    @property
    def marks(self) -> tuple[dict[str, Any], ...]:
        """Every decision mark as a fresh ``{"name", "ts", "args"}`` dict.

        ``args`` is the stored dict, shared by marks with equal args:
        treat it as read-only."""
        return tuple([{"name": name, "ts": ts, "args": args}
                      for name, ts, args in self._marks])

    def marks_since(self, start: int) -> list[dict[str, Any]]:
        """Marks recorded at index ``start`` or later (incremental reads),
        as fresh dicts like :attr:`marks` (whose ``args`` are shared and
        read-only).  A negative ``start`` counts from the end, as in a
        slice: ``marks_since(-n)`` is the last ``n`` marks.

        Lets a periodic sampler consume new marks in O(new) instead of
        building the whole mark list via :attr:`marks` every sample.
        """
        return [{"name": name, "ts": ts, "args": args}
                for name, ts, args in self._marks[start:]]

    @property
    def last_event(self) -> TraceEvent | None:
        """The most recently recorded span event (None for an empty trace)."""
        return self._events[-1] if self._events else None

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def events_since(self, start: int) -> list[TraceEvent]:
        """Span events recorded at index ``start`` or later (incremental
        reads, like :meth:`marks_since`): ``events_since(-n)`` is the
        last ``n`` events."""
        return self._events[start:]

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        return [e for e in self._events if predicate(e)]

    def by_category(self, *categories: str) -> list[TraceEvent]:
        wanted = set(categories)
        return [e for e in self._events if e.category in wanted]

    def by_lane(self, lane: str) -> list[TraceEvent]:
        return [e for e in self._events if e.lane == lane]

    def lanes(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self._events:
            seen.setdefault(e.lane, None)
        return list(seen)

    # -- metrics ----------------------------------------------------------

    def span(self) -> float:
        """End-to-end duration covered by the trace."""
        if not self._events:
            return 0.0
        start = min(e.start for e in self._events)
        end = max(e.end for e in self._events)
        return end - start

    def busy_time(self, lane: str) -> float:
        """Total time ``lane`` had at least one event in flight.

        Intervals are merged before summing: FIFO engine lanes never
        overlap so this equals the plain sum there, but the ``"host"``
        lane is not an engine — host work recorded from different layers
        may overlap, and summing durations would double-count it (and
        skew :meth:`overlap_fraction` denominators).
        """
        return IntervalUnion((e.start, e.end) for e in self._events if e.lane == lane).total()

    def overlap_time(self, lanes_a: Iterable[str], lanes_b: Iterable[str]) -> float:
        """Total time during which some lane in ``lanes_a`` AND some lane in
        ``lanes_b`` were simultaneously busy.

        ``overlap_time({"compute"}, {"h2d", "d2h"})`` is the transfer time
        the pipeline successfully hid behind computation.
        """
        set_a, set_b = set(lanes_a), set(lanes_b)
        busy_a = IntervalUnion((e.start, e.end) for e in self._events
                               if e.lane in set_a and e.duration > 0)
        busy_b = IntervalUnion((e.start, e.end) for e in self._events
                               if e.lane in set_b and e.duration > 0)
        total = 0.0
        for lo, hi in intersection(busy_a, busy_b):
            total += hi - lo
        return total

    def overlap_fraction(self, transfer_lanes: Iterable[str], compute_lanes: Iterable[str]) -> float:
        """Fraction of transfer time hidden behind compute (0 when no transfers)."""
        transfer_lanes = list(transfer_lanes)
        transfer = sum(self.busy_time(lane) for lane in transfer_lanes)
        if transfer == 0.0:
            return 0.0
        return self.overlap_time(transfer_lanes, compute_lanes) / transfer

    # -- rendering --------------------------------------------------------

    def to_rows(self) -> list[dict[str, Any]]:
        """Plain-dict rows, convenient for JSON dumps and table printing."""
        return [
            {
                "name": e.name,
                "category": e.category,
                "lane": e.lane,
                "stream": e.stream,
                "start": e.start,
                "end": e.end,
                "duration": e.duration,
                "nbytes": e.nbytes,
                **({"meta": e.meta} if e.meta else {}),
            }
            for e in self._events
        ]

    def to_chrome_trace(self) -> list[dict[str, Any]]:
        """Chrome/Perfetto trace-event format (``chrome://tracing``).

        Lanes map to thread ids within one process; times are emitted in
        microseconds as complete ('X') events, so a timing-only simulation
        can be inspected with standard profiling UIs.

        Every time is ``round(seconds * 1e6, 6)``: microseconds on a
        picosecond grid, so ``from_chrome_trace``'s ÷1e6 followed by a
        re-save's ×1e6 lands back on the same grid point and save → load
        → save is byte-stable instead of drifting by an ulp per cycle.

        Events share their ``args``: one dict per distinct span
        ``(stream, nbytes, meta)`` and per distinct counter value, and a
        mark's stored args.  Treat the events as read-only.
        """
        lane_tids = {lane: tid for tid, lane in enumerate(self.lanes())}
        events = []
        append = events.append
        span_args: dict[tuple | None, dict[str, Any]] = {}
        for e in self._events:
            # a stored meta is shared, so its identity names its value
            key = _key((e.stream, e.nbytes, id(e.meta)))
            args = span_args.get(key)
            if args is None:
                # stream and nbytes first, then meta (whose keys may
                # override either value, keeping its position)
                args = {}
                if e.stream is not None:
                    args["stream"] = e.stream
                if e.nbytes:
                    args["nbytes"] = e.nbytes
                if e.meta:
                    args.update(e.meta)
                if key is not None:
                    span_args[key] = args
            append({
                "name": e.name,
                "cat": e.category,
                "ph": "X",
                "ts": round(e.start * 1e6, 6),
                "dur": round((e.end - e.start) * 1e6, 6),
                "pid": 0,
                "tid": lane_tids[e.lane],
                "args": args,
            })
        # thread-name metadata so the UI labels lanes
        for lane, tid in lane_tids.items():
            append({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                    "args": {"name": lane}})
        # counter tracks (queue depth, cache occupancy) render as
        # Perfetto counters alongside the lanes
        value_args: dict[tuple | None, dict[str, Any]] = {}

        def counter_args(value: Any) -> dict[str, Any]:
            key = _key((value,))
            args = value_args.get(key)
            if args is None:
                args = {"value": value}
                if key is not None:
                    value_args[key] = args
            return args

        for track in sorted(self._counters):
            events += [
                {"name": track, "ph": "C", "ts": round(ts * 1e6, 6), "pid": 0,
                 "args": counter_args(value)}
                for ts, value in zip(*self._counters[track])
            ]
        # decision marks land on a dedicated pseudo-thread
        if self._marks:
            mark_tid = len(lane_tids)
            append({"name": "thread_name", "ph": "M", "pid": 0, "tid": mark_tid,
                    "args": {"name": "decisions"}})
            events += [
                {"name": name, "cat": "decision", "ph": "i", "s": "t",
                 "ts": round(ts * 1e6, 6), "pid": 0, "tid": mark_tid,
                 "args": args}
                for name, ts, args in self._marks
            ]
        return events

    @classmethod
    def from_chrome_trace(cls, events: list[dict[str, Any]]) -> "Trace":
        """Rebuild a trace from :meth:`to_chrome_trace` output.

        Accepts any Chrome trace-event list: lanes come from the
        ``thread_name`` metadata, span events from ``ph: "X"`` entries,
        counter samples from ``ph: "C"``, and decision marks from
        ``ph: "i"`` on the ``decisions`` pseudo-thread.  Events with a
        category this runtime never emits are kept under ``"host"`` so
        foreign traces still load.
        """
        trace = cls()
        tid_lanes: dict[Any, str] = {}
        for e in events:
            if e.get("ph") == "M" and e.get("name") == "thread_name":
                tid_lanes[e.get("tid")] = e.get("args", {}).get("name", f"tid{e.get('tid')}")
        for e in events:
            ph = e.get("ph")
            if ph == "X":
                args = dict(e.get("args", {}))
                stream = args.pop("stream", None)
                nbytes = args.pop("nbytes", 0)
                category = e.get("cat", "host")
                start = e.get("ts", 0.0) / 1e6
                trace.record(
                    e.get("name", "?"),
                    category if category in CATEGORIES else "host",
                    tid_lanes.get(e.get("tid"), f"tid{e.get('tid')}"),
                    start,
                    start + e.get("dur", 0.0) / 1e6,
                    stream=stream,
                    nbytes=nbytes,
                    **args,
                )
            elif ph == "C":
                trace.record_counter(
                    e.get("name", "?"),
                    e.get("ts", 0.0) / 1e6,
                    e.get("args", {}).get("value", 0.0),
                )
            elif ph == "i":
                trace.mark(
                    e.get("name", "?"), e.get("ts", 0.0) / 1e6, **e.get("args", {})
                )
        return trace

    def save_chrome_trace(self, path: str) -> str:
        """Write :meth:`to_chrome_trace` JSON to ``path``; returns the path."""
        import json
        from pathlib import Path

        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps({"traceEvents": self.to_chrome_trace()}))
        return str(p)

    def gantt(self, *, width: int = 100, lanes: list[str] | None = None) -> str:
        """Render an ASCII Gantt chart (one row per lane).

        The symbols distinguish categories: ``#`` kernels, ``<`` H2D, ``>``
        D2H, ``:`` host work, ``.`` sync waits.  This is how the benches
        regenerate Figs. 3 and 7.
        """
        if width < 10:
            raise SimulationError("gantt width must be >= 10")
        if not self._events:
            return "(empty trace)"
        t0 = min(e.start for e in self._events)
        t1 = max(e.end for e in self._events)
        span = max(t1 - t0, 1e-30)
        symbols = {"kernel": "#", "h2d": "<", "d2h": ">", "host": ":", "sync": "."}
        lane_names = lanes if lanes is not None else self.lanes()
        label_w = max((len(name) for name in lane_names), default=4) + 1
        # pad the ruler from the rendered span label so long labels
        # (e.g. "0.0001234s") keep the header box exactly `width` wide
        span_label = f"{span:.4g}s"
        pad = max(width - len("0.0s") - len(span_label), 1)
        lines = [
            f"{'':<{label_w}}|0.0s{' ' * pad}{span_label}|"
        ]
        for lane in lane_names:
            row = [" "] * width
            for e in self._events:
                if e.lane != lane or e.duration <= 0:
                    continue
                lo = int((e.start - t0) / span * (width - 1))
                hi = int((e.end - t0) / span * (width - 1))
                sym = symbols.get(e.category, "?")
                for k in range(lo, max(hi, lo + 1)):
                    if 0 <= k < width:
                        row[k] = sym
            lines.append(f"{lane:<{label_w}}|{''.join(row)}|")
        lines.append(
            f"{'':<{label_w}} legend: # kernel   < H2D   > D2H   : host   . sync"
        )
        return "\n".join(lines)
