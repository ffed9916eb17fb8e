"""The trace's flat side-channel store against the store it replaced.

A trace keeps each counter track as an ``array("d")`` of times plus a
list of values and each decision mark as a ``(name, ts, args)`` tuple;
the readers build dicts and tuples on read.  ``OldStore`` is the trace
with the side channels stored as before (a list of ``(ts, value)``
tuples per track, a dict per mark), its methods kept verbatim.  Random
counter samples and marks (int and float values, equal times, empty and
nested args) go through both, and every reader must agree by value and
by type: the Chrome export's JSON, its ``from_chrome_trace`` round
trip, ``marks``, ``marks_since(i)`` and ``counter_tracks``.
"""

from __future__ import annotations

import json
from typing import Any

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.trace import Trace


class OldStore(Trace):
    """The side channels as they were stored before the flat store."""

    def __init__(self) -> None:
        super().__init__()
        self._counters: dict[str, list[tuple[float, float]]] = {}
        self._marks: list[dict[str, Any]] = []

    def record_counter(self, track: str, ts: float, value: float) -> None:
        if ts < 0:
            raise SimulationError(f"counter sample time must be >= 0, got {ts!r}")
        self._counters.setdefault(track, []).append((ts, value))

    def mark(self, name: str, ts: float, **args: Any) -> None:
        if ts < 0:
            raise SimulationError(f"mark time must be >= 0, got {ts!r}")
        self._marks.append({"name": name, "ts": ts, "args": args})

    @property
    def counter_tracks(self) -> dict[str, list[tuple[float, float]]]:
        return {track: list(samples) for track, samples in self._counters.items()}

    @property
    def marks(self) -> tuple[dict[str, Any], ...]:
        return tuple(self._marks)

    def marks_since(self, start: int) -> list[dict[str, Any]]:
        if start < 0:
            start = 0
        return self._marks[start:]

    def to_chrome_trace(self) -> list[dict[str, Any]]:
        lane_tids = {lane: tid for tid, lane in enumerate(self.lanes())}
        events = []
        append = events.append
        for e in self._events:
            args = {}
            if e.stream is not None:
                args["stream"] = e.stream
            if e.nbytes:
                args["nbytes"] = e.nbytes
            if e.meta:
                args.update(e.meta)
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
        for lane, tid in lane_tids.items():
            append({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                    "args": {"name": lane}})
        for track in sorted(self._counters):
            events += [
                {"name": track, "ph": "C", "ts": round(ts * 1e6, 6), "pid": 0,
                 "args": {"value": value}}
                for ts, value in self._counters[track]
            ]
        if self._marks:
            mark_tid = len(lane_tids)
            append({"name": "thread_name", "ph": "M", "pid": 0, "tid": mark_tid,
                    "args": {"name": "decisions"}})
            events += [
                {"name": m["name"], "cat": "decision", "ph": "i", "s": "t",
                 "ts": round(m["ts"] * 1e6, 6), "pid": 0, "tid": mark_tid,
                 "args": dict(m["args"])}
                for m in self._marks
            ]
        return events


def typed(v: Any) -> Any:
    """``v`` with the type of every value in it spelled out."""
    if isinstance(v, dict):
        return ("dict", [(k, typed(x)) for k, x in v.items()])
    if isinstance(v, (list, tuple)):
        return (type(v).__name__, [typed(x) for x in v])
    return (type(v).__name__, repr(v))


#: a few fixed times so samples and marks share instants
times = st.floats(0.0, 1e-2, allow_nan=False) | st.sampled_from([0.0, 1e-4, 2.5e-4])
values = st.integers(-3, 9) | st.floats(-1e3, 1e3, allow_nan=False)
leaf = st.integers(-2, 9) | st.floats(0, 8, allow_nan=False) | st.text(max_size=3)
nested = st.recursive(leaf, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                      max_leaves=5)
counter = st.tuples(st.just("counter"),
                    st.sampled_from(["queue_depth:h2d", "cache_occupancy:u", "z"]),
                    times, values)
mark = st.tuples(st.just("mark"), st.sampled_from(["cache-miss", "evict", "iteration"]),
                 times, st.dictionaries(st.sampled_from(["field", "region", "fields"]),
                                        nested, max_size=3))
span = st.tuples(st.just("span"), st.sampled_from(["k", "up"]),
                 st.sampled_from(["kernel", "h2d"]), times)


def _fill(trace: Trace, ops) -> Trace:
    for kind, name, a, b in ops:
        if kind == "counter":
            trace.record_counter(name, a, b)
        elif kind == "mark":
            trace.mark(name, a, **b)
        else:
            lane = "compute" if a == "kernel" else "h2d"
            trace.record(name, a, lane, b, b + 1e-5, stream=1)
    return trace


def _readers(trace: Trace) -> list[Any]:
    n = len(trace.marks)
    return [typed(trace.counter_tracks), typed(trace.marks),
            [typed(trace.marks_since(i)) for i in range(n + 2)]]


@settings(max_examples=300, deadline=None)
@given(st.lists(counter | mark | span, max_size=14))
def test_flat_store_reads_as_the_old_one(ops):
    new, old = _fill(Trace(), ops), _fill(OldStore(), ops)
    assert _readers(new) == _readers(old)
    events, old_events = new.to_chrome_trace(), old.to_chrome_trace()
    assert json.dumps(events) == json.dumps(old_events)
    assert typed(events) == typed(old_events)
    back, old_back = Trace.from_chrome_trace(events), OldStore.from_chrome_trace(old_events)
    assert _readers(back) == _readers(old_back)
    assert json.dumps(back.to_chrome_trace()) == json.dumps(old_back.to_chrome_trace())


def test_readers_build_fresh_containers():
    t = Trace()
    t.record_counter("q", 0.0, 1)
    t.mark("evict", 0.0, slot=1)
    t.counter_tracks["q"].append((1.0, 2))
    t.marks[0]["name"] = "changed"
    t.marks_since(0)[0]["ts"] = 9.0
    assert t.counter_tracks == {"q": [(0.0, 1)]}
    assert t.marks == ({"name": "evict", "ts": 0.0, "args": {"slot": 1}},)


def test_marks_since_a_negative_start_is_the_tail():
    t = Trace()
    for k in range(5):
        t.mark("m", float(k), k=k)
    assert [m["args"]["k"] for m in t.marks_since(-2)] == [3, 4]
    assert [m["args"]["k"] for m in t.marks_since(-9)] == [0, 1, 2, 3, 4]


def test_events_since_a_negative_start_is_the_tail():
    t = Trace()
    for k in range(5):
        t.record(f"e{k}", "kernel", "gpu", float(k), k + 0.5)
    assert [e.name for e in t.events_since(-2)] == ["e3", "e4"]
    assert [e.name for e in t.events_since(-9)] == ["e0", "e1", "e2", "e3", "e4"]
    assert [e.name for e in t.events_since(3)] == ["e3", "e4"]
