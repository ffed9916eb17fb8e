"""Chrome/Perfetto trace export."""

import json
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.trace import Trace, TraceEvent


def make_trace():
    t = Trace()
    t.record("k1", "kernel", "compute", 0.0, 1e-3, stream=1, n_cells=100)
    t.record("up", "h2d", "h2d", 0.0, 5e-4, stream=2, nbytes=4096)
    return t


class TestChromeTrace:
    def test_events_have_required_fields(self):
        events = make_trace().to_chrome_trace()
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        for e in complete:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}

    def test_microsecond_conversion(self):
        events = make_trace().to_chrome_trace()
        k1 = next(e for e in events if e["name"] == "k1")
        assert k1["dur"] == 1000.0  # 1 ms -> 1000 us

    def test_lane_metadata_events(self):
        events = make_trace().to_chrome_trace()
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert names == {"compute", "h2d"}

    def test_args_carry_stream_and_bytes(self):
        events = make_trace().to_chrome_trace()
        up = next(e for e in events if e["name"] == "up")
        assert up["args"]["stream"] == 2
        assert up["args"]["nbytes"] == 4096

    def test_save_is_valid_json(self, tmp_path):
        path = make_trace().save_chrome_trace(str(tmp_path / "t.json"))
        data = json.loads(open(path).read())
        assert "traceEvents" in data
        assert len(data["traceEvents"]) == 4

    def test_empty_trace(self, tmp_path):
        path = Trace().save_chrome_trace(str(tmp_path / "e.json"))
        assert json.loads(open(path).read()) == {"traceEvents": []}


class TestRoundTrip:
    """save -> load -> save must reproduce the file byte-for-byte."""

    def make_full_trace(self):
        """Spans + counter tracks + decision marks, with awkward times."""
        t = Trace()
        # times deliberately not representable exactly in binary floating
        # point: the quantized-microsecond emit has to absorb the *1e6 /
        # /1e6 round-trip error
        t.record("k1", "kernel", "compute", 0.1, 0.1 + 1e-3 / 3, stream=1, n_cells=7)
        t.record("up", "h2d", "h2d", 1 / 3, 1 / 3 + 5e-4, stream=2, nbytes=4096)
        t.record("down", "d2h", "d2h", 0.7000000001, 0.9, stream=2, nbytes=128)
        t.record_counter("queue.h2d", 0.1, 1.0)
        t.record_counter("queue.h2d", 0.2 + 1e-7, 0.0)
        t.mark("evict", 1 / 7, field="u_old", slot=3)
        t.mark("iteration", 0.5, fields=["u_old", "u_new"])
        return t

    def test_save_load_save_is_byte_stable(self, tmp_path):
        t = self.make_full_trace()
        p1 = t.save_chrome_trace(str(tmp_path / "a.json"))
        loaded = Trace.from_chrome_trace(json.loads(open(p1).read())["traceEvents"])
        p2 = loaded.save_chrome_trace(str(tmp_path / "b.json"))
        reloaded = Trace.from_chrome_trace(json.loads(open(p2).read())["traceEvents"])
        p3 = reloaded.save_chrome_trace(str(tmp_path / "c.json"))
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(p2, "rb").read() == open(p3, "rb").read()

    def test_round_trip_preserves_counters_and_marks(self):
        t = self.make_full_trace()
        loaded = Trace.from_chrome_trace(t.to_chrome_trace())
        assert set(loaded.counter_tracks) == {"queue.h2d"}
        samples = loaded.counter_tracks["queue.h2d"]
        assert [v for _ts, v in samples] == [1.0, 0.0]
        assert [m["name"] for m in loaded.marks] == ["evict", "iteration"]
        assert loaded.marks[0]["args"] == {"field": "u_old", "slot": 3}
        assert loaded.marks[1]["args"] == {"fields": ["u_old", "u_new"]}

    def test_round_trip_preserves_spans(self):
        t = self.make_full_trace()
        loaded = Trace.from_chrome_trace(t.to_chrome_trace())
        assert len(loaded) == len(t)
        for a, b in zip(t, loaded):
            assert a.name == b.name and a.category == b.category
            assert a.lane == b.lane and a.stream == b.stream
            assert a.nbytes == b.nbytes
            # quantization grid is a picosecond: virtual times agree to
            # far better than any simulated duration
            assert abs(a.start - b.start) < 1e-12
            assert abs(a.end - b.end) < 1e-11

    def test_quantization_grid_is_picoseconds(self):
        t = Trace()
        t.record("k", "kernel", "compute", 1e-9 / 3, 2e-9 / 3)
        (e,) = [x for x in t.to_chrome_trace() if x["ph"] == "X"]
        # emitted microseconds sit on the 1e-6-us grid exactly
        assert e["ts"] == round(e["ts"], 6)
        assert e["dur"] == round(e["dur"], 6)


class TestCli:
    def test_machine_subcommand(self, capsys):
        from repro.__main__ import main
        assert main(["machine"]) == 0
        out = capsys.readouterr().out
        assert "tesla-k40m" in out and "pcie" in out

    def test_kernels_subcommand(self, capsys):
        from repro.__main__ import main
        assert main(["kernels"]) == 0
        assert "heat" in capsys.readouterr().out

    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main
        out_file = tmp_path / "trace.json"
        assert main(["trace", "--steps", "1", "--out", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert len(data["traceEvents"]) > 0


# -- the export against the per-event reference ------------------------------


class _RefTrace:
    """The trace's state, in the shapes the reference reads (counter
    tracks as ``(ts, value)`` lists, marks as dicts), plus the ``_us``
    quantizer the reference calls."""

    def __init__(self, trace):
        self._events, self._counters, self._marks = (
            trace._events, trace.counter_tracks, trace.marks)
        self.lanes = trace.lanes

    @staticmethod
    def _us(seconds):
        return round(seconds * 1e6, 6)


def ref_to_chrome_trace(trace):
    """``Trace.to_chrome_trace`` before its rows were built inline, verbatim
    (``self`` is the trace)."""
    self = _RefTrace(trace)
    lane_tids = {lane: tid for tid, lane in enumerate(self.lanes())}
    events = []
    for e in self._events:
        events.append(
            {
                "name": e.name,
                "cat": e.category,
                "ph": "X",
                "ts": self._us(e.start),
                "dur": self._us(e.duration),
                "pid": 0,
                "tid": lane_tids[e.lane],
                "args": {
                    **({"stream": e.stream} if e.stream is not None else {}),
                    **({"nbytes": e.nbytes} if e.nbytes else {}),
                    **e.meta,
                },
            }
        )
    for lane, tid in lane_tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    for track in sorted(self._counters):
        for ts, value in self._counters[track]:
            events.append(
                {
                    "name": track,
                    "ph": "C",
                    "ts": self._us(ts),
                    "pid": 0,
                    "args": {"value": value},
                }
            )
    if self._marks:
        mark_tid = len(lane_tids)
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": mark_tid,
                "args": {"name": "decisions"},
            }
        )
        for m in self._marks:
            events.append(
                {
                    "name": m["name"],
                    "cat": "decision",
                    "ph": "i",
                    "s": "t",
                    "ts": self._us(m["ts"]),
                    "pid": 0,
                    "tid": mark_tid,
                    "args": dict(m["args"]),
                }
            )
    return events


times = st.floats(0.0, 1e-2, allow_nan=False) | st.integers(0, 5).map(lambda k: k * 1e-4)
#: meta keys include the two the export writes itself, so meta can
#: override ``stream``/``nbytes`` (keeping their position) or add them
meta = st.dictionaries(st.sampled_from(["stream", "nbytes", "n_cells", "region"]),
                       st.integers(-2, 9) | st.text(max_size=3), max_size=3)
span = st.tuples(
    st.text(max_size=4), st.sampled_from(["kernel", "h2d", "d2h", "host", "sync"]),
    st.sampled_from(["compute", "h2d", "d2h", "host"]), times, times,
    st.none() | st.integers(0, 4), st.sampled_from([0, 0, 64, 4096]), meta,
)
counter = st.tuples(st.sampled_from(["queue_depth:h2d", "cache_occupancy:u"]),
                    times, st.floats(0, 8, allow_nan=False) | st.integers(0, 8))
mark = st.tuples(st.sampled_from(["cache-miss", "evict", "iteration"]), times,
                 st.dictionaries(st.sampled_from(["field", "region", "slot"]),
                                 st.integers(0, 5), max_size=2))


class TestExportDifferential:
    """The inline export gives the reference's JSON bytes without
    ``sort_keys``: same events, same key order, same args."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(span, max_size=8), st.lists(counter, max_size=6),
           st.lists(mark, max_size=4))
    def test_same_bytes_as_reference(self, spans, counters, marks):
        t = Trace()
        for name, cat, lane, a, b, stream, nbytes, m in spans:
            t.add(TraceEvent(name, cat, lane, min(a, b), max(a, b), stream=stream,
                             nbytes=nbytes, meta=m))
        for track, ts, value in counters:
            t.record_counter(track, ts, value)
        for name, ts, args in marks:
            t.mark(name, ts, **args)
        got, want = t.to_chrome_trace(), ref_to_chrome_trace(t)
        assert json.dumps(got) == json.dumps(want)
        assert got == want

    def test_meta_overrides_stream_and_nbytes_in_place(self):
        t = Trace()
        t.record("k", "kernel", "compute", 0.0, 1.0, stream=None, nbytes=0,
                 region=3, stream_hint=1)
        t.add(TraceEvent("u", "h2d", "h2d", 0.0, 1.0, stream=2, nbytes=8,
                         meta={"n": 1, "stream": 5, "nbytes": 9}))
        for got, want in zip(t.to_chrome_trace(), ref_to_chrome_trace(t)):
            assert list(got.get("args", {}).items()) == list(want.get("args", {}).items())
        spans = [e for e in t.to_chrome_trace() if e["ph"] == "X"]
        assert list(spans[0]["args"]) == ["region", "stream_hint"]
        assert list(spans[1]["args"].items()) == [("stream", 5), ("nbytes", 9), ("n", 1)]


# -- shared args against the trace that copied them ---------------------------


class CopyingTrace(Trace):
    """The trace before it kept one dict per distinct value: ``record``,
    ``mark`` and ``to_chrome_trace`` verbatim (each span and mark stores
    its own dict, and the export builds one ``args`` per event)."""

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
                meta=meta,
            )
        )

    def mark(self, name: str, ts: float, **args: Any) -> None:
        """Record an instant decision event (evict/hit/skip) at ``ts``."""
        if ts < 0:
            raise SimulationError(f"mark time must be >= 0, got {ts!r}")
        self._marks.append((name, ts, args))

    def to_chrome_trace(self) -> list[dict[str, Any]]:
        lane_tids = {lane: tid for tid, lane in enumerate(self.lanes())}
        events = []
        append = events.append
        for e in self._events:
            # args: stream and nbytes first, then meta (whose keys may
            # override either value, keeping its position)
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
        # thread-name metadata so the UI labels lanes
        for lane, tid in lane_tids.items():
            append({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                    "args": {"name": lane}})
        # counter tracks (queue depth, cache occupancy) render as
        # Perfetto counters alongside the lanes
        for track in sorted(self._counters):
            events += [
                {"name": track, "ph": "C", "ts": round(ts * 1e6, 6), "pid": 0,
                 "args": {"value": value}}
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
                 "args": dict(args)}
                for name, ts, args in self._marks
            ]
        return events


def typed(v: Any) -> Any:
    """``v`` with the type of every value in it spelled out (and a float's
    repr, so ``0.0`` and ``-0.0`` differ)."""
    if isinstance(v, dict):
        return ("dict", [(typed(k), typed(x)) for k, x in v.items()])
    if isinstance(v, (list, tuple)):
        return (type(v).__name__, [typed(x) for x in v])
    return (type(v).__name__, repr(v))


#: values that compare equal but serialize differently, a few that do
#: not, and a list (which no two dicts may share)
tricky = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, 2, "u", "1"]) | \
    st.lists(st.sampled_from([1, 1.0, True, -0.0]), max_size=2)

def tricky_dict(*keys):
    """Dicts built in draw order, so equal items come in different orders."""
    return st.lists(st.tuples(st.sampled_from(keys), tricky), max_size=3).map(dict)


#: a span is recorded with its meta as keywords, or added as an event
#: whose meta may override ``stream``/``nbytes``; a recorded span or a
#: mark may be repeated with its items in reverse order
op = st.one_of(
    st.tuples(st.sampled_from(["record", "add"]), st.sampled_from(["k", "up"]), times,
              st.sampled_from([None, 0, 1, 1.0, True]), st.sampled_from([0, 0.0, 64, 64.0]),
              tricky_dict("region", "slot", "n_cells"), st.booleans()),
    st.tuples(st.just("add"), st.sampled_from(["k", "up"]), times,
              st.sampled_from([None, 1, True]), st.sampled_from([0, 64, 64.0]),
              tricky_dict("stream", "nbytes", "region"), st.just(False)),
    st.tuples(st.just("counter"), st.sampled_from(["queue_depth:h2d", "z"]), times,
              st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 3])),
    st.tuples(st.just("mark"), st.sampled_from(["evict", "iteration"]), times,
              tricky_dict("stream", "region", "slot"), st.booleans()),
)


def _fill(trace: Trace, ops) -> Trace:
    for kind, name, ts, *rest in ops:
        if kind == "counter":
            trace.record_counter(name, ts, rest[0])
            continue
        *span, args, reverse = rest
        for d in (args, dict(reversed(args.items())))[:1 + reverse]:
            if kind == "mark":
                trace.mark(name, ts, **d)
                continue
            stream, nbytes = span
            cat, lane = ("kernel", "compute") if name == "k" else ("h2d", "h2d")
            if kind == "record":
                trace.record(name, cat, lane, ts, ts + 1e-5, stream=stream, nbytes=nbytes,
                             **d)
            else:
                trace.add(TraceEvent(name, cat, lane, ts, ts + 1e-5, stream=stream,
                                     nbytes=nbytes, meta=d))
    return trace


def _readers(trace: Trace) -> list[Any]:
    n = len(trace.marks)
    return [[repr(e) for e in trace], typed(trace.marks),
            [typed(trace.marks_since(i)) for i in range(-n - 1, n + 2)],
            typed(trace.counter_tracks)]


def _same_export(events, ref_events) -> None:
    assert typed(events) == typed(ref_events)
    for sort_keys in (False, True):
        assert json.dumps(events, sort_keys=sort_keys) == json.dumps(ref_events, sort_keys=sort_keys)


class TestSharedArgs:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(op, max_size=14))
    def test_reads_and_exports_as_the_copying_trace(self, ops):
        new, ref = _fill(Trace(), ops), _fill(CopyingTrace(), ops)
        assert _readers(new) == _readers(ref)
        events, ref_events = new.to_chrome_trace(), ref.to_chrome_trace()
        _same_export(events, ref_events)
        back, ref_back = Trace.from_chrome_trace(events), CopyingTrace.from_chrome_trace(ref_events)
        assert _readers(back) == _readers(ref_back)
        _same_export(back.to_chrome_trace(), ref_back.to_chrome_trace())

    def test_a_list_is_never_shared(self):
        t = Trace()
        t.mark("iteration", 0.0, fields=["u"])
        t.mark("iteration", 1.0, fields=["u"])
        a, b = (m["args"] for m in t.marks)
        assert a == b and a is not b

    def test_an_observed_heat_run_exports_one_args_per_distinct_value(self):
        from repro import Neumann, TidaAcc, heat_kernel

        lib = TidaAcc(mode="timing", device_memory_limit=2 * 2 * 8 * 6 * 18 * 18,
                      check="observe")
        for name in ("u_old", "u_new"):
            lib.add_array(name, (16, 16, 16), n_regions=4, halo=1, n_slots=2)
        for _ in range(3):
            lib.fill_boundary("u_old", Neumann())
            it = lib.iterator("u_new", "u_old").reset(gpu=True)
            while it.is_valid():
                lib.compute(it, heat_kernel(3), params={"coef": 0.1})
                it.next()
            lib.swap("u_old", "u_new")
        lib.synchronize()
        events = lib.trace.to_chrome_trace()
        # a dict of plain scalars is shared; the iteration marks' field
        # lists keep their own
        args = [e["args"] for e in events if e["ph"] in "XCi"
                and not any(isinstance(v, list) for v in e["args"].values())]
        distinct = {json.dumps(a) for a in args}
        assert {e["ph"] for e in events} >= set("XCi")
        assert len({id(a) for a in args}) == len(distinct)
        assert len(distinct) < len(args) // 4
