"""Chrome/Perfetto trace export."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

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
