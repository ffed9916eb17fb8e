"""The causal run DAG the hazard checker records alongside its clocks.

Each test issues a tiny schedule through the real runtime under
``check="observe"`` and asserts the shape of ``checker.dag``: which edge
kinds appear, what the host edge captured, and that serialization is
lossless.  The critical-path analyses built *on* the DAG live in
``tests/obs/test_critpath.py``.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import DagNode, dag_from_json, dag_to_json
from repro.cuda.runtime import CudaRuntime
from repro.errors import DagFormatError, ReproError


@pytest.fixture
def rt(machine):
    return CudaRuntime(machine, check="observe")


def deps_of(node, kind):
    return [d for d, k in node.deps if k == kind]


class TestEdgeKinds:
    def test_stream_fifo_edge(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s = rt.create_stream()
        rt.memcpy_async(a, h, s)
        rt.memcpy_async(h, a, s)
        first, second = rt.checker.dag
        assert deps_of(second, "stream") == [first.op_id]
        assert first.deps == ()

    def test_event_edge(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        ev = rt.create_event()
        rt.memcpy_async(a, h, s1)
        rt.event_record(ev, s1)
        rt.stream_wait_event(s2, ev)
        rt.memcpy_async(h, a, s2)
        first, second = rt.checker.dag
        assert deps_of(second, "event") == [first.op_id]

    def test_after_edge(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        end = rt.memcpy_async(a, h, s1)
        rt.memcpy_async(h, a, s2, after=end)
        first, second = rt.checker.dag
        assert deps_of(second, "after") == [first.op_id]

    def test_engine_fifo_edge(self, rt):
        # two H2D copies of *different* buffers on different streams: no
        # program-order edge, but they share the H2D DMA engine
        a1, a2 = rt.malloc(1024, label="a1"), rt.malloc(1024, label="a2")
        h1 = rt.malloc_pinned(1024, label="h1")
        h2 = rt.malloc_pinned(1024, label="h2")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a1, h1, s1)
        rt.memcpy_async(a2, h2, s2)
        first, second = rt.checker.dag
        assert deps_of(second, "stream") == []
        assert deps_of(second, "engine") == [first.op_id]

    def test_strongest_kind_wins_for_shared_predecessor(self, rt):
        # same stream *and* same engine: the edge is reported as the
        # strong program-order kind, not the weak engine FIFO
        a = rt.malloc(1024, label="a")
        b = rt.malloc(1024, label="b")
        h1 = rt.malloc_pinned(1024, label="h1")
        h2 = rt.malloc_pinned(1024, label="h2")
        s = rt.create_stream()
        rt.memcpy_async(a, h1, s)
        rt.memcpy_async(b, h2, s)
        _, second = rt.checker.dag
        assert second.deps == ((1, "stream"),)


class TestNodeContents:
    def test_transfers_record_nbytes(self, rt):
        a = rt.malloc(4096, label="a")
        h = rt.malloc_pinned(4096, label="h")
        rt.memcpy_async(a, h, rt.create_stream())
        (node,) = rt.checker.dag
        assert node.kind == "h2d"
        assert node.nbytes == h.nbytes > 0

    def test_times_are_causal(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s = rt.create_stream()
        rt.memcpy_async(a, h, s)
        rt.memcpy_async(h, a, s)
        for node in rt.checker.dag:
            assert node.issue <= node.start < node.end
        assert rt.checker.dag[0].end <= rt.checker.dag[1].start

    def test_host_dep_after_blocking_sync(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        rt.stream_synchronize(s1)
        rt.memcpy_async(h, a, s2)
        first, second = rt.checker.dag
        assert first.host_dep is None
        assert second.host_dep == first.op_id
        assert second.host_gap >= 0.0

    def test_host_dep_after_event_sync(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        ev = rt.create_event()
        rt.memcpy_async(a, h, s1)
        rt.event_record(ev, s1)
        rt.event_synchronize(ev)
        rt.memcpy_async(h, a, s2)
        first, second = rt.checker.dag
        assert second.host_dep == first.op_id


class TestResetSchedule:
    def test_dag_survives_but_resolution_state_clears(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s = rt.create_stream()
        rt.memcpy_async(a, h, s)
        rt.stream_synchronize(s)
        rt.checker.reset_schedule()
        assert len(rt.checker.dag) == 1  # history kept for the profiler
        # ...but a new op on the same stream starts a fresh schedule:
        # no stale stream edge, no stale host edge
        rt.memcpy_async(h, a, s)
        node = rt.checker.dag[-1]
        assert node.deps == ()
        assert node.host_dep is None


class TestSerialization:
    def make_dag(self, rt):
        a = rt.malloc(2048, label="a")
        h = rt.malloc_pinned(2048, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        end = rt.memcpy_async(a, h, s1)
        rt.stream_synchronize(s1)
        rt.memcpy_async(h, a, s2, after=end)
        return list(rt.checker.dag)

    def test_json_round_trip_is_lossless(self, rt):
        dag = self.make_dag(rt)
        assert dag_from_json(dag_to_json(dag)) == dag

    def test_from_json_sorts_and_tolerates_missing_optionals(self):
        rows = [
            {"op": 2, "start": 1.0, "end": 2.0},
            {"op": 1, "kind": "h2d", "label": "up", "start": 0.0, "end": 1.0,
             "issue": 0.0, "nbytes": 64, "streams": [[0, 1]],
             "engines": ["h2d"], "deps": [], "host_dep": None,
             "host_gap": 0.0},
        ]
        n1, n2 = dag_from_json(rows)
        assert (n1.op_id, n2.op_id) == (1, 2)
        assert n2.kind == "?" and n2.deps == () and n2.issue == n2.start

    def test_checker_dag_export_matches_to_json(self, rt):
        dag = self.make_dag(rt)
        assert rt.checker.dag_export() == dag_to_json(dag)

    def test_json_is_plain_data(self, rt):
        import json

        rows = rt.checker.dag_export()
        assert json.loads(json.dumps(rows)) == rows


class TestDagNode:
    def test_duration_and_shifted(self):
        n = DagNode(op_id=1, kind="h2d", label="up", start=1.0, end=3.0,
                    issue=0.5, nbytes=8, streams=((0, 1),), engines=("h2d",),
                    deps=(), host_dep=None, host_gap=0.25)
        assert n.duration == 2.0
        m = n.shifted(10.0, 12.0, 9.5)
        assert (m.start, m.end, m.issue) == (10.0, 12.0, 9.5)
        assert m.duration == 2.0
        # everything else is carried over
        assert (m.op_id, m.kind, m.label, m.nbytes) == (1, "h2d", "up", 8)
        assert m.deps == () and m.host_gap == 0.25
        assert m == dataclasses.replace(n, start=10.0, end=12.0, issue=9.5)
        assert (n.start, n.end, n.issue) == (1.0, 3.0, 0.5)   # source intact
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.start = 0.0


# -- (de)serialization against the per-row reference -------------------------


def ref_dag_to_json(nodes):
    """The row writer before rows were built by comprehension, verbatim."""
    out = []
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


def ref_dag_from_json(rows):
    """The row reader before its rows were built positionally, verbatim."""
    nodes = []
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


ints = st.integers(-3, 50)
#: an int as itself or as the numeric string a hand-edited manifest holds
int_like = ints | ints.map(str)
#: a time as a float, an int or a numeric string
time_like = (st.floats(allow_nan=False, allow_infinity=False, width=32) | ints
             | st.floats(0, 10, width=32).map(repr))
optional_fields = {
    "kind": st.sampled_from(["h2d", "d2h", "kernel", "peer"]) | ints,
    "label": st.text(max_size=6) | ints,
    "issue": time_like,
    "nbytes": int_like,
    "streams": st.lists(st.lists(int_like, min_size=2, max_size=2), max_size=2),
    "engines": st.lists(st.sampled_from(["compute", "h2d", "d2h"]) | ints, max_size=2),
    "deps": st.lists(st.tuples(int_like, st.sampled_from(["stream", "after", "engine"]))
                     .map(list), max_size=3),
    "host_dep": st.none() | int_like,
    "host_gap": time_like,
    "cost": st.none() | st.lists(time_like, min_size=2, max_size=2),
}
rows_strategy = st.lists(
    st.fixed_dictionaries(
        {"op": int_like, "start": time_like, "end": time_like},
        optional={k: v for k, v in optional_fields.items()},
    ),
    max_size=12,
)


def node_signature(node):
    """Every field with its type, nested tuples included."""
    def typed(v):
        if isinstance(v, tuple):
            return ("tuple", [typed(x) for x in v])
        return (type(v).__name__, repr(v))
    return [(f.name, typed(getattr(node, f.name))) for f in dataclasses.fields(node)]


class TestSerializationDifferential:
    """``dag_to_json``/``dag_from_json`` against the per-row reference:
    equal nodes (by value and by type), and equal JSON bytes without
    ``sort_keys`` (same key order)."""

    @settings(max_examples=300, deadline=None)
    @given(rows_strategy)
    def test_from_json_matches_reference(self, rows):
        got, want = dag_from_json(rows), ref_dag_from_json(rows)
        assert got == want
        assert [node_signature(n) for n in got] == [node_signature(n) for n in want]
        assert all(type(n) is DagNode for n in got)

    @settings(max_examples=300, deadline=None)
    @given(rows_strategy)
    def test_to_json_matches_reference(self, rows):
        nodes = ref_dag_from_json(rows)
        got, want = dag_to_json(nodes), ref_dag_to_json(nodes)
        assert json.dumps(got) == json.dumps(want)
        assert got == want

    def test_recorded_dag_round_trips_byte_for_byte(self, rt):
        dag = TestSerialization().make_dag(rt)
        assert json.dumps(dag_to_json(dag)) == json.dumps(ref_dag_to_json(dag))
        assert dag_from_json(dag_to_json(dag)) == ref_dag_from_json(ref_dag_to_json(dag))


class TestMalformedRows:
    """A row that does not convert raises DagFormatError naming its index
    in the list and the field at fault."""

    GOOD = {"op": 1, "kind": "h2d", "label": "up", "start": 0.0, "end": 1.0,
            "issue": 0.0, "nbytes": 64, "streams": [[0, 1]], "engines": ["h2d"],
            "deps": [[0, "stream"]], "host_dep": None, "host_gap": 0.0,
            "cost": None}

    @pytest.mark.parametrize("field, value", [
        ("op", "x"), ("start", None), ("end", "late"), ("issue", [1]),
        ("nbytes", "many"), ("streams", [[1]]), ("streams", 5),
        ("engines", 3), ("deps", [[1]]), ("deps", [["a", "b"]]),
        ("host_dep", "h"), ("host_gap", {}), ("cost", [1.0]),
    ])
    def test_bad_value_names_row_and_field(self, field, value):
        rows = [dict(self.GOOD), dict(self.GOOD, op=2)]
        rows[1][field] = value
        with pytest.raises(DagFormatError) as info:
            dag_from_json(rows)
        assert (info.value.row, info.value.field) == (1, field)
        assert isinstance(info.value, ReproError)
        assert "row 1" in str(info.value) and repr(field) in str(info.value)

    @pytest.mark.parametrize("field", ["op", "start", "end"])
    def test_missing_required_field(self, field):
        row = dict(self.GOOD)
        del row[field]
        with pytest.raises(DagFormatError) as info:
            dag_from_json([row])
        assert (info.value.row, info.value.field) == (0, field)
        assert "missing" in str(info.value)

    def test_row_that_is_not_an_object(self):
        with pytest.raises(DagFormatError) as info:
            dag_from_json([dict(self.GOOD), [1, 2]])
        assert (info.value.row, info.value.field) == (1, None)
