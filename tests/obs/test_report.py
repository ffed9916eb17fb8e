"""The profiler CLI on a real heat run: report tables, counter tracks in
the Chrome export, and the ``--compare`` regression gate."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.tida_runners import run_tida_heat
from repro.obs.compare import compare_snapshots, flatten_snapshot, higher_is_better
from repro.obs.report import build_report, load_run, main, stall_table
from repro.sim.trace import Trace


@pytest.fixture(scope="module")
def heat_run():
    """A small Fig. 5-style heat solve (timing mode: fast)."""
    return run_tida_heat(shape=(32, 32, 32), steps=2, n_regions=4)


@pytest.fixture(scope="module")
def manifest(heat_run):
    return {
        "schema": "repro-run-manifest/1",
        "traceEvents": heat_run.trace.to_chrome_trace(),
        "metrics": heat_run.metrics,
    }


@pytest.fixture
def manifest_path(manifest, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest))
    return path


class TestChromeExportStructure:
    def test_at_least_two_counter_tracks(self, manifest):
        tracks = {e["name"] for e in manifest["traceEvents"] if e.get("ph") == "C"}
        assert len(tracks) >= 2
        assert any(t.startswith("queue_depth:") for t in tracks)
        assert any(t.startswith("cache_occupancy:") for t in tracks)

    def test_counter_events_carry_value_args(self, manifest):
        samples = [e for e in manifest["traceEvents"] if e.get("ph") == "C"]
        assert samples
        assert all("value" in e["args"] for e in samples)

    def test_decision_marks_are_structured_instants(self, manifest):
        marks = [e for e in manifest["traceEvents"] if e.get("ph") == "i"]
        assert marks
        assert all(e["cat"] == "decision" for e in marks)
        names = {e["name"] for e in marks}
        assert "cache-miss" in names
        # every cache-decision mark names the field, region, and slot it
        # decided about
        cache_marks = [e for e in marks if e["name"] != "iteration"]
        assert cache_marks
        assert all(
            {"field", "region", "slot"} <= set(e["args"]) for e in cache_marks
        )

    def test_iteration_marks_segment_the_run(self, heat_run, manifest):
        marks = [
            e for e in manifest["traceEvents"]
            if e.get("ph") == "i" and e["name"] == "iteration"
        ]
        # one swap per time step
        assert len(marks) == heat_run.steps
        assert all("fields" in e["args"] for e in marks)

    def test_round_trip_preserves_timing_and_sidechannels(self, heat_run, manifest):
        rebuilt = Trace.from_chrome_trace(manifest["traceEvents"])
        orig = heat_run.trace
        assert len(rebuilt) == len(orig)
        assert set(rebuilt.lanes()) == set(orig.lanes())
        for lane in orig.lanes():
            assert rebuilt.busy_time(lane) == pytest.approx(orig.busy_time(lane))
        assert set(rebuilt.counter_tracks) == set(orig.counter_tracks)
        assert len(rebuilt.marks) == len(orig.marks)


class TestLoadRun:
    def test_manifest(self, manifest_path):
        trace, metrics = load_run(manifest_path)
        assert trace is not None and len(trace) > 0
        assert metrics is not None and "counters" in metrics

    def test_bare_chrome_event_list(self, manifest, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(manifest["traceEvents"]))
        trace, metrics = load_run(path)
        assert trace is not None and len(trace) > 0
        assert metrics is None

    def test_metrics_only_manifest(self, manifest, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"metrics": manifest["metrics"]}))
        trace, metrics = load_run(path)
        assert trace is None
        assert metrics is not None


class TestReportCli:
    def test_prints_utilization_cache_and_stalls(self, manifest_path, capsys):
        assert main([str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "lane utilization" in out
        assert "widest pipeline stalls" in out
        assert "counter tracks" in out
        assert "slot-cache statistics" in out
        assert "hit rate" in out
        assert "transfer hidden behind compute" in out

    def test_build_report_tables_have_rows(self, heat_run):
        tables = build_report(
            heat_run.trace, heat_run.metrics  # straight from the run, no JSON
        )
        by_title = {t.title: t for t in tables}
        util = by_title["lane utilization"]
        assert "compute" in util.column("lane")
        cache = by_title["slot-cache statistics"]
        assert sorted(cache.column("field")) == ["u_new", "u_old"]
        for row_field in cache.column("field"):
            row = cache.row_by("field", row_field)
            hits, misses = row[1], row[2]
            assert hits + misses > 0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_empty_manifest_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert main([str(path)]) == 2
        assert "neither" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        [1, 2, 3], {"metrics": 5}, 5, {"metrics": {"counters": [1]}},
        {"traceEvents": [{"ph": "X", "ts": "0"}]}, {"alerts": [7]},
    ])
    def test_wrong_shape_exits_2_with_one_line(self, payload, manifest_path,
                                               tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad.json" in err
        # the same file as a --compare baseline
        assert main([str(manifest_path), "--compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "baseline" in err and "bad.json" in err


    @pytest.mark.parametrize("entry", [
        {"gauges": {"g": {"value": 1.0}}},
        {"gauges": {"g": {"value": "1", "max": 1.0}}},
        {"histograms": {"h": {"sum": 1.0}}},
        {"histograms": {"h": {"count": 2}}},
        {"histograms": {"h": {"count": 2, "sum": 1.0, "buckets": [1.0],
                              "counts": [2]}}},
        {"histograms": {"h": {"count": 2, "sum": 1.0, "buckets": [2.0, 1.0],
                              "counts": [1, 1, 0]}}},
        {"histograms": {"h": {"count": 2, "sum": 1.0, "buckets": [1.0],
                              "counts": [1, 1], "min": "low"}}},
    ])
    def test_malformed_metric_entry_exits_2_with_one_line(
            self, entry, manifest_path, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"metrics": entry}))
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad.json" in err
        assert main([str(manifest_path), "--compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "baseline" in err and "bad.json" in err


class TestMalformedDagRow:
    """``--critpath`` on a manifest whose DAG has a row that does not
    convert prints one line naming the file, the row and the field, and
    exits 2 (no traceback)."""

    @pytest.fixture(scope="class")
    def dag_manifest(self):
        from repro.check.dag import dag_to_json

        res = run_tida_heat(shape=(32, 32, 32), steps=2, n_regions=4,
                            check="observe")
        return {"schema": "repro-run-manifest/1",
                "traceEvents": res.trace.to_chrome_trace(),
                "metrics": res.metrics, "dag": dag_to_json(res.dag)}

    def test_valid_dag_renders(self, dag_manifest, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dag_manifest))
        assert main([str(path), "--critpath"]) == 0
        assert "critical path" in capsys.readouterr().out

    @pytest.mark.parametrize("field, mutate", [
        ("start", lambda row: row.pop("start")),
        ("deps", lambda row: row.__setitem__("deps", [[1]])),
        ("op", lambda row: row.__setitem__("op", "x")),
    ])
    def test_bad_row_exits_2_with_one_line(self, field, mutate, dag_manifest,
                                           tmp_path, capsys):
        bad = copy.deepcopy(dag_manifest)
        mutate(bad["dag"][3])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main([str(path), "--critpath"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad.json" in err
        assert "row 3" in err and repr(field) in err


def ref_stall_gaps(trace: Trace) -> list[tuple[float, str, float, str]]:
    """The stall table's gaps as a cursor sweep over each engine lane's
    events in start order, the code the interval union replaced."""
    t0 = min(e.start for e in trace)
    gaps = []
    for lane in trace.lanes():
        events = sorted(
            (e for e in trace.by_lane(lane)
             if e.category in ("kernel", "h2d", "d2h") and e.duration > 0),
            key=lambda e: e.start,
        )
        cursor = t0
        for e in events:
            if e.start > cursor:
                gaps.append((e.start - cursor, lane, cursor, e.name))
            cursor = max(cursor, e.end)
    gaps.sort(key=lambda g: -g[0])
    return gaps


spans = st.tuples(
    st.sampled_from(("kernel", "h2d", "d2h", "host")),
    st.sampled_from(("compute", "h2d", "d2h", "host")),
    st.integers(0, 20).map(lambda k: k / 4) | st.floats(0.0, 5.0),
    st.sampled_from((0.0, 0.25, 1.0)) | st.floats(0.0, 2.0),
)


class TestStallTable:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(spans, min_size=1, max_size=20))
    def test_matches_cursor_sweep(self, ops):
        trace = Trace()
        for k, (category, lane, start, length) in enumerate(ops):
            trace.record(f"op{k}", category, lane, start, start + length)
        expected = [[lane, start, width, name]
                    for width, lane, start, name in ref_stall_gaps(trace)[:100]]
        assert stall_table(trace, top=100).rows == expected

    def test_heat_run_matches_cursor_sweep(self, heat_run):
        expected = [[lane, start, width, name]
                    for width, lane, start, name in ref_stall_gaps(heat_run.trace)[:10]]
        assert stall_table(heat_run.trace).rows == expected


class TestCompareGate:
    def test_identical_runs_pass(self, manifest_path, capsys):
        rc = main([str(manifest_path), "--compare", str(manifest_path)])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_regression_fails(self, manifest, tmp_path, capsys):
        baseline = copy.deepcopy(manifest)
        # a baseline that moved half the bytes: the current run "regressed"
        # by +100%, far past the 10% threshold
        baseline["metrics"]["counters"]["cuda.h2d_bytes"] *= 0.5
        cur_path = tmp_path / "cur.json"
        base_path = tmp_path / "base.json"
        cur_path.write_text(json.dumps(manifest))
        base_path.write_text(json.dumps(baseline))
        rc = main([str(cur_path), "--compare", str(base_path)])
        # gate failures share exit code 2 with the other report gates
        assert rc == 2
        out = capsys.readouterr().out
        assert "cuda.h2d_bytes" in out
        assert "REGRESSED" in out

    def test_threshold_is_respected(self, manifest, tmp_path):
        baseline = copy.deepcopy(manifest)
        baseline["metrics"]["counters"]["cuda.h2d_bytes"] *= 0.5
        cur_path = tmp_path / "cur.json"
        base_path = tmp_path / "base.json"
        cur_path.write_text(json.dumps(manifest))
        base_path.write_text(json.dumps(baseline))
        # +100% growth is fine under a 300% threshold
        rc = main([str(cur_path), "--compare", str(base_path), "--threshold", "3.0"])
        assert rc == 0

    def test_compare_needs_metrics_on_both_sides(self, manifest, tmp_path, capsys):
        with_metrics = tmp_path / "m.json"
        with_metrics.write_text(json.dumps(manifest))
        without = tmp_path / "t.json"
        without.write_text(json.dumps(manifest["traceEvents"]))
        assert main([str(with_metrics), "--compare", str(without)]) == 2
        assert "metrics" in capsys.readouterr().err


class TestCompareSemantics:
    def test_direction_awareness(self):
        base = {"counters": {"cache.hits.f": 100.0, "cuda.stall_seconds": 1.0}}
        cur = {"counters": {"cache.hits.f": 50.0, "cuda.stall_seconds": 2.0}}
        _rows, regressions = compare_snapshots(cur, base, threshold=0.10)
        assert {r["metric"] for r in regressions} == {
            "cache.hits.f",        # hits fell: higher-is-better
            "cuda.stall_seconds",  # stalls grew: lower-is-better
        }

    def test_improvements_are_not_regressions(self):
        base = {"counters": {"cache.hits.f": 50.0, "cuda.stall_seconds": 2.0}}
        cur = {"counters": {"cache.hits.f": 100.0, "cuda.stall_seconds": 1.0}}
        rows, regressions = compare_snapshots(cur, base, threshold=0.10)
        assert regressions == []
        assert {r["verdict"] for r in rows} == {"improved"}

    def test_new_and_removed_metrics_never_gate(self):
        base = {"counters": {"removed_metric": 5.0}}
        cur = {"counters": {"new_metric": 5.0}}
        rows, regressions = compare_snapshots(cur, base)
        assert regressions == []
        assert {r["verdict"] for r in rows} == {"new", "removed"}

    def test_zero_baseline_reports_new_not_infinite_regression(self):
        base = {"counters": {"cuda.stall_seconds": 0.0}}
        cur = {"counters": {"cuda.stall_seconds": 3.0}}
        rows, regressions = compare_snapshots(cur, base)
        assert regressions == []
        (row,) = rows
        assert row["verdict"] == "new"
        assert row["rel_change"] is None
        assert row["baseline"] == 0.0 and row["current"] == 3.0

    def test_zero_baseline_zero_current_is_ok(self):
        base = {"counters": {"cuda.stall_seconds": 0.0}}
        cur = {"counters": {"cuda.stall_seconds": 0.0}}
        rows, regressions = compare_snapshots(cur, base)
        assert regressions == []
        assert rows[0]["verdict"] == "ok"

    def test_flatten_covers_all_instrument_kinds(self):
        from repro.obs import MetricsRegistry

        m = MetricsRegistry()
        m.inc("c", 2.0)
        m.set_gauge("g", 7.0)
        m.observe("h", 3.0)
        flat = flatten_snapshot(m.snapshot())
        assert flat == {"c": 2.0, "g.max": 7.0, "h.count": 1.0, "h.sum": 3.0,
                        "h.p50": 3.0, "h.p95": 3.0, "h.p99": 3.0}

    def test_higher_is_better_fragments(self):
        assert higher_is_better("cache.hits.f")
        assert higher_is_better("ghost.hybrid_overlap_seconds")
        assert not higher_is_better("cuda.h2d_bytes")
        assert not higher_is_better("cache.evictions.f")


class TestHazardTable:
    """The hazard checker's findings surface in the profiler report."""

    @pytest.fixture(scope="class")
    def racy_run(self):
        """A deliberately unsynchronized pair of copies, checker observing."""
        from repro.config import k40m_pcie3
        from repro.cuda.runtime import CudaRuntime

        rt = CudaRuntime(k40m_pcie3(), check="observe")
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        rt.memcpy_async(h, a, s2)
        return rt

    def test_hazard_rows_from_trace_marks(self, racy_run):
        from repro.obs.report import hazard_table

        table = hazard_table(racy_run.trace, racy_run.metrics.snapshot())
        assert len(table.rows) == 2
        kinds = {row[2] for row in table.rows}
        assert kinds == {"RAW", "WAR"}
        assert any("racy = 2" in n for n in table.notes)

    def test_clean_checked_run_reports_ops(self, racy_run):
        from repro.obs.report import hazard_table

        table = hazard_table(None, racy_run.metrics.snapshot())
        assert table.rows == []
        assert any("checked ops = 2" in n for n in table.notes)

    def test_build_report_appends_hazards(self, racy_run):
        tables = build_report(racy_run.trace, racy_run.metrics.snapshot())
        titles = [t.title for t in tables]
        assert "happens-before hazards" in titles

    def test_unchecked_run_has_no_hazard_table(self, heat_run):
        tables = build_report(heat_run.trace, heat_run.metrics)
        assert "happens-before hazards" not in [t.title for t in tables]

    def test_check_counters_off_generic_metrics_table(self, racy_run):
        from repro.obs.report import metrics_table

        table = metrics_table(racy_run.metrics.snapshot())
        assert not any(str(row[0]).startswith("check.") for row in table.rows)

    def test_hazard_marks_survive_chrome_round_trip(self, racy_run, tmp_path):
        path = tmp_path / "racy.json"
        path.write_text(json.dumps({
            "schema": "repro-run-manifest/1",
            "traceEvents": racy_run.trace.to_chrome_trace(),
            "metrics": racy_run.metrics.snapshot(),
        }))
        trace, metrics = load_run(path)
        from repro.obs.report import hazard_table

        assert len(hazard_table(trace, metrics).rows) == 2


class TestWildcardPatterns:
    """Baseline metric names may be glob patterns (satellite of the SLO
    gate: per-tenant keys collapse into one committed wildcard row)."""

    def test_pattern_expands_against_current_keys(self):
        base = {"counters": {"bench.slo.tenant.*.p95_ms": 5.0}}
        cur = {"counters": {"bench.slo.tenant.a.p95_ms": 5.0,
                            "bench.slo.tenant.b.p95_ms": 5.0}}
        rows, regressions = compare_snapshots(cur, base, threshold=0.10)
        assert regressions == []
        assert sorted(r["metric"] for r in rows) == [
            "bench.slo.tenant.a.p95_ms", "bench.slo.tenant.b.p95_ms"]
        assert all(r["pattern"] == "bench.slo.tenant.*.p95_ms" for r in rows)

    def test_expansion_is_deterministic(self):
        base = {"counters": {"x.*": 1.0}}
        cur = {"counters": {f"x.{i}": 1.0 for i in range(5)}}
        rows1, _ = compare_snapshots(cur, base)
        rows2, _ = compare_snapshots(cur, base)
        assert [r["metric"] for r in rows1] == [r["metric"] for r in rows2]
        assert [r["metric"] for r in rows1] == sorted(
            r["metric"] for r in rows1)

    def test_pattern_gates_each_expanded_key(self):
        base = {"counters": {"bench.slo.tenant.*.p95_ms": 5.0}}
        cur = {"counters": {"bench.slo.tenant.a.p95_ms": 5.0,
                            "bench.slo.tenant.b.p95_ms": 9.0}}  # worse
        _rows, regressions = compare_snapshots(cur, base, threshold=0.10)
        assert [r["metric"] for r in regressions] == [
            "bench.slo.tenant.b.p95_ms"]

    def test_explicit_key_beats_pattern(self):
        base = {"counters": {"bench.slo.tenant.*.p95_ms": 5.0,
                             "bench.slo.tenant.b.p95_ms": 20.0}}
        cur = {"counters": {"bench.slo.tenant.a.p95_ms": 5.0,
                            "bench.slo.tenant.b.p95_ms": 19.0}}
        _rows, regressions = compare_snapshots(cur, base, threshold=0.10)
        # b is judged against its explicit 20.0 baseline, not the wildcard
        assert regressions == []

    def test_unmatched_pattern_is_a_regression_with_teeth(self):
        base = {"counters": {"bench.slo.tenant.*.p95_ms": 5.0}}
        cur = {"counters": {"something.else": 1.0}}
        _rows, regressions = compare_snapshots(cur, base)
        assert len(regressions) == 1
        row = regressions[0]
        assert row["verdict"] == "REGRESSED"
        assert row["current"] is None
        assert row["pattern"] == "bench.slo.tenant.*.p95_ms"

    def test_literal_names_with_no_glob_chars_are_unchanged(self):
        base = {"counters": {"plain.metric": 1.0}}
        cur = {"counters": {"plain.metric": 1.0}}
        rows, regressions = compare_snapshots(cur, base)
        assert regressions == []
        assert "pattern" not in rows[0]


class TestSloBlameTables:
    @pytest.fixture(scope="class")
    def slo_manifest(self, tmp_path_factory):
        from repro.obs.critpath import blame_decomposition, blame_summary
        from repro.obs.slo import JobSli, SloPolicy, SloTracker

        tracker = SloTracker([SloPolicy(tenant="a", target=1.0,
                                        objective=0.9, fast_window=2,
                                        slow_window=4, fast_burn=2.0,
                                        slow_burn=2.0, exit_burn=0.5)])
        for n in range(4):
            tracker.observe(JobSli(
                job=f"a.j{n}", tenant="a", t=float(n + 1), latency=2.0,
                queue_wait=0.5, start_delay=0.5, execute=0.5, drain=0.5))
        solo = {"submitted": 0.0, "admitted": 0.0, "started": 0.0,
                "last_quantum_end": 1.0, "drained": 1.2,
                "own_seconds": 1.0, "quanta": 1, "wait": {}}
        mux = {"submitted": 0.0, "admitted": 0.5, "started": 0.5,
               "last_quantum_end": 2.0, "drained": 2.4,
               "own_seconds": 1.0, "quanta": 2, "wait": {"queued": 0.5}}
        row = blame_decomposition(mux, solo)
        row["job"] = "a.j0"
        path = tmp_path_factory.mktemp("slo") / "slo.json"
        path.write_text(json.dumps({
            "schema": "repro-run-manifest/1",
            "metrics": {"counters": {"bench.ok": 1.0}},
            "slo": tracker.snapshot(),
            "blame": {"jobs": [row], "summary": blame_summary([row])},
        }))
        return path

    def test_slo_table_renders(self, slo_manifest, capsys):
        assert main([str(slo_manifest), "--slo"]) == 0
        out = capsys.readouterr().out
        assert "per-tenant SLO status" in out
        assert "BURNING" in out          # 4 straight misses: burning
        assert "budget_left" in out

    def test_blame_table_renders(self, slo_manifest, capsys):
        assert main([str(slo_manifest), "--blame"]) == 0
        out = capsys.readouterr().out
        assert "contention blame" in out
        assert "queueing_wait" in out
        assert "components sum to delta" in out

    def test_manifest_without_slo_key_exits_2(self, manifest_path, capsys):
        assert main([str(manifest_path), "--slo"]) == 2
        assert "no 'slo' snapshot" in capsys.readouterr().err

    def test_manifest_without_blame_key_exits_2(self, manifest_path, capsys):
        assert main([str(manifest_path), "--blame"]) == 2
        assert "no 'blame'" in capsys.readouterr().err
