"""Tests for the live session viewer CLI (repro.obs.watch)."""

import io
import json

from repro.cuda.runtime import CudaRuntime
from repro.obs.live import TelemetryBus
from repro.obs.watch import main, parse_session, render, watch


def make_session(tmp_path, tiny_machine, *, alerts=False):
    path = tmp_path / "session.jsonl"
    bus = TelemetryBus(sample_interval=1e-3, jsonl=path)
    rt = CudaRuntime(tiny_machine, telemetry=bus)
    host = rt.malloc_pinned((256, 256))
    dev = rt.malloc((256, 256))
    for _ in range(4):
        rt.memcpy_async(dev, host, rt.default_stream)
        rt.device_synchronize()
    if alerts:
        from repro.obs.live.watchdog import Alert

        bus.publish_alert(Alert(detector="stub", severity="warning", t=rt.now,
                                window=(0.0, rt.now), message="stub"))
        bus.notify_incident("fault", error=RuntimeError("boom"))
    bus.close()
    return path


class TestOneShot:
    def test_renders_panels(self, tmp_path, tiny_machine, capsys):
        path = make_session(tmp_path, tiny_machine)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "health=ok" in out
        assert "recent samples" in out
        assert "alerts (0)" in out

    def test_alerts_and_incidents_shown(self, tmp_path, tiny_machine, capsys):
        path = make_session(tmp_path, tiny_machine, alerts=True)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "health=CRITICAL" in out
        assert "stub" in out
        assert "incident: kind=fault" in out

    def test_last_bounds_sample_rows(self, tmp_path, tiny_machine, capsys):
        path = make_session(tmp_path, tiny_machine)
        assert main([str(path), "--last", "2"]) == 0
        assert "last 2 of" in capsys.readouterr().out


class TestErrors:
    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_telemetry_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "junk.jsonl"
        path.write_text(json.dumps({"kind": "other"}) + "\nnot json\n")
        assert main([str(path)]) == 2
        assert "not a telemetry session" in capsys.readouterr().err


class TestFollow:
    def test_redraws_as_file_grows(self, tmp_path, tiny_machine):
        path = make_session(tmp_path, tiny_machine)
        stream = io.StringIO()
        rc = watch(path, follow=True, poll=0.0, last=4, stream=stream,
                   max_redraws=2)
        assert rc == 0
        # ANSI clear between redraws marks the follow mode
        assert "\x1b[2J" in stream.getvalue()


class TestParseSession:
    def test_tolerates_torn_writes(self):
        records = parse_session([
            json.dumps({"kind": "session", "sample_interval": 1e-3, "t0": 0.0}),
            '{"kind": "sample", "t": 0.001',  # torn mid-write
            "",
        ])
        assert len(records["session"]) == 1
        assert len(records["invalid"]) == 1
        assert "invalid_lines=1" in render(records)

    def test_wrong_shape_records_count_as_invalid(self, tmp_path, capsys):
        path = tmp_path / "odd.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in [
            {"kind": "session", "sample_interval": 1e-3, "t0": 0.0},
            {"kind": "sample", "t": 0.001},
            {"kind": "sample", "t": "0.002"},
            {"kind": "sample", "t": 0.003, "overlap_efficiency": "high"},
            {"kind": "sample", "stall_fraction": "0.5"},
            {"kind": ["sample"]},
            [1, 2],
            {"kind": "incident", "trigger": 5},
            {"kind": "tenant", "tenant": 3},
            {"kind": "burn", "tenant": ["a"], "state": "start"},
        ]) + "\n")
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "samples=1" in out and "invalid_lines=8" in out


def make_service_session(tmp_path, *, burning=False):
    """A hand-built repro-service-session/1 stream (+ optional SLO marks)."""
    path = tmp_path / "service.jsonl"
    lines = [
        {"kind": "header", "schema": "repro-service-session/1", "t": 0.0},
        {"kind": "tenant", "t": 0.0, "tenant": "a", "weight": 2.0},
        {"kind": "tenant", "t": 0.0, "tenant": "b", "weight": 1.0},
        {"kind": "submit", "t": 0.0, "tenant": "a", "job": "a.j0"},
        {"kind": "submit", "t": 0.0, "tenant": "b", "job": "b.j0"},
        {"kind": "admit", "t": 1e-5, "tenant": "a", "job": "a.j0"},
        {"kind": "admit", "t": 2e-5, "tenant": "b", "job": "b.j0"},
        {"kind": "finish", "t": 1e-3, "tenant": "a", "job": "a.j0",
         "latency": 1e-3, "quanta": 3, "degraded": False, "shed": 0},
    ]
    if burning:
        lines.append({"kind": "burn", "t": 2e-3, "tenant": "b",
                      "state": "start", "fast": 10.0, "slow": 5.0})
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    return path


class TestServiceSession:
    def test_renders_tenant_table(self, tmp_path, capsys):
        path = make_service_session(tmp_path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "service tenants" in out
        assert "backlog" in out
        # tenant a finished its job; tenant b still has backlog 1
        rows = [l for l in out.splitlines() if l.startswith(("a ", "b "))]
        assert any(l.split()[0] == "a" and " 0 " in l for l in rows)

    def test_burn_marks_light_the_burning_column(self, tmp_path, capsys):
        path = make_service_session(tmp_path, burning=True)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "BURNING" in out
        assert "SLO budgets burning: b" in out

    def test_status_line_tracks_service_time(self, tmp_path, capsys):
        path = make_service_session(tmp_path, burning=False)
        assert main([str(path)]) == 0
        # latest event is the finish at t=1e-3
        assert "t=0.001s" in capsys.readouterr().out

    def test_pure_service_stream_skips_samples_panel(self, tmp_path, capsys):
        path = make_service_session(tmp_path)
        assert main([str(path)]) == 0
        assert "recent samples" not in capsys.readouterr().out

    def test_combined_stream_shows_both_panels(self, tmp_path, tiny_machine,
                                               capsys):
        telem = make_session(tmp_path, tiny_machine)
        service = make_service_session(tmp_path)
        combined = tmp_path / "combined.jsonl"
        combined.write_text(telem.read_text() + service.read_text())
        assert main([str(combined)]) == 0
        out = capsys.readouterr().out
        assert "service tenants" in out
        assert "recent samples" in out
