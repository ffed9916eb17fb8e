"""The bench gate: exit codes, clamps, manifests, committed baselines.

Fake legs pin the gate's contract.  The three sub-second legs
(prefetch, critpath, live) run end to end against their committed
baselines; the simspeed leg runs with canned measurements.
"""

import fnmatch
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import gate, live, simspeed
from repro.bench.report import LegResult
from repro.obs.compare import higher_is_better

ROOT = Path(__file__).resolve().parents[2]


def fake_legs(result, **kw):
    return {"fake": gate.Leg(lambda out_dir: result, **kw)}


def write_baseline(path, counters):
    path.write_text(json.dumps(
        {"schema": "repro-run-manifest/1", "metrics": {"counters": counters}}))
    return str(path)


def committed_counters(leg):
    return json.loads((ROOT / gate.LEGS[leg].baseline).read_text())[
        "metrics"]["counters"]


class TestExitCodes:
    def test_clean_leg_exits_zero(self, tmp_path):
        base = write_baseline(tmp_path / "base.json", {"x.hits": 10.0})
        legs = fake_legs(LegResult(metrics={"counters": {"x.hits": 10.0}}),
                         baseline=base)
        out = tmp_path / "out" / "fake.json"
        assert gate.run("fake", out, legs=legs) == 0
        manifest = json.loads(out.read_text())
        assert manifest["schema"] == "repro-run-manifest/1"
        assert manifest["metrics"]["counters"] == {"x.hits": 10.0}

    def test_conformance_failure_exits_one(self, tmp_path):
        legs = fake_legs(LegResult(conformance=["heat: trace differs"]))
        out = tmp_path / "fake.json"
        assert gate.run("fake", out, legs=legs) == 1
        assert not out.exists()

    def test_floor_miss_exits_two_and_still_writes(self, tmp_path):
        legs = fake_legs(LegResult(
            metrics={"counters": {"x.speedup": 9.0}},
            raw={"detail": {"speedup": 9.0}},
            floor_misses=["sweep speedup 9.0x < 10x"],
        ))
        out = tmp_path / "fake.json"
        assert gate.run("fake", out, legs=legs) == 2
        # the miss stays inspectable
        assert json.loads(out.read_text())["detail"] == {"speedup": 9.0}

    @pytest.mark.parametrize("stall, hits, code", [
        (1.05, 9.5, 0),     # both within 10%
        (1.11, 10.0, 2),    # lower-is-better grew past 10%
        (1.0, 8.9, 2),      # higher-is-better shrank past 10%
    ])
    def test_regression_past_ten_percent_exits_two(self, tmp_path, stall,
                                                   hits, code):
        base = write_baseline(tmp_path / "base.json",
                              {"x.stall_seconds": 1.0, "x.hits": 10.0})
        legs = fake_legs(
            LegResult(metrics={"counters": {"x.stall_seconds": stall,
                                            "x.hits": hits}}),
            baseline=base)
        assert gate.run("fake", tmp_path / "fake.json", legs=legs) == code

    def test_missing_declared_baseline_exits_two(self, tmp_path):
        legs = fake_legs(LegResult(metrics={"counters": {"x.hits": 1.0}}),
                         baseline=str(tmp_path / "BENCH_missing.json"))
        out = tmp_path / "fake.json"
        assert gate.run("fake", out, legs=legs) == 2
        # written anyway, so a new leg can bootstrap its baseline
        assert out.exists()

    def test_cli_rejects_unknown_leg(self):
        with pytest.raises(SystemExit):
            gate.main(["no-such-leg"])


REGISTERED_BOUNDS = [
    (leg, pattern, bound)
    for leg, spec in gate.LEGS.items()
    for pattern, bound in spec.bounds.items()
]


class TestClamp:
    @pytest.mark.parametrize("leg, pattern, bound", REGISTERED_BOUNDS)
    def test_each_clamp_follows_higher_is_better(self, leg, pattern, bound):
        name = pattern.replace("*", "t0")
        up, down = bound * 2, bound / 2
        healthy, regressed = (up, down) if higher_is_better(name) else (down, up)
        assert gate.clamp({name: healthy}, {pattern: bound})[name] == bound
        assert gate.clamp({name: regressed}, {pattern: bound})[name] == regressed

    @pytest.mark.parametrize("name, measured, clamped", [
        ("bench.simspeed.machine_sweep_speedup", 14.8, 12.0),
        ("bench.service.priority_p95_slowdown", 1.011, 1.15),
        ("bench.slo.tenant.t3.p95_ms", 4.2, 6.5),
    ])
    def test_registered_direction(self, name, measured, clamped):
        bounds = {p: b for _, p, b in REGISTERED_BOUNDS}
        assert gate.clamp({name: measured}, bounds)[name] == clamped

    def test_unbounded_counters_pass_through(self):
        assert gate.clamp({"cuda.h2d_bytes": 7}, {"x.*": 1.0}) == {
            "cuda.h2d_bytes": 7.0}


class TestCommittedBaselines:
    @pytest.mark.parametrize(
        "leg", [n for n, spec in gate.LEGS.items() if spec.baseline])
    def test_committed_baseline_sits_at_the_bounds(self, leg):
        counters = committed_counters(leg)
        for pattern, bound in gate.LEGS[leg].bounds.items():
            names = fnmatch.filter(counters, pattern)
            assert names, f"{pattern} gates nothing in the baseline"
            for name in names:
                assert counters[name] == bound, name

    @pytest.mark.parametrize("leg", ["prefetch", "critpath"])
    def test_fast_leg_reproduces_its_baseline(self, leg, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(ROOT)
        out = tmp_path / f"{leg}.json"
        assert gate.run(leg, out) == 0
        # virtual time: the gated counters are exact, not just within 10%
        assert json.loads(out.read_text())["metrics"]["counters"] == \
            committed_counters(leg)


class TestLiveLeg:
    def test_all_legs_meet_their_expectations(self, tmp_path):
        out = tmp_path / "live.json"
        assert gate.run("live", out) == 0
        manifest = json.loads(out.read_text())
        assert all(not e["problems"] for e in manifest["legs"].values())
        assert {a["leg"] for a in manifest["alerts"]} == {
            "overlap_collapse", "cache_thrash", "retry_storm"}
        assert (tmp_path / "telemetry_nominal_heat.jsonl").exists()
        assert (tmp_path / "incidents_incident_fault" / "incident.json").exists()

    def test_nominal_leg_that_alerts_exits_two(self, tmp_path, monkeypatch):
        collapse = next(leg for leg in live._legs()
                        if leg.name == "overlap_collapse")
        noisy = replace(collapse, name="nominal_collapse", nominal=True,
                        expect_alerts=frozenset())
        monkeypatch.setattr(live, "_legs", lambda: [noisy])
        out = tmp_path / "live.json"
        assert gate.run("live", out) == 2
        problems = json.loads(out.read_text())["legs"]["nominal_collapse"][
            "problems"]
        assert any("nominal leg raised alerts" in p for p in problems)


class TestSimspeedLeg:
    @pytest.fixture
    def canned(self, monkeypatch):
        """Replace the heavy measurements; keep the real leg and gate."""
        monkeypatch.chdir(ROOT)
        monkeypatch.setattr(simspeed, "drift_check", lambda: [])
        monkeypatch.setattr(simspeed, "measure_modes", lambda: {
            "device_ops": 100.0,
            "functional_wall_s": 1.0, "functional_ops_per_s": 100.0,
            "timing_wall_s": 0.01, "timing_ops_per_s": 10_000.0,
            "replay_wall_s": 0.001, "replay_ops_per_s": 100_000.0,
            "timing_speedup": 100.0, "replay_speedup": 1000.0,
        })
        monkeypatch.setattr(simspeed, "measure_conformance_sweep", lambda: {
            "legs": 64.0, "full_wall_s": 2.5, "replay_wall_s": 0.1,
            "speedup": 25.0,
        })
        monkeypatch.setattr(simspeed, "measure_machine_sweep", lambda: {
            "candidates": 96.0, "measure_wall_s": 0.4, "replay_wall_s": 0.03,
            "speedup": 14.0,
        })

    def test_manifest_clamps_gated_counters(self, canned, tmp_path):
        out = tmp_path / "simspeed.json"
        assert gate.run("simspeed", out) == 0
        manifest = json.loads(out.read_text())
        assert manifest["metrics"]["counters"] == simspeed.BOUNDS
        # the raw, unclamped numbers stay inspectable but ungated
        assert manifest["simspeed"]["conformance_sweep"]["speedup"] == 25.0

    def test_drift_exits_one(self, canned, monkeypatch, tmp_path):
        monkeypatch.setattr(simspeed, "drift_check",
                            lambda: ["heat: trace differs between modes"])
        assert gate.run("simspeed", tmp_path / "m.json") == 1

    def test_floor_miss_exits_two(self, canned, monkeypatch, tmp_path):
        monkeypatch.setattr(simspeed, "measure_machine_sweep", lambda: {
            "candidates": 96.0, "measure_wall_s": 0.4, "replay_wall_s": 0.06,
            "speedup": simspeed.SWEEP_SPEEDUP_FLOOR - 1.0,
        })
        out = tmp_path / "m.json"
        assert gate.run("simspeed", out) == 2
        assert out.exists()
