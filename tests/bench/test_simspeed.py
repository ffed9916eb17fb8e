"""Simulator-speed leg: drift check and measurements (gated in test_gate)."""

from repro.bench import simspeed


class TestDriftCheck:
    def test_clean_workloads_pass(self):
        # tiny stand-in workloads so the smoke stays fast
        workloads = simspeed.DRIFT_WORKLOADS[:1]
        assert simspeed.drift_check(workloads) == []

    def test_drift_is_reported_per_part(self, monkeypatch):
        calls = {"n": 0}
        real = simspeed._fingerprint

        def flaky(res):
            calls["n"] += 1
            fp = real(res)
            if calls["n"] % 2 == 0:        # corrupt every timing fingerprint
                return (fp[0], fp[1], fp[2], fp[3] + 1.0)
            return fp

        monkeypatch.setattr(simspeed, "_fingerprint", flaky)
        failures = simspeed.drift_check(simspeed.DRIFT_WORKLOADS[:1])
        assert failures and "elapsed" in failures[0]


class TestMeasurements:
    def test_modes_report_all_three(self):
        out = simspeed.measure_modes(
            dict(shape=(48, 16, 16), steps=2, n_regions=8, n_slots=4))
        for mode in ("functional", "timing", "replay"):
            assert out[f"{mode}_ops_per_s"] > 0
        assert out["device_ops"] > 0
        # timing skips numerics, replay skips simulation: strictly ordered
        assert (out["replay_ops_per_s"] > out["timing_ops_per_s"]
                > out["functional_ops_per_s"])

    def test_conformance_sweep_speedup(self):
        out = simspeed.measure_conformance_sweep(timing_seeds=(0, 1, 2, 3))
        assert out["legs"] == 8            # 2 variants x 4 seeds
        assert out["speedup"] > 1.0

    def test_machine_sweep_speedup(self):
        out = simspeed.measure_machine_sweep(n_candidates=6)
        assert out["candidates"] == 6
        assert out["speedup"] > 1.0
