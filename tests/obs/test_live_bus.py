"""Unit tests for the live telemetry bus (repro.obs.live.bus)."""

import json

import numpy as np
import pytest

from repro.baselines.tida_runners import run_tida_heat
from repro.cuda.kernel import KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.obs.live import TelemetryBus, TelemetrySubscriber
from repro.obs.records import read_records
from repro.obs.metrics import ObsError

SHAPE = (64, 64, 64)


def busy_kernel():
    def body(arr):
        arr += 1.0
    return KernelSpec(name="busy", body=body, bytes_per_cell=16.0,
                      flops_per_cell=100.0)


def drive(runtime, *, rounds=3):
    """A few H2D + kernel + sync rounds: deterministic mixed activity."""
    host = runtime.malloc_pinned((256, 256))
    dev = runtime.malloc((256, 256))
    stream = runtime.create_stream()
    for _ in range(rounds):
        runtime.memcpy_async(dev, host, stream)
        runtime.launch(busy_kernel(), buffers=[dev], stream=stream)
        runtime.stream_synchronize(stream)
    return runtime.clock.now


class TestBusBasics:
    def test_rejects_bad_interval(self):
        with pytest.raises(ObsError):
            TelemetryBus(sample_interval=0.0)
        with pytest.raises(ObsError):
            TelemetryBus(sample_interval=-1e-3)

    def test_attach_is_idempotent_and_single_clock(self, tiny_machine):
        bus = TelemetryBus(sample_interval=1e-3)
        rt = CudaRuntime(tiny_machine, telemetry=bus)
        rt.attach_telemetry(bus)  # same clock: fine
        other = CudaRuntime(tiny_machine)
        with pytest.raises(ObsError):
            bus.attach(other)  # second clock: refused

    def test_samples_on_interval_boundaries(self, tiny_machine):
        bus = TelemetryBus(sample_interval=1e-3)
        rt = CudaRuntime(tiny_machine, telemetry=bus)
        drive(rt)
        assert bus.samples, "monitored run produced no samples"
        for s in bus.samples:
            # every boundary sample sits on the k*interval grid
            k = s.t / bus.sample_interval
            assert abs(k - round(k)) < 1e-6
            assert s.dt == pytest.approx(bus.sample_interval)
        seqs = [s.seq for s in bus.samples]
        assert seqs == list(range(len(seqs)))

    def test_one_jump_backfills_every_boundary(self, tiny_machine):
        bus = TelemetryBus(sample_interval=1e-3)
        rt = CudaRuntime(tiny_machine, telemetry=bus)
        rt.clock.advance(5.5e-3)  # one advancement over five boundaries
        assert [round(s.t * 1e3) for s in bus.samples] == [1, 2, 3, 4, 5]

    def test_derived_rates(self, tiny_machine):
        bus = TelemetryBus(sample_interval=1e-3)
        rt = CudaRuntime(tiny_machine, telemetry=bus)
        drive(rt, rounds=6)
        bus.close()
        total_bytes = sum(s.deltas.get("h2d_bytes", 0.0) for s in bus.samples)
        assert total_bytes == pytest.approx(6 * 256 * 256 * 8)
        for s in bus.samples:
            assert s.h2d_bytes_per_s == pytest.approx(
                s.deltas.get("h2d_bytes", 0.0) / s.dt)
            assert 0.0 <= s.stall_fraction <= 1.0
            assert 0.0 <= s.compute_fraction <= 1.0
            assert 0.0 <= s.transfer_fraction <= 1.0
            if s.overlap_efficiency is not None:
                assert 0.0 <= s.overlap_efficiency <= 1.0
        # the workload computes and transfers: fractions must show up
        assert any(s.compute_fraction > 0 for s in bus.samples)
        assert any(s.transfer_fraction > 0 for s in bus.samples)

    def test_close_emits_final_partial_sample(self, tiny_machine):
        bus = TelemetryBus(sample_interval=1.0)  # far coarser than the run
        rt = CudaRuntime(tiny_machine, telemetry=bus)
        drive(rt)
        assert not bus.samples  # no boundary was crossed
        bus.close()
        assert len(bus.samples) == 1 and bus.samples[-1].final
        assert bus.samples[-1].t == pytest.approx(rt.clock.now)

    def test_health_transitions(self, tiny_machine):
        bus = TelemetryBus(sample_interval=1e-3)
        assert bus.health()["status"] == "idle"
        rt = CudaRuntime(tiny_machine, telemetry=bus)
        drive(rt)
        assert bus.health()["status"] == "ok"
        bus.notify_incident("fault", error=RuntimeError("boom"))
        h = bus.health()
        assert h["status"] == "critical" and h["incidents"] == 1
        bus.close()
        assert bus.health()["now"] > 0.0  # time survives detach


class TestSubscribers:
    def test_fanout_order_and_hooks(self, tiny_machine):
        seen = []

        class Probe(TelemetrySubscriber):
            def __init__(self, name):
                self.name = name

            def on_sample(self, sample):
                seen.append((self.name, sample.seq))

        bus = TelemetryBus(sample_interval=1e-3)
        bus.add_subscriber(Probe("a"))
        bus.add_subscriber(Probe("b"))
        rt = CudaRuntime(tiny_machine, telemetry=bus)
        drive(rt)
        assert seen[:2] == [("a", 0), ("b", 0)]


class TestJsonlSession:
    def test_session_file_roundtrip(self, tiny_machine, tmp_path):
        path = tmp_path / "session.jsonl"
        bus = TelemetryBus(sample_interval=1e-3, jsonl=path)
        rt = CudaRuntime(tiny_machine, telemetry=bus)
        drive(rt)
        bus.notify_incident("fault", error=RuntimeError("boom"))
        bus.close()
        records = read_records(path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "session" and kinds.count("session") == 1
        assert records[0]["schema"] == "repro-telemetry/1"
        assert kinds.count("sample") == len(bus.samples)
        assert kinds.count("incident") == 1
        # sorted keys: the line is byte-stable
        line = path.read_text().splitlines()[1]
        assert json.loads(line) == json.loads(
            json.dumps(json.loads(line), sort_keys=True))


class TestNoOverhead:
    """Telemetry must not perturb the run it observes."""

    def run(self, telemetry):
        return run_tida_heat(shape=SHAPE, steps=2, n_regions=4,
                             functional=False, telemetry=telemetry)

    def test_monitored_run_is_bit_identical(self):
        bare = self.run(None)
        bus = TelemetryBus(sample_interval=1e-4)
        monitored = self.run(bus)
        bus.close()
        assert bus.samples, "sanity: the bus actually sampled"
        assert monitored.elapsed == bare.elapsed
        assert len(monitored.trace.events) == len(bare.trace.events)
        assert monitored.trace.to_chrome_trace() == bare.trace.to_chrome_trace()

    def test_disabled_bus_is_inert(self):
        bus = TelemetryBus(sample_interval=1e-4, enabled=False)
        r = self.run(bus)
        bus.close()
        assert bus.samples == [] and bus.alerts == []
        assert not bus.attached
        assert r.elapsed > 0

    def test_no_new_metrics_from_sampling(self, tiny_machine):
        bare_rt = CudaRuntime(tiny_machine)
        drive(bare_rt)
        bus = TelemetryBus(sample_interval=1e-3)
        mon_rt = CudaRuntime(tiny_machine, telemetry=bus)
        drive(mon_rt)
        bus.close()
        assert mon_rt.metrics.snapshot() == bare_rt.metrics.snapshot()


class TestRuntimeSurface:
    def test_unmonitored_health(self, tiny_machine):
        rt = CudaRuntime(tiny_machine)
        h = rt.health()
        assert h["status"] == "unmonitored" and not h["monitored"]

    def test_monitored_health_delegates(self, tiny_machine):
        bus = TelemetryBus(sample_interval=1e-3)
        rt = CudaRuntime(tiny_machine, telemetry=bus)
        drive(rt)
        assert rt.health() == bus.health()

    def test_engine_state_rows(self, tiny_machine):
        bus = TelemetryBus(sample_interval=1e-3)
        rt = CudaRuntime(tiny_machine, telemetry=bus)
        drive(rt)
        rows = bus.engine_state()
        assert rows and {"name", "kind", "tail", "busy_time", "op_count"} <= set(rows[0])
