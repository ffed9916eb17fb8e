"""End-to-end resilience: retries, recovery, degradation, exhaustion.

These tests drive the fault plans through the real stack — runtime,
TileAcc, TidaAcc, the heat runner — and check the headline guarantees:
recovery is byte-identical, exhaustion flushes surviving data, OOM
degrades gracefully, and every outcome is visible in the metrics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.common import default_init
from repro.baselines.tida_runners import run_tida_heat
from repro.core.library import TidaAcc
from repro.core.slots import DEVICE, HOST
from repro.core.tile_acc import TileAcc
from repro.cuda.runtime import CudaRuntime
from repro.errors import CudaTransferError, FaultError
from repro.faults import FaultPlan, FaultRule, RetryPolicy
from repro.openacc.runtime import AccRuntime
from repro.tida.tile_array import TileArray

SPEC = "h2d:p=0.05; d2h:p=0.05; launch:p=0.03; seed=11"


def make_stack(machine, *, n_regions=4, shape=(16,), device_memory_limit=None,
               faults=None, retry=None):
    rt = CudaRuntime(machine, functional=True,
                     device_memory_limit=device_memory_limit, faults=faults)
    acc = AccRuntime(rt)
    ta = TileArray(shape, n_regions=n_regions, runtime=rt, label="f")
    mgr = TileAcc(rt, acc, ta, retry=retry)
    return rt, acc, ta, mgr


def counters(res):
    return res.metrics["counters"]


class TestByteIdenticalRecovery:
    def test_faulted_heat_matches_fault_free(self, machine):
        kwargs = dict(shape=(48, 48), steps=4, n_regions=4, functional=True)
        clean = run_tida_heat(machine, **kwargs)
        faulted = run_tida_heat(
            machine, **kwargs,
            faults=FaultPlan.from_spec(SPEC), retry=RetryPolicy(max_attempts=5),
        )
        assert counters(faulted)["faults.injected"] > 0
        assert counters(faulted)["faults.recovered"] > 0
        assert np.array_equal(clean.result, faulted.result)
        # recovery costs virtual time (backoff + re-issue), never corrupts data
        assert faulted.elapsed > clean.elapsed

    def test_faulted_run_is_deterministic(self, machine):
        def run():
            return run_tida_heat(
                machine, shape=(48, 48), steps=3, n_regions=4, functional=True,
                faults=FaultPlan.from_spec(SPEC), retry=RetryPolicy(max_attempts=5),
            )

        a, b = run(), run()
        assert a.elapsed == b.elapsed
        assert counters(a) == counters(b)
        assert np.array_equal(a.result, b.result)

    def test_launch_fault_recovers(self, machine):
        plan = FaultPlan([FaultRule(op="launch", nth=1)])
        clean = run_tida_heat(machine, shape=(32, 32), steps=2, n_regions=4,
                              functional=True)
        faulted = run_tida_heat(machine, shape=(32, 32), steps=2, n_regions=4,
                                functional=True, faults=plan,
                                retry=RetryPolicy(max_attempts=3))
        assert counters(faulted)["faults.injected.launch"] == 1
        assert counters(faulted)["faults.recovered"] >= 1
        assert np.array_equal(clean.result, faulted.result)

    def test_unarmed_plan_fails_fast(self, machine):
        """No retry policy -> the injected CudaError propagates raw."""
        with pytest.raises(CudaTransferError):
            run_tida_heat(machine, shape=(32, 32), steps=1, n_regions=4,
                          functional=True,
                          faults=FaultPlan([FaultRule(op="h2d", nth=1)]))


class TestTransferRetry:
    def test_third_h2d_on_field_retried(self, machine):
        plan = FaultPlan([FaultRule(op="h2d", field="f", nth=3)])
        rt, _, ta, mgr = make_stack(machine, faults=plan,
                                    retry=RetryPolicy(max_attempts=3))
        for rid in range(4):
            ta.region(rid).data.array[...] = float(rid)
        for rid in range(4):
            mgr.request_device(rid)
        assert rt.metrics.value("faults.injected") == 1
        assert rt.metrics.value("faults.retries.f") == 1
        assert rt.metrics.value("faults.recovered.f") == 1
        # every region made it to the device with its data intact
        for rid in range(4):
            mgr.request_host(rid)
            assert np.all(ta.region(rid).data.array == float(rid))

    def test_retry_marks_in_trace(self, machine):
        plan = FaultPlan([FaultRule(op="h2d", nth=1)])
        rt, _, _, mgr = make_stack(machine, faults=plan,
                                   retry=RetryPolicy(max_attempts=3))
        mgr.request_device(0)
        names = [m["name"] for m in rt.trace.marks]
        assert "fault-inject" in names
        assert "fault-retry" in names
        assert "fault-recovered" in names


class TestExhaustion:
    def test_exhaustion_flushes_survivors_and_raises(self, machine):
        # region 2's upload fails on every attempt; the flush path would
        # also be killed by the d2h rule were injection not suspended
        plan = FaultPlan([
            FaultRule(op="h2d", field="r2"),
            FaultRule(op="d2h"),
        ])
        rt, _, ta, mgr = make_stack(machine, faults=plan,
                                    retry=RetryPolicy(max_attempts=2))
        for rid in range(4):
            ta.region(rid).data.array[...] = float(rid)
        mgr.request_device(0)
        mgr.request_device(1)
        assert mgr.location(0) == DEVICE and mgr.location(1) == DEVICE

        with pytest.raises(FaultError) as exc_info:
            mgr.request_device(2)
        err = exc_info.value
        assert (err.op, err.field, err.region, err.attempts) == ("h2d", "f", 2, 2)
        assert isinstance(err.__cause__, CudaTransferError)
        # survivors were downloaded despite the standing d2h rule
        assert mgr.location(0) == HOST and mgr.location(1) == HOST
        for rid in (0, 1):
            assert np.all(ta.region(rid).data.array == float(rid))
        assert rt.metrics.value("faults.retries") == 1  # one backoff, then give up

    def test_launch_exhaustion_flushes_all_fields(self, machine):
        plan = FaultPlan([FaultRule(op="launch")])
        lib = TidaAcc(machine, functional=True, faults=plan,
                      retry=RetryPolicy(max_attempts=2))
        lib.add_array("u_old", (32, 32), n_regions=4, halo=1)
        lib.add_array("u_new", (32, 32), n_regions=4, halo=1)
        init = default_init((32, 32), 0)
        lib.field("u_old").from_global(init)
        lib.field("u_new").from_global(init)

        from repro.kernels.heat import heat_kernel
        it = lib.iterator("u_new", "u_old").reset(gpu=True)
        with pytest.raises(FaultError) as exc_info:
            lib.compute(it, heat_kernel(2), params={"coef": 0.1})
        assert exc_info.value.op == "launch"
        for name in ("u_old", "u_new"):
            mgr = lib.manager(name)
            assert all(loc == HOST for loc in mgr._location)
        # host data survived untouched (the kernel never ran to completion)
        # and gather() is still consistent after the failure
        assert np.array_equal(lib.gather("u_old"), init)


class TestGracefulDegradation:
    def test_oom_pressure_shrinks_pool_and_disables_prefetch(self, machine):
        region_bytes = (16 // 4) * 8
        plan = FaultPlan([
            FaultRule(op="malloc", kind="pressure", oom_bytes=2 * region_bytes - 4),
        ])
        rt, _, ta, mgr = make_stack(
            machine, device_memory_limit=4 * region_bytes + 8,
            faults=plan, retry=RetryPolicy(max_attempts=3),
        )
        assert mgr.n_slots == 4 and mgr.prefetch_enabled
        for rid in range(4):
            ta.region(rid).data.array[...] = float(rid)
        for rid in range(4):
            mgr.request_device(rid)  # pressure forces the pool to shrink
        assert mgr.n_slots < 4
        assert mgr.prefetch_enabled is False
        assert rt.metrics.value("faults.degraded.f") >= 1
        assert mgr.prefetch(0) is False  # degraded mode refuses speculation
        for rid in range(4):
            mgr.request_host(rid)
            assert np.all(ta.region(rid).data.array == float(rid))

    def test_oom_without_retry_policy_propagates(self, machine):
        region_bytes = (16 // 4) * 8
        plan = FaultPlan([
            FaultRule(op="malloc", kind="pressure", oom_bytes=2 * region_bytes - 4),
        ])
        from repro.errors import CudaMemoryAllocationError
        rt, _, _, mgr = make_stack(machine, device_memory_limit=4 * region_bytes + 8,
                                   faults=plan, retry=None)
        mgr.request_device(0)
        mgr.request_device(1)
        with pytest.raises(CudaMemoryAllocationError):
            mgr.request_device(2)


class TestHangs:
    def test_sync_hang_costs_virtual_time(self, machine):
        plan = FaultPlan([FaultRule(op="sync", kind="hang",
                                    hang_seconds=0.005, nth=1)])
        rt, _, _, mgr = make_stack(machine, faults=plan)
        mgr.request_device(0)
        before = rt.now
        mgr.request_host(0)  # d2h + stream_synchronize: the sync hangs
        assert rt.now >= before + 0.005
        assert rt.metrics.value("faults.hang_seconds") == pytest.approx(0.005)
        assert rt.metrics.value("faults.injected.sync") == 1

    def test_copy_hang_stretches_transfer(self, machine):
        plan = FaultPlan([FaultRule(op="h2d", kind="hang",
                                    hang_seconds=0.004, nth=1)])
        rt_hang, _, _, mgr_hang = make_stack(machine, faults=plan)
        rt_ref, _, _, mgr_ref = make_stack(machine)
        _, end_hang = mgr_hang.request_device(0)
        _, end_ref = mgr_ref.request_device(0)
        assert end_hang == pytest.approx(end_ref + 0.004)


class TestContextManager:
    def test_with_statement_flushes_and_frees(self, machine):
        init = default_init((32, 32), 0)
        with TidaAcc(machine, functional=True) as lib:
            lib.add_array("u", (32, 32), n_regions=4)
            lib.field("u").from_global(init)
            for rid in range(4):
                lib.manager("u").request_device(rid)
        mgr = lib.manager("u")
        assert all(slot.buffer is None for slot in mgr.slots)
        assert all(loc == HOST for loc in mgr._location)
        assert np.array_equal(lib.field("u").to_global(), init)

    def test_exit_runs_even_after_exception(self, machine):
        with pytest.raises(RuntimeError):
            with TidaAcc(machine, functional=True) as lib:
                lib.add_array("u", (32, 32), n_regions=4)
                lib.manager("u").request_device(0)
                raise RuntimeError("boom")
        assert all(slot.buffer is None for slot in lib.manager("u").slots)


class TestDeprecatedAliases:
    def test_new_names_are_warning_free(self, machine, recwarn):
        rt = CudaRuntime(machine, functional=True)
        rt.malloc_pinned((8,), np.float64)
        rt.malloc_pageable((8,), np.float64)
        lib = TidaAcc(machine, functional=True, eviction="modulo")
        lib.add_array("u", (16,), n_regions=4, eviction="lru")
        assert not [w for w in recwarn if w.category is DeprecationWarning]
