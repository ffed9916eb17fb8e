"""The compute-intensive body split over host CPUs: the same bytes and the
same errors as one serial pass, and nothing traced off the calling thread.

``_ci_body`` runs contiguous row blocks of its view in parallel threads.
Every test here compares it with the serial loop below, kept verbatim
from before the split.  The block count is forced through the module's
CPU count and block floors (cells, and cells x iterations); the tests that leave both alone take the
one-CPU path when the process is pinned to one CPU (``taskset -c 0``).
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import TidaAcc
from repro.kernels import compute_intensive as ci

HOST_CPUS = ci._cpus()


def serial_ci(
    data: np.ndarray,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
    kernel_iteration: int = ci.DEFAULT_KERNEL_ITERATION,
) -> None:
    view = data[tuple(slice(l, h) for l, h in zip(lo, hi))]
    for _ in range(int(kernel_iteration)):
        s = np.sin(view)
        c = np.cos(view)
        view += np.sqrt(s * s + c * c)


@pytest.fixture
def blocks_log(monkeypatch):
    """(thread id, block shape) of every block the body runs."""
    log = []
    inner = ci._ci_loop

    def logged(view, kernel_iteration):
        log.append((threading.get_ident(), view.shape))
        inner(view, kernel_iteration)

    monkeypatch.setattr(ci, "_ci_loop", logged)
    return log


@st.composite
def ghosted_views(draw):
    """A parent array with 0-2 ghost cells per side and a view inside it."""
    ndim = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 9)),) + tuple(draw(st.integers(1, 6))
                                               for _ in range(ndim - 1))
    ghost = draw(st.integers(0, 2))
    parent = tuple(n + 2 * ghost for n in shape)
    mags = draw(st.sampled_from([1.0, 1e3, 1e6]))
    values = draw(st.lists(st.floats(-mags, mags, allow_nan=False),
                           min_size=int(np.prod(parent)),
                           max_size=int(np.prod(parent))))
    data = np.array(values, dtype=np.float64).reshape(parent)
    lo = (ghost,) * ndim
    hi = tuple(g + n for g, n in zip(lo, shape))
    return data, lo, hi


class TestSameBytes:
    @pytest.mark.parametrize("cpus", [1, HOST_CPUS, 4 * HOST_CPUS + 1],
                             ids=["one", "host", "over"])
    @given(case=ghosted_views(), kernel_iteration=st.integers(1, 70))
    @settings(max_examples=40, deadline=None)
    def test_split_equals_serial_loop(self, cpus, case, kernel_iteration):
        data, lo, hi = case
        want = data.copy()
        serial_ci(want, lo, hi, kernel_iteration)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ci, "_cpus", lambda: cpus)
            mp.setattr(ci, "MIN_BLOCK_CELLS", 1)  # split every multi-row view
            mp.setattr(ci, "MIN_BLOCK_WORK", 1)
            ci._ci_body(data, lo, hi, kernel_iteration)
        assert data.tobytes() == want.tobytes()

    def test_real_floor_real_affinity(self, blocks_log):
        """No patching: the block count follows this process's affinity,
        its rows and the floor, and the bytes match the serial loop."""
        data = np.random.default_rng(3).uniform(-1e3, 1e3, (10, 34, 34))
        lo, hi = (1, 1, 1), (9, 33, 33)
        want = data.copy()
        serial_ci(want, lo, hi, 5)
        ci._ci_body(data, lo, hi, 5)
        assert data.tobytes() == want.tobytes()
        cells = 8 * 32 * 32
        assert len(blocks_log) == max(1, min(ci._cpus(), 8,
                                             cells // ci.MIN_BLOCK_CELLS,
                                             cells * 5 // ci.MIN_BLOCK_WORK))


class TestBlockCount:
    @pytest.mark.parametrize("shape, cpus, iterations, blocks", [
        ((4, 32, 32), 2, 48, 2),   # a compute-resident region
        ((4, 31, 33), 2, 48, 2),   # its smallest cross-section, 4,092 cells
        ((32, 16, 16), 2, 64, 2),  # a service-mix job
        ((2, 512), 2, 48, 1),      # two 512-cell blocks: below the floor
        ((1, 8192), 8, 48, 1),     # one row
        ((8, 32, 32), 16, 48, 8),  # rows bound it
        ((8, 32, 32), 1, 48, 1),   # one CPU: the serial loop
        ((3, 1024), 16, 48, 3),    # three rows, three blocks
        ((2, 1024), 2, 1, 1),      # 2,048 cells, one iteration: too little work
        ((2, 1024), 2, 7, 1),      # still below the work floor
        ((2, 1024), 2, 8, 2),      # at it
        ((4, 1024), 2, 4, 2),      # 4,096 cells break even sooner
        ((8, 32, 32), 16, 2, 2),   # the work floor binds before the rows
    ])
    def test_smallest_of_cpus_rows_and_floor(self, monkeypatch, blocks_log,
                                             shape, cpus, iterations, blocks):
        monkeypatch.setattr(ci, "_cpus", lambda: cpus)
        data = np.random.default_rng(1).random(shape)
        ci._ci_body(data, (0,) * len(shape), shape, iterations)
        assert len(blocks_log) == blocks
        assert sum(s[0] for _, s in blocks_log) == shape[0]
        # the caller runs one block, pool threads the rest
        assert sum(t == threading.get_ident() for t, _ in blocks_log) == 1


class TestErrorPaths:
    @pytest.fixture(autouse=True)
    def two_blocks(self, monkeypatch):
        monkeypatch.setattr(ci, "_cpus", lambda: 2)
        monkeypatch.setattr(ci, "MIN_BLOCK_WORK", 1)  # split at 2-3 iterations

    def test_errstate_reaches_worker_block(self):
        """np.errstate is a context variable: a worker block that did not
        run in the caller's context would only warn about the inf."""
        data = np.random.default_rng(0).random((4, 1024))
        data[3, 7] = np.inf  # in the worker's rows
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                serial_ci(data.copy(), (0, 0), data.shape, 3)
            with pytest.raises(FloatingPointError):
                ci._ci_body(data, (0, 0), data.shape, 3)

    def test_read_only_array(self):
        data = np.random.default_rng(0).random((4, 1024))
        data.setflags(write=False)
        with pytest.raises(ValueError) as want:
            serial_ci(data, (0, 0), data.shape, 2)
        with pytest.raises(ValueError) as got:
            ci._ci_body(data, (0, 0), data.shape, 2)
        assert str(got.value) == str(want.value)

    def test_no_block_runs_after_raise(self, monkeypatch):
        """The caller's block fails at once while the worker's is still
        busy; _ci_body raises only once the worker has finished."""
        running = [0]
        lock = threading.Lock()
        inner = ci._ci_loop

        def slow_worker(view, kernel_iteration):
            with lock:
                running[0] += 1
            try:
                if threading.current_thread() is not threading.main_thread():
                    time.sleep(0.2)
                inner(view, kernel_iteration)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(ci, "_ci_loop", slow_worker)
        data = np.random.default_rng(0).random((4, 1024))
        data[0, 0] = np.inf  # in the caller's rows
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                ci._ci_body(data, (0, 0), data.shape, 3)
        assert running[0] == 0
        # the worker's rows ran all three iterations
        want = np.random.default_rng(0).random((4, 1024))[2:] + 3
        np.testing.assert_allclose(data[2:], want)


class TestTracerSafety:
    def test_body_calls_stay_on_calling_thread(self, monkeypatch, blocks_log):
        """The benchmark tracer keeps one span stack and wraps _ci_body in
        every module that holds it: only the calling thread may call it."""
        monkeypatch.setattr(ci, "_cpus", lambda: 4)
        original, callers = ci._ci_body, []

        def traced(*args, **kwargs):
            callers.append(threading.get_ident())
            return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__dict__", {}).get("_ci_body") is original:
                monkeypatch.setattr(mod, "_ci_body", traced)

        init = np.random.default_rng(5).random((16, 32, 32))
        lib = TidaAcc(functional=True, check=False)
        lib.add_array("data", init.shape, n_regions=4, halo=0)
        lib.field("data").from_global(init)
        # 4 iterations: enough work per 4,096-cell region to split
        kernel = ci.compute_intensive_kernel(4)  # built after wrapping
        for _ in range(2):
            it = lib.iterator("data").reset(gpu=True)
            while it.is_valid():
                lib.compute(it, kernel, params={"kernel_iteration": 4})
                it.next()
        out = lib.gather("data")
        lib.synchronize()

        me = threading.get_ident()
        assert callers == [me] * 8           # 4 regions x 2 steps
        assert {t for t, _ in blocks_log} - {me}, "the split never engaged"
        want = init.copy()
        for _ in range(2):
            serial_ci(want, (0, 0, 0), want.shape, 4)
        assert out.tobytes() == want.tobytes()
