"""Workload kernels: numerics, invariants, cost metadata, registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CUDA_LIBM, PGI_MATH
from repro.errors import CudaInvalidValueError, ReproError
from repro.kernels import (
    blur_kernel,
    blur_reference_step,
    compute_intensive_kernel,
    compute_intensive_reference_step,
    get_kernel_factory,
    heat_kernel,
    heat_reference_step,
    wave_kernel,
    wave_reference_step,
    KERNELS,
)


class TestHeat:
    def test_constant_field_is_fixed_point(self):
        arr = np.full((6, 6, 6), 3.0)
        out = heat_reference_step(arr)
        np.testing.assert_allclose(out, arr)

    def test_diffusion_smooths_peak(self):
        arr = np.zeros((9,))
        arr[4] = 1.0
        out = heat_reference_step(arr, coef=0.1, ghost=1)
        assert out[4] < 1.0
        assert out[3] > 0.0 and out[5] > 0.0

    def test_conservation_interior(self):
        """With zero boundary flux contributions the stencil conserves mass
        away from the edges (symmetric operator)."""
        rng = np.random.default_rng(0)
        arr = rng.random((32,))
        arr[0] = arr[-1] = 0.0
        out = heat_reference_step(arr, coef=0.1, ghost=1)
        # total change equals flux through the two boundary faces
        lhs = out[1:-1].sum() - arr[1:-1].sum()
        flux = 0.1 * (arr[0] - arr[1]) + 0.1 * (arr[-1] - arr[-2])
        assert lhs == pytest.approx(flux)

    def test_ghosts_left_untouched(self):
        arr = np.arange(8.0)
        out = heat_reference_step(arr, ghost=1)
        assert out[0] == arr[0] and out[-1] == arr[-1]

    def test_kernel_spec_metadata(self):
        k = heat_kernel(3)
        assert k.bytes_per_cell == 16.0
        assert k.flops_per_cell == 8.0
        assert k.meta["stencil_radius"] == 1

    def test_works_in_1d_2d_3d(self):
        for ndim in (1, 2, 3):
            arr = np.ones((8,) * ndim)
            out = heat_reference_step(arr, ghost=1)
            np.testing.assert_allclose(out, arr)


class TestComputeIntensive:
    def test_adds_about_one_per_iteration(self):
        """sqrt(sin^2 + cos^2) == 1 exactly, so each inner iteration adds 1."""
        arr = np.linspace(0, 3, 16)
        out = compute_intensive_reference_step(arr, kernel_iteration=5)
        np.testing.assert_allclose(out, arr + 5.0, rtol=1e-12)

    def test_spec_costs_scale_with_iteration(self):
        k1 = compute_intensive_kernel(1)
        k10 = compute_intensive_kernel(10)
        assert k10.sin_per_cell == 10 * k1.sin_per_cell
        assert k10.flops_per_cell == 10 * k1.flops_per_cell

    def test_libm_more_expensive_than_pgi(self):
        k = compute_intensive_kernel(10)
        assert k.flop_equivalents(CUDA_LIBM, 100) > k.flop_equivalents(PGI_MATH, 100)

    def test_invalid_iteration_rejected(self):
        with pytest.raises(CudaInvalidValueError):
            compute_intensive_kernel(0)

    @pytest.mark.parametrize("bad", [2.5, 3.0, float("nan"), float("inf"), "4",
                                     None, True, -2, np.float64(2.0)])
    def test_non_integer_iteration_rejected(self, bad):
        """2.5 used to be charged 2.5 iterations while the body ran 2, and
        NaN or inf failed only inside the body, at run time."""
        with pytest.raises(CudaInvalidValueError, match="kernel_iteration"):
            compute_intensive_kernel(bad)

    @pytest.mark.parametrize("good", [1, 7, np.int64(7), np.int32(7), np.uint8(7)])
    def test_integer_iteration_accepted(self, good):
        k = compute_intensive_kernel(good)
        assert k.sin_per_cell == float(good)
        assert k.meta["kernel_iteration"] == good

    @given(st.integers(1, 8))
    @settings(max_examples=10, deadline=None)
    def test_property_monotone_in_steps(self, it):
        arr = np.zeros(4)
        one = compute_intensive_reference_step(arr, kernel_iteration=it)
        np.testing.assert_allclose(one, it * np.ones(4), rtol=1e-12)


class TestBlur:
    def test_constant_invariant(self):
        arr = np.full((6, 6), 2.0)
        out = blur_reference_step(arr)
        np.testing.assert_allclose(out[1:-1, 1:-1], 2.0)

    def test_mean_of_neighbourhood(self):
        arr = np.zeros((5, 5))
        arr[2, 2] = 9.0
        out = blur_reference_step(arr)
        assert out[2, 2] == pytest.approx(1.0)
        assert out[1, 1] == pytest.approx(1.0)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            blur_reference_step(np.zeros((4, 4, 4)))


class TestWave:
    def test_flat_state_stays_flat(self):
        u = np.full((8, 8), 1.0)
        out = wave_reference_step(u, u)
        np.testing.assert_allclose(out[1:-1, 1:-1], 1.0)

    def test_second_order_identity(self):
        """u_next = 2u - u_prev when laplacian is zero (linear ramp)."""
        x = np.arange(10.0)
        u = np.tile(x, (10, 1))
        u_prev = u - 1.0
        out = wave_reference_step(u, u_prev, c2=0.25)
        np.testing.assert_allclose(out[1:-1, 1:-1], u[1:-1, 1:-1] + 1.0)


class TestRegistry:
    def test_all_registered(self):
        assert set(KERNELS) == {"heat", "compute-intensive", "blur", "wave"}

    def test_factories_produce_specs(self):
        for name in KERNELS:
            spec = get_kernel_factory(name)()
            assert spec.name

    def test_unknown_kernel(self):
        with pytest.raises(ReproError):
            get_kernel_factory("fft")
