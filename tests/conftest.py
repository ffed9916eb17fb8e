"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    CpuSpec,
    GpuSpec,
    LinkSpec,
    MachineSpec,
    PGI_MATH,
    k40m_pcie3,
)
from repro.cuda.runtime import CudaRuntime


@pytest.fixture
def machine() -> MachineSpec:
    """The paper's testbed."""
    return k40m_pcie3()


@pytest.fixture
def tiny_machine() -> MachineSpec:
    """A machine with round numbers, for hand-checkable timing tests.

    1 GB/s both link directions, zero latency; GPU: 1 GFlop/s, 1 GB/s,
    1 ms launches disabled (1 us); CPU api calls free-ish.
    """
    return MachineSpec(
        name="tiny",
        cpu=CpuSpec(
            name="tiny-cpu",
            dp_flops=1e9,
            mem_bandwidth=1e9,
            api_call_overhead=1e-9,
            ghost_index_rate=1e12,
        ),
        gpu=GpuSpec(
            name="tiny-gpu",
            memory_bytes=64_000_000,
            reserved_bytes=0,
            dp_flops=1e9,
            mem_bandwidth=1e9,
            kernel_launch_overhead=1e-6,
            copy_engines=2,
        ),
        link=LinkSpec(
            name="tiny-link",
            h2d_bandwidth=1e9,
            d2h_bandwidth=1e9,
            latency=0.0,
            pageable_bandwidth_factor=0.5,
        ),
        math=PGI_MATH,
    )


@pytest.fixture
def runtime(machine) -> CudaRuntime:
    """Functional runtime on the paper machine."""
    return CudaRuntime(machine, functional=True)


@pytest.fixture
def tiny_runtime(tiny_machine) -> CudaRuntime:
    return CudaRuntime(tiny_machine, functional=True)


@pytest.fixture(scope="module")
def heat_run():
    """A checked Fig. 3-style heat solve: DAG + iteration marks."""
    from repro.baselines.tida_runners import run_tida_heat

    return run_tida_heat(
        machine=k40m_pcie3(), shape=(64, 64, 64), steps=2, n_regions=4,
        check="observe",
    )


def rand_array(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(shape)


# -- hypothesis strategies --------------------------------------------------
# Importable from test modules via ``import conftest`` (this directory is
# on sys.path once pytest loads the rootdir conftest).


def schedule_configs():
    """Strategy over the scheduling knobs that must never change results.

    Everything here only reorders work — eviction policy, prefetch
    depth, slot count, tile-visit order — so any draw must produce a
    byte-identical result.  Used by the differential property tests in
    ``tests/check/test_differential.py``.
    """
    from hypothesis import strategies as st

    return st.fixed_dictionaries(
        {
            "eviction": st.sampled_from(["lru", "lookahead", "modulo"]),
            "prefetch_depth": st.sampled_from([None, 0, 1, 2]),
            "order_seed": st.one_of(
                st.none(), st.integers(min_value=0, max_value=2**16)
            ),
            "n_slots": st.integers(min_value=2, max_value=4),
        }
    )


def initial_fields(shape):
    """Strategy over initial conditions: seeded random scalar fields."""
    from hypothesis import strategies as st

    return st.integers(min_value=0, max_value=2**16).map(
        lambda seed: rand_array(shape, seed=seed)
    )
