"""Device memory: buffers and the allocation pool.

The pool mirrors ``cudaMalloc``/``cudaFree``/``cudaMemGetInfo`` semantics:
a fixed capacity (device memory minus the runtime's own reservation),
exact accounting, and ``cudaErrorMemoryAllocation`` when exhausted.  The
paper's TileAcc sizes its slot list by querying ``cudaMemGetInfo``
(§IV-B.1), so the accounting here directly drives the limited-memory
experiments (Figs. 7 and 8).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..errors import (
    CudaInvalidValueError,
    CudaMemoryAllocationError,
    TimingModeError,
)
from .hostmem import _normalize_shape


class DeviceBuffer:
    """A device-side allocation (one ``cudaMalloc`` result).

    In functional mode it owns a numpy array standing in for device
    memory; kernels execute against these arrays so the whole pipeline's
    numerics can be checked against a CPU reference.
    """

    __slots__ = ("shape", "dtype", "functional", "nbytes", "_array", "_freed",
                 "label", "pool", "__weakref__")

    def __init__(
        self,
        pool: "DeviceMemoryPool",
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        functional: bool = True,
        label: str = "",
    ) -> None:
        self.pool = pool
        self.shape = _normalize_shape(shape)
        self.dtype = np.dtype(dtype)
        self.functional = bool(functional)
        self.label = label
        # cached: read on every transfer-time estimate and pool accounting op
        self.nbytes = self.dtype.itemsize * math.prod(self.shape)
        self._freed = False
        self._array = np.zeros(self.shape, dtype=self.dtype) if self.functional else None

    @property
    def freed(self) -> bool:
        return self._freed

    @property
    def array(self) -> np.ndarray:
        if self._freed:
            raise CudaInvalidValueError(f"device buffer {self.label or id(self)} used after free")
        if self._array is None:
            raise TimingModeError(
                f"device buffer {self.label or id(self)} has no backing array "
                '(timing-only run, mode="timing"); re-run with '
                'mode="functional" to read values back'
            )
        return self._array

    def _mark_freed(self) -> None:
        self._freed = True
        self._array = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeviceBuffer({self.label or '?'}, shape={self.shape}, nbytes={self.nbytes})"


class DeviceMemoryPool:
    """Exact-accounting allocator for the simulated device memory."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise CudaInvalidValueError(f"device capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._used = 0
        self._live: set[int] = set()

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    def allocate(
        self,
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        functional: bool = True,
        label: str = "",
    ) -> DeviceBuffer:
        buf = DeviceBuffer(self, shape, dtype, functional=functional, label=label)
        if buf.nbytes > self.free_bytes:
            raise CudaMemoryAllocationError(
                f"out of device memory allocating {buf.nbytes} bytes "
                f"({self.free_bytes} of {self.capacity_bytes} free)"
            )
        self._used += buf.nbytes
        self._live.add(id(buf))
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        if id(buf) not in self._live:
            raise CudaInvalidValueError(
                "freeing a device buffer not owned by this pool (or already freed)"
            )
        self._live.discard(id(buf))
        self._used -= buf.nbytes
        buf._mark_freed()

    def mem_get_info(self) -> tuple[int, int]:
        """(free, total) as ``cudaMemGetInfo`` reports them."""
        return self.free_bytes, self.capacity_bytes
