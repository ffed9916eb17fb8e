"""Unified (managed) memory, Kepler-era semantics.

``cudaMallocManaged`` gives one pointer valid on host and device
(§II-B).  On the paper's K40m (CUDA 6-8, no hardware page faulting) the
driver migrates *entire* touched allocations at kernel launch, at a
fraction of pinned bandwidth, and migrates them back when the host next
touches them — which is why the "unified" bars in Fig. 1 are the slowest
of every execution model.

A :class:`ManagedBuffer` owns a single numpy array (functional mode) —
one pointer, as advertised — and a ``location`` flag; the runtime turns
location changes into copy-engine time.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..errors import CudaInvalidValueError, TimingModeError
from ..sim.hostmem import _normalize_shape

HOST = "host"
DEVICE = "device"


class ManagedBuffer:
    """A ``cudaMallocManaged`` allocation."""

    __slots__ = ("shape", "dtype", "functional", "nbytes", "label", "location",
                 "_array", "_freed", "__weakref__")

    def __init__(
        self,
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        functional: bool = True,
        fill: float | None = None,
        label: str = "",
    ) -> None:
        self.shape = _normalize_shape(shape)
        self.dtype = np.dtype(dtype)
        self.functional = bool(functional)
        self.label = label
        # cached: read on every migration-time estimate
        self.nbytes = self.dtype.itemsize * math.prod(self.shape)
        self.location = HOST
        self._freed = False
        if self.functional:
            self._array = np.zeros(self.shape, dtype=self.dtype)
            if fill is not None:
                self._array.fill(fill)
        else:
            self._array = None

    @property
    def freed(self) -> bool:
        return self._freed

    @property
    def array(self) -> np.ndarray:
        """The single shared array. Timing of host/device access is handled
        by the runtime's ``managed_host_access``/kernel-launch hooks."""
        if self._freed:
            raise CudaInvalidValueError("managed buffer used after free")
        if self._array is None:
            raise TimingModeError(
                'managed buffer has no backing array (timing-only run, '
                'mode="timing"); re-run with mode="functional" for data access'
            )
        return self._array

    def _mark_freed(self) -> None:
        self._freed = True
        self._array = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ManagedBuffer({self.label or '?'}, shape={self.shape}, at={self.location})"
