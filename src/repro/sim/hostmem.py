"""Host memory buffers: pageable, pinned, and managed views.

The paper's §II-B distinguishes three kinds of host allocation and the
evaluation (Fig. 1) hinges on their different transfer behaviour:

* **pageable** — ordinary ``malloc`` memory; transfers are staged through
  an internal pinned buffer at roughly half bandwidth and ``cudaMemcpyAsync``
  degenerates to a synchronous copy;
* **pinned** — ``cudaMallocHost`` page-locked memory; full PCIe bandwidth
  and true asynchronous copies (required for stream overlap);
* **managed** — ``cudaMallocManaged``; a single pointer valid on both
  sides, migrated on demand by the driver (modelled in
  :mod:`repro.cuda.uvm`).

In *functional* mode a buffer owns a real numpy array; in *timing-only*
mode it records only shape/dtype so paper-sized (512³) experiments fit in
laptop RAM.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..errors import CudaInvalidValueError, TimingModeError


def _normalize_shape(shape: int | tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise CudaInvalidValueError(f"negative extent in shape {shape}")
    return shape


class HostBuffer:
    """A host-side allocation.

    Attributes
    ----------
    pinned:
        Whether the allocation is page-locked (``cudaMallocHost``).
    functional:
        Whether a real numpy array backs the buffer.
    """

    __slots__ = ("shape", "dtype", "pinned", "functional", "size", "nbytes",
                 "_array", "_freed", "label", "__weakref__")

    def __init__(
        self,
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        pinned: bool = False,
        functional: bool = True,
        fill: float | None = None,
        label: str = "",
    ) -> None:
        self.shape = _normalize_shape(shape)
        self.dtype = np.dtype(dtype)
        self.pinned = bool(pinned)
        self.functional = bool(functional)
        self.label = label
        # cached: read on every transfer-time estimate
        self.size = math.prod(self.shape)
        self.nbytes = self.dtype.itemsize * self.size
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
        """The backing numpy array (functional mode only)."""
        if self._freed:
            raise CudaInvalidValueError(f"host buffer {self.label or id(self)} used after free")
        if self._array is None:
            raise TimingModeError(
                f"host buffer {self.label or id(self)} has no backing array "
                '(timing-only run, mode="timing"); construct the runtime with '
                'mode="functional" (functional=True) for data access'
            )
        return self._array

    def free(self) -> None:
        """Release the allocation; later array access raises."""
        if self._freed:
            raise CudaInvalidValueError("double free of host buffer")
        self._freed = True
        self._array = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "pinned" if self.pinned else "pageable"
        mode = "functional" if self.functional else "timing-only"
        return f"HostBuffer({self.label or '?'}, shape={self.shape}, {kind}, {mode})"
