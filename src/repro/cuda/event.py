"""CUDA events: timestamps in the device timeline.

Events support the standard timing idiom (record around a region of
stream work, then ``elapsed_time``) plus cross-stream dependencies via
``stream_wait_event`` on the runtime.
"""

from __future__ import annotations

from ..errors import CudaInvalidResourceHandleError, CudaInvalidValueError


class Event:
    """One CUDA event."""

    __slots__ = ("_time", "_recorded", "_runtime_id", "__weakref__")

    def __init__(self, runtime_id: int) -> None:
        self._time = 0.0
        self._recorded = False
        self._runtime_id = runtime_id

    @property
    def recorded(self) -> bool:
        return self._recorded

    @property
    def time(self) -> float:
        """Virtual time this event completes (the stream tail when recorded)."""
        if not self._recorded:
            raise CudaInvalidValueError("event queried before being recorded")
        return self._time

    def _check_usable(self, runtime_id: int) -> None:
        if runtime_id != self._runtime_id:
            raise CudaInvalidResourceHandleError(
                "event belongs to a different runtime/context"
            )

    def _record(self, when: float) -> None:
        self._time = when
        self._recorded = True

    def elapsed_time_ms(self, other: "Event") -> float:
        """Milliseconds from this event to ``other`` (``cudaEventElapsedTime``)."""
        return (other.time - self.time) * 1e3
