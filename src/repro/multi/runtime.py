"""Several simulated GPUs behind one host thread.

All devices share a single :class:`~repro.sim.engine.HostClock` (there is
one application thread issuing work, as in the paper's single-process
model) and a single trace with per-device lanes (``gpu0:compute``,
``gpu1:h2d``, ...), so cross-device timelines render in one Gantt chart.

Peer copies model PCIe P2P on Kepler-class parts: the transfer occupies
the *source* device's D2H engine and the *destination* device's H2D
engine for the full duration, at the link bandwidth (both engines sit on
the same PCIe root complex).
"""

from __future__ import annotations

from typing import Sequence

from ..config import DEFAULT_MACHINE, MachineSpec
from ..cuda.runtime import CudaRuntime
from ..cuda.stream import Stream
from ..errors import CudaInvalidValueError
from ..obs.metrics import MetricsRegistry
from ..sim.device import DeviceBuffer
from ..sim.engine import HostClock
from ..sim.trace import Trace


class MultiGpuRuntime:
    """N simulated devices + P2P copies."""

    def __init__(
        self,
        machine: MachineSpec | None = None,
        n_devices: int = 2,
        *,
        functional: bool = True,
        mode: str | None = None,
        device_memory_limit: int | None = None,
        check: str | bool | None = None,
        telemetry=None,
    ) -> None:
        if n_devices < 1:
            raise CudaInvalidValueError(f"n_devices must be >= 1, got {n_devices}")
        self.machine = machine if machine is not None else DEFAULT_MACHINE
        self.clock = HostClock()
        self.trace = Trace()
        # one metric space across devices (per-engine names stay distinct
        # through the lane prefixes)
        self.metrics = MetricsRegistry()
        # one checker across devices: a peer copy is a single op touching
        # two devices' streams, which only one clock space can order
        from ..check.hazards import resolve_checker

        self.checker = resolve_checker(check, trace=self.trace, metrics=self.metrics)
        self.devices: list[CudaRuntime] = [
            CudaRuntime(
                self.machine,
                functional=functional,
                mode=mode,
                device_memory_limit=device_memory_limit,
                clock=self.clock,
                trace=self.trace,
                metrics=self.metrics,
                lane_prefix=f"gpu{i}:",
                # check=False stops a device from resolving its own default
                # checker when this group runs unchecked
                **({"checker": self.checker} if self.checker is not None
                   else {"check": False}),
            )
            for i in range(n_devices)
        ]
        # one bus for the whole group: clock/trace/metrics are shared, so
        # attach once and let each device answer health()/notify through it
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self)
            if self.checker is not None:
                self.checker.telemetry = telemetry
            for dev in self.devices:
                dev.telemetry = telemetry

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def functional(self) -> bool:
        return self.devices[0].functional

    @property
    def mode(self) -> str:
        """``"functional"`` or ``"timing"`` (uniform across the group)."""
        return self.devices[0].mode

    def health(self) -> dict:
        """Group-wide health snapshot (see :meth:`CudaRuntime.health`)."""
        if self.telemetry is not None:
            return self.telemetry.health()
        return {
            "status": "unmonitored",
            "monitored": False,
            "now": self.clock.now,
            "samples": 0,
            "alerts": {"info": 0, "warning": 0, "critical": 0},
            "incidents": 0,
        }

    @property
    def now(self) -> float:
        return self.clock.now

    def device(self, index: int) -> CudaRuntime:
        if not 0 <= index < len(self.devices):
            raise CudaInvalidValueError(f"device index {index} out of range")
        return self.devices[index]

    def peer_copy(
        self,
        dst_device: int,
        dst: DeviceBuffer,
        src_device: int,
        src: DeviceBuffer,
        *,
        dst_stream: Stream | None = None,
        src_stream: Stream | None = None,
        after: float | Sequence[float] = 0.0,
        label: str = "",
    ) -> float:
        """``cudaMemcpyPeerAsync``: device-to-device over the interconnect.

        Returns the virtual completion time.  The copy is ordered after
        both given streams' pending work (and ``after``), occupies the
        source D2H and destination H2D engines simultaneously, and pushes
        its completion onto both streams.
        """
        src_rt = self.device(src_device)
        dst_rt = self.device(dst_device)
        if src_rt is dst_rt:
            raise CudaInvalidValueError("peer_copy needs two distinct devices")
        for buf, rt in ((src, src_rt), (dst, dst_rt)):
            if buf.freed:
                raise CudaInvalidValueError("peer_copy involves a freed buffer")
            if buf.pool is not rt.pool:
                raise CudaInvalidValueError(
                    "peer_copy buffer does not live on the stated device"
                )
        if dst.nbytes != src.nbytes:
            raise CudaInvalidValueError(
                f"peer_copy byte-count mismatch: {src.nbytes} != {dst.nbytes}"
            )
        src_stream = src_stream if src_stream is not None else src_rt.default_stream
        dst_stream = dst_stream if dst_stream is not None else dst_rt.default_stream
        src_rt._check_stream(src_stream)
        dst_rt._check_stream(dst_stream)
        # host API cost once
        src_rt._api()
        link = self.machine.link
        duration = link.transfer_time(src.nbytes, direction="d2h", pinned=True)
        after_deps, after_max = CudaRuntime._after_deps(after)
        ready = max(self.clock.now, src_stream.tail, dst_stream.tail, after_max,
                    src_rt.d2h_engine.tail, dst_rt.h2d_engine.tail)
        start_a, end_a = src_rt.d2h_engine.submit(ready, duration)
        start_b, end_b = dst_rt.h2d_engine.submit(start_a, duration)
        end = max(end_a, end_b)
        src_stream._push(end)
        dst_stream._push(end)
        src_rt._note_queue_op(src_stream, src_rt.d2h_engine, end_a)
        dst_rt._note_queue_op(dst_stream, dst_rt.h2d_engine, end_b)
        self.metrics.inc("cuda.p2p_copies")
        self.metrics.inc("cuda.p2p_bytes", src.nbytes)
        self.trace.record(
            label or f"p2p:gpu{src_device}->gpu{dst_device}",
            "d2h",
            src_rt.d2h_engine.name,
            start_a,
            end_a,
            stream=src_stream.stream_id,
            nbytes=src.nbytes,
            peer=dst_device,
        )
        self.trace.record(
            label or f"p2p:gpu{src_device}->gpu{dst_device}",
            "h2d",
            dst_rt.h2d_engine.name,
            start_b,
            end_b,
            stream=dst_stream.stream_id,
            nbytes=src.nbytes,
            peer=src_device,
        )
        if src_rt.functional:
            dst.array.reshape(-1)[:] = src.array.reshape(-1)
        if self.checker is not None:
            self.checker.record_op(
                kind="peer",
                label=label or f"p2p:gpu{src_device}->gpu{dst_device}",
                streams=(
                    (src_rt._runtime_id, src_stream),
                    (dst_rt._runtime_id, dst_stream),
                ),
                engines=(src_rt.d2h_engine, dst_rt.h2d_engine),
                start=start_a, end=end, after=after_deps,
                reads=(src,), writes=(dst,), now=self.clock.now,
                nbytes=src.nbytes,
            )
        return end

    def synchronize_all(self) -> float:
        """Drain every device (``cudaDeviceSynchronize`` per device)."""
        end = self.clock.now
        for dev in self.devices:
            end = max(end, dev.device_synchronize())
        return end
