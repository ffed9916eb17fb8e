"""The simulated CUDA runtime: memory, streams, copies, kernels, events.

Semantics reproduced from the real runtime (and relied on by the paper):

* **streams are FIFO**: operations issued to one stream execute in issue
  order; different streams may overlap (§IV-B.2);
* **two copy engines** (K40m): one H2D and one D2H DMA engine, each FIFO,
  so an upload, a download and a kernel can all proceed simultaneously —
  the mechanism behind Figs. 3 and 7;
* **pinned vs pageable**: ``cudaMemcpyAsync`` from/to pageable memory is
  synchronous with respect to the host and runs at staging bandwidth;
  only pinned transfers overlap (§II-B, §II-C);
* **managed memory** (Kepler): whole allocations migrate to the device at
  kernel launch and back on host access, at a fraction of pinned
  bandwidth plus a per-launch cost (:mod:`repro.cuda.uvm`);
* **kernel launches** cost host API time plus a device-side launch
  overhead serialized on the compute engine, so many small kernels are
  visibly worse than one large one (the paper's §II-C observation about
  OpenACC boundary kernels).

Every operation is recorded in a :class:`~repro.sim.trace.Trace`; the
host clock (`now`) is the virtual wall-clock the benches measure with.
"""

from __future__ import annotations

import itertools
import warnings
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..config import DEFAULT_MACHINE, MachineSpec, MathModel
from ..errors import (
    AccessOverrideWarning,
    CudaInvalidResourceHandleError,
    CudaInvalidValueError,
    CudaMemoryAllocationError,
)
from ..faults.plan import FaultPlan
from ..obs.metrics import MetricsRegistry
from ..sim.device import DeviceBuffer, DeviceMemoryPool
from ..sim.engine import EventCalendar, FifoEngine, HostClock
from ..sim.hostmem import HostBuffer
from ..sim.trace import Trace
from .event import Event
from .kernel import KernelSpec, LaunchConfig
from .stream import Stream
from .uvm import DEVICE, HOST, ManagedBuffer

if TYPE_CHECKING:  # pragma: no cover
    from ..check.hazards import HazardChecker
    from ..obs.live.bus import TelemetryBus

_runtime_ids = itertools.count(1)

#: The execution modes a runtime (or any layer that forwards ``mode=``)
#: accepts.  ``"replay"`` is *not* a runtime mode — replay happens in
#: :mod:`repro.obs.critpath` on a recorded DAG, with no runtime at all.
EXECUTION_MODES = ("functional", "timing")


def _resolve_mode(functional: bool, mode: str | None) -> bool:
    """Collapse the (functional, mode) pair to the functional flag.

    ``mode`` names the switch explicitly ("functional"/"timing") and wins
    over the boolean when both are given; ``None`` defers to the boolean.
    """
    if mode is None:
        return bool(functional)
    if mode not in EXECUTION_MODES:
        raise CudaInvalidValueError(
            f"unknown execution mode {mode!r}: expected one of {EXECUTION_MODES} "
            "(replay mode operates on recorded DAGs, see repro.obs.critpath)"
        )
    return mode == "functional"


class CudaRuntime:
    """One simulated device context.

    Parameters
    ----------
    machine:
        Hardware specification (defaults to the paper's K40m testbed).
    functional:
        If True, allocations carry numpy arrays and kernel bodies really
        execute (use for correctness tests at small sizes).  If False,
        only virtual time flows (use for paper-sized benches).
    mode:
        The same switch, by name: ``"functional"`` or ``"timing"``.
        Timing-only runs produce byte-identical traces, DAGs, metrics,
        and hazard streams to functional runs — only the array math and
        host/device payload copies are skipped (reading values back
        raises :class:`~repro.errors.TimingModeError`).  ``None`` (the
        default) defers to ``functional``; when given, it overrides it.
    device_memory_limit:
        Optional cap (bytes) on allocatable device memory, below the
        hardware size — how the paper emulates the limited-memory case
        of Figs. 7/8.
    metrics:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry`;
        by default each runtime owns one, exposed as ``runtime.metrics``.
    faults:
        Optional :class:`~repro.faults.FaultPlan` consulted at every
        injectable call site (copies, launches, allocations, syncs);
        also settable later via :meth:`set_fault_plan`.
    check:
        Happens-before hazard checking mode: ``"observe"`` records
        hazards (``check.*`` metrics + ``hazard`` trace marks),
        ``"strict"`` additionally raises
        :class:`~repro.errors.HazardError` on racy pairs, ``False`` is
        off.  The default ``None`` defers to
        :func:`repro.check.set_default_mode` / ``REPRO_CHECK``.
    checker:
        An existing :class:`~repro.check.hazards.HazardChecker` to share
        (the multi-GPU group gives all devices one checker so peer
        copies are checked across devices); overrides ``check``.
    telemetry:
        Optional :class:`~repro.obs.live.TelemetryBus` to attach — the
        bus samples this runtime's registry on a virtual-clock cadence
        and receives fault/hazard incident notifications; the runtime
        then answers :meth:`health` from it.
    """

    def __init__(
        self,
        machine: MachineSpec | None = None,
        *,
        functional: bool = True,
        mode: str | None = None,
        device_memory_limit: int | None = None,
        clock: HostClock | None = None,
        trace: Trace | None = None,
        metrics: MetricsRegistry | None = None,
        lane_prefix: str = "",
        faults: FaultPlan | None = None,
        check: str | bool | None = None,
        checker: "HazardChecker | None" = None,
        telemetry: "TelemetryBus | None" = None,
    ) -> None:
        self.machine = machine if machine is not None else DEFAULT_MACHINE
        self.functional = _resolve_mode(functional, mode)
        capacity = self.machine.gpu.allocatable_bytes
        if device_memory_limit is not None:
            if device_memory_limit <= 0:
                raise CudaInvalidValueError("device_memory_limit must be positive")
            capacity = min(capacity, device_memory_limit)
        self.pool = DeviceMemoryPool(capacity)
        # clock and trace may be shared across several runtimes — the
        # multi-GPU setup has one host thread driving N devices
        self.clock = clock if clock is not None else HostClock()
        self.trace = trace if trace is not None else Trace()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.lane_prefix = lane_prefix
        # hot-path instruments, resolved once (no dict lookup per call)
        m = self.metrics
        self._m_api_calls = m.counter("cuda.api_calls")
        self._m_h2d_bytes = m.counter("cuda.h2d_bytes")
        self._m_d2h_bytes = m.counter("cuda.d2h_bytes")
        self._m_h2d_copies = m.counter("cuda.h2d_copies")
        self._m_d2h_copies = m.counter("cuda.d2h_copies")
        self._m_pageable_sync = m.counter("cuda.pageable_sync_copies")
        self._m_stall_s = m.counter("cuda.stall_seconds")
        self._m_launches = m.counter("cuda.kernel_launches")
        self._m_copy_nbytes = m.histogram("cuda.copy_nbytes")
        self._m_kernel_cells = m.histogram("cuda.kernel_cells")
        # outstanding-work backlog: one calendar covering every engine
        # (drives the Perfetto queue-depth counter tracks) and stream
        # (drives gauges) — O(log n) per op instead of per-key scans
        self._pending = EventCalendar()
        self.compute_engine = FifoEngine(f"{lane_prefix}compute")
        self.h2d_engine = FifoEngine(f"{lane_prefix}h2d")
        if self.machine.gpu.copy_engines == 2:
            self.d2h_engine = FifoEngine(f"{lane_prefix}d2h")
        else:
            self.d2h_engine = self.h2d_engine
        self._runtime_id = next(_runtime_ids)
        self.default_stream = Stream(0, self._runtime_id)
        self._streams: dict[int, Stream] = {0: self.default_stream}
        self._next_stream_id = 1
        self._managed_reservations: dict[int, DeviceBuffer] = {}
        self.faults: FaultPlan | None = None
        if faults is not None:
            self.set_fault_plan(faults)
        if checker is not None:
            self.checker = checker
        else:
            # imported lazily: most runtimes never enable checking
            from ..check.hazards import resolve_checker

            self.checker = resolve_checker(check, trace=self.trace, metrics=self.metrics)
        self.telemetry = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    # -- live telemetry -----------------------------------------------------

    def attach_telemetry(self, bus) -> None:
        """Attach a :class:`~repro.obs.live.TelemetryBus` to this runtime.

        The bus starts sampling from the current clock position; the
        hazard checker (if any) is given the bus so strict-mode raises
        trigger flight-recorder dumps.
        """
        bus.attach(self)
        self.telemetry = bus
        if self.checker is not None:
            self.checker.telemetry = bus

    def health(self) -> dict:
        """A poll-friendly health snapshot (see ``TelemetryBus.health``).

        Without an attached bus this still answers — with
        ``monitored: False`` and the clock position — so a service layer
        can poll every runtime uniformly.
        """
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

    def notify_incident(self, kind: str, error: Exception | None = None, **info) -> None:
        """Report a hard failure to the telemetry bus (no-op unmonitored)."""
        if self.telemetry is not None:
            self.telemetry.notify_incident(
                kind, error=error, now=self.clock.now, **info
            )

    # -- fault injection ----------------------------------------------------

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        """Arm (or disarm, with ``None``) a fault plan on this runtime."""
        self.faults = plan

    def _inject(self, op: str, label: str) -> float:
        """Consult the fault plan for operation ``op``.

        Returns extra *hang* seconds to charge (0.0 normally); raises the
        rule's typed :class:`~repro.errors.CudaError` for error faults —
        before any engine/stream state was mutated, so a retry can simply
        re-issue the call.  Every injection is counted and trace-marked.
        """
        plan = self.faults
        if plan is None:
            return 0.0
        inj = plan.draw(op, label, self.clock.now)
        if inj is None:
            return 0.0
        self.metrics.inc("faults.injected")
        self.metrics.inc(f"faults.injected.{op}")
        self.trace.mark(
            "fault-inject", self.clock.now,
            op=op, label=label, kind=inj.kind, rule=inj.rule_index,
        )
        if inj.kind == "hang":
            self.metrics.inc("faults.hang_seconds", inj.hang_seconds)
            return inj.hang_seconds
        raise inj.make_error()

    # -- host clock -------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"functional"`` or ``"timing"`` (see the constructor)."""
        return "functional" if self.functional else "timing"

    @property
    def now(self) -> float:
        """Current host virtual time, seconds."""
        return self.clock.now

    def _api(self) -> None:
        """Charge one runtime API call on the host."""
        self._m_api_calls.inc()
        self.clock.advance(self.machine.cpu.api_call_overhead)

    def _host_stall(self, target: float, *, stream: Stream | None = None) -> float:
        """Block the host until ``target``, accounting the stall time
        (total and, when known, per stream)."""
        stall = target - self.clock.now
        if stall > 0:
            self._m_stall_s.inc(stall)
            if stream is not None:
                self.metrics.inc(
                    f"cuda.{self.lane_prefix}stream.{stream.stream_id}.stall_seconds",
                    stall,
                )
        return self.clock.advance_to(target)

    def _note_queue_op(self, stream: Stream, engine: FifoEngine, end: float) -> None:
        """Track issued-but-incomplete work per engine and per stream.

        The engine backlog is sampled into a Perfetto counter track; the
        per-stream depth feeds a gauge with a high-water mark.  One
        :class:`~repro.sim.engine.EventCalendar` holds both kinds of
        completion event: a single heap prune retires everything done by
        ``now``, and the per-key depths it maintains equal what the old
        per-engine/per-stream deque scans reported (completion times are
        monotone within one FIFO engine/stream), so the recorded samples
        are unchanged.
        """
        now = self.clock.now
        pending = self._pending
        pending.prune(now)
        depth = pending.push(("e", engine.name), end)
        self.trace.record_counter(f"queue_depth:{engine.name}", now, depth)
        sdepth = pending.push(("s", stream.stream_id), end)
        self.metrics.gauge(
            f"cuda.{self.lane_prefix}stream.{stream.stream_id}.queue_depth"
        ).set(sdepth)

    @staticmethod
    def _after_deps(after: "float | Sequence[float]") -> tuple[tuple[float, ...], float]:
        """Normalize an ``after=`` argument to (components, effective max).

        Call sites may pass the individual completion times an operation
        depends on instead of collapsing them with ``max`` themselves —
        scheduling uses the max, while the hazard checker resolves each
        component to the operation that produced it.
        """
        if isinstance(after, (int, float)):
            a = float(after)
            return (a,), a
        deps = tuple(float(a) for a in after)
        return deps, (max(deps) if deps else 0.0)

    def host_compute(self, name: str, duration: float, **meta: Any) -> float:
        """Account for host-side work (e.g. ghost-index computation, §IV-B.6)."""
        if duration < 0:
            raise CudaInvalidValueError("host work duration must be >= 0")
        start = self.clock.now
        end = self.clock.advance(duration)
        self.trace.record(name, "host", "host", start, end, **meta)
        return end

    # -- memory management --------------------------------------------------

    def malloc(
        self,
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        label: str = "",
    ) -> DeviceBuffer:
        """``cudaMalloc``: allocate device memory."""
        self._api()
        hang = self._inject("malloc", label)
        if hang:
            self.clock.advance(hang)
        if self.faults is not None:
            # OOM-spike rules shrink the apparently free memory
            pressure = self.faults.memory_pressure(self.clock.now)
            if pressure > 0:
                nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
                free = self.pool.free_bytes
                if nbytes > free - pressure:
                    raise CudaMemoryAllocationError(
                        f"out of device memory allocating {nbytes} bytes "
                        f"({free} free, {pressure} under injected pressure)"
                    )
        return self.pool.allocate(shape, dtype, functional=self.functional, label=label)

    def free(self, buf: DeviceBuffer) -> None:
        """``cudaFree``."""
        self._api()
        self.pool.free(buf)
        if self.checker is not None:
            self.checker.forget(buf)

    def malloc_pinned(
        self,
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        fill: float | None = None,
        label: str = "",
    ) -> HostBuffer:
        """``cudaMallocHost``: pinned (page-locked) host memory."""
        self._api()
        return HostBuffer(
            shape, dtype, pinned=True, functional=self.functional, fill=fill, label=label
        )

    def malloc_pageable(
        self,
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        fill: float | None = None,
        label: str = "",
    ) -> HostBuffer:
        """Ordinary pageable host allocation (plain ``malloc``/``new``)."""
        return HostBuffer(
            shape, dtype, pinned=False, functional=self.functional, fill=fill, label=label
        )

    def free_host(self, buf: HostBuffer) -> None:
        """``cudaFreeHost`` / ``free``."""
        self._api()
        buf.free()
        if self.checker is not None:
            self.checker.forget(buf)

    def malloc_managed(
        self,
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        fill: float | None = None,
        label: str = "",
    ) -> ManagedBuffer:
        """``cudaMallocManaged``: unified memory.

        On Kepler, managed allocations reserve device memory up front (no
        oversubscription), so the allocation is accounted against the pool.
        """
        self._api()
        buf = ManagedBuffer(shape, dtype, functional=self.functional, fill=fill, label=label)
        reservation = self.pool.allocate(
            buf.shape, buf.dtype, functional=False, label=f"managed:{label}"
        )
        self._managed_reservations[id(buf)] = reservation
        return buf

    def free_managed(self, buf: ManagedBuffer) -> None:
        self._api()
        reservation = self._managed_reservations.pop(id(buf), None)
        if reservation is None:
            raise CudaInvalidValueError("managed buffer not owned by this runtime (or already freed)")
        self.pool.free(reservation)
        buf._mark_freed()
        if self.checker is not None:
            self.checker.forget(buf)

    def mem_get_info(self) -> tuple[int, int]:
        """``cudaMemGetInfo``: (free, total) allocatable device bytes."""
        self._api()
        return self.pool.mem_get_info()

    # -- streams ------------------------------------------------------------

    def create_stream(self) -> Stream:
        """``cudaStreamCreate`` (also backs OpenACC activity queues)."""
        self._api()
        stream = Stream(self._next_stream_id, self._runtime_id)
        self._streams[self._next_stream_id] = stream
        self._next_stream_id += 1
        return stream

    def destroy_stream(self, stream: Stream) -> None:
        """``cudaStreamDestroy`` (blocks until the stream drains, as CUDA does)."""
        self._check_stream(stream)
        if stream.is_default:
            raise CudaInvalidValueError("the default stream cannot be destroyed")
        self._api()
        self._host_stall(stream.tail, stream=stream)
        if self.checker is not None:
            self.checker.host_sync_stream(self._runtime_id, stream)
        stream._destroy()
        del self._streams[stream.stream_id]

    def _check_stream(self, stream: Stream) -> None:
        if not isinstance(stream, Stream):
            raise CudaInvalidResourceHandleError(f"not a stream: {stream!r}")
        stream._check_usable(self._runtime_id)

    @property
    def streams(self) -> tuple[Stream, ...]:
        return tuple(self._streams.values())

    def reset_schedule(self, *, drop_dag: bool = False) -> None:
        """Rewind all scheduling state between harness repetitions.

        Repetition drivers used to reset only the engines
        (:meth:`~repro.sim.engine.FifoEngine.reset`), which left stream
        tails and the pending-work calendar stale: the next repetition's
        operations were scheduled after completion times of the previous
        run, corrupting per-repetition ``busy_time`` and queue-depth
        accounting.  This clears engines, stream tails, the backlog
        calendar, and the hazard checker's per-run state together.
        Allocations, metrics, and the trace are kept (repetitions
        accumulate there by design); the host clock keeps advancing.

        ``drop_dag=True`` also discards the hazard checker's recorded DAG
        and hazard list — required between back-to-back *independent*
        jobs on one runtime (the service's serialized path), where one
        job's record must not leak into the next job's report.
        """
        # d2h may alias h2d (single-copy-engine parts): reset each once
        for engine in {id(e): e for e in (
            self.compute_engine, self.h2d_engine, self.d2h_engine
        )}.values():
            engine.reset()
        for stream in self._streams.values():
            stream._reset()
        self._pending.clear()
        if self.checker is not None:
            self.checker.reset_schedule(drop_dag=drop_dag)

    # -- copies ---------------------------------------------------------------

    @staticmethod
    def _classify_copy(dst: Any, src: Any) -> tuple[str, HostBuffer]:
        """Return (direction, host-side buffer) for a host<->device copy."""
        if isinstance(dst, DeviceBuffer) and isinstance(src, HostBuffer):
            return "h2d", src
        if isinstance(dst, HostBuffer) and isinstance(src, DeviceBuffer):
            return "d2h", dst
        raise CudaInvalidValueError(
            f"unsupported copy {type(src).__name__} -> {type(dst).__name__}; "
            "expected one host buffer and one device buffer"
        )

    def _do_functional_copy(self, dst: Any, src: Any) -> None:
        if not self.functional:
            return
        dst_arr, src_arr = dst.array, src.array
        if dst_arr.size != src_arr.size:
            raise CudaInvalidValueError(
                f"copy size mismatch: {src_arr.shape} -> {dst_arr.shape}"
            )
        dst_arr.reshape(-1)[:] = src_arr.reshape(-1)

    def _validate_copy_operands(self, dst: Any, src: Any) -> None:
        for buf in (dst, src):
            if getattr(buf, "freed", False):
                raise CudaInvalidValueError(f"copy involves freed buffer {buf!r}")
        if dst.nbytes != src.nbytes:
            raise CudaInvalidValueError(
                f"copy byte-count mismatch: src {src.nbytes} != dst {dst.nbytes}"
            )

    def memcpy(self, dst: Any, src: Any, *, label: str = "") -> float:
        """``cudaMemcpy``: synchronous host<->device copy."""
        return self.memcpy_async(dst, src, self.default_stream, label=label, _force_sync=True)

    def memcpy_async(
        self,
        dst: Any,
        src: Any,
        stream: Stream | None = None,
        *,
        after: float | Sequence[float] = 0.0,
        label: str = "",
        _force_sync: bool = False,
    ) -> float:
        """``cudaMemcpyAsync``: queue a copy on ``stream``.

        Returns the virtual completion time of the copy.  ``after`` adds
        extra readiness dependencies — a single completion time or a
        sequence of them (the copy waits for their max; used by TileAcc
        when an upload must wait for the eviction download sharing the
        same device pointer).

        Pageable host memory makes the call synchronous with respect to the
        host (the documented CUDA behaviour that breaks overlap, §II-B).
        """
        stream = stream if stream is not None else self.default_stream
        self._check_stream(stream)
        self._validate_copy_operands(dst, src)
        direction, host_buf = self._classify_copy(dst, src)
        self._api()
        op_label = (
            label or f"{direction}:{getattr(src, 'label', '') or getattr(dst, 'label', '')}"
        )
        hang = self._inject(direction, op_label)
        link = self.machine.link
        duration = link.transfer_time(src.nbytes, direction=direction, pinned=host_buf.pinned)
        duration += hang
        engine = self.h2d_engine if direction == "h2d" else self.d2h_engine
        after_deps, after_max = self._after_deps(after)
        ready = max(self.now, stream.tail, after_max)
        start, end = engine.submit(ready, duration)
        stream._push(end)
        self._note_queue_op(stream, engine, end)
        if direction == "h2d":
            self._m_h2d_bytes.inc(src.nbytes)
            self._m_h2d_copies.inc()
        else:
            self._m_d2h_bytes.inc(src.nbytes)
            self._m_d2h_copies.inc()
        self._m_copy_nbytes.observe(src.nbytes)
        self.trace.record(
            op_label,
            direction,
            engine.name,
            start,
            end,
            stream=stream.stream_id,
            nbytes=src.nbytes,
        )
        self._do_functional_copy(dst, src)
        if self.checker is not None:
            self.checker.record_op(
                kind=direction, label=op_label,
                streams=((self._runtime_id, stream),), engines=(engine,),
                start=start, end=end, after=after_deps,
                reads=(src,), writes=(dst,), now=self.now,
                nbytes=src.nbytes,
            )
        if not host_buf.pinned and link.pageable_async_is_sync and not _force_sync:
            # async call degraded to synchronous by pageable memory (§II-B)
            self._m_pageable_sync.inc()
        synchronous = _force_sync or (
            not host_buf.pinned and link.pageable_async_is_sync
        )
        if synchronous:
            self._host_stall(end, stream=stream)
            if self.checker is not None:
                self.checker.host_sync_stream(self._runtime_id, stream)
        return end

    # -- managed-memory migration ---------------------------------------------

    def _managed_transfer_time(self, nbytes: int, direction: str) -> float:
        link = self.machine.link
        base = link.transfer_time(nbytes, direction=direction, pinned=True)
        # migration runs at a fraction of pinned bandwidth; keep latency as is
        bw_time = base - link.latency
        return link.latency + bw_time / self.machine.gpu.managed_bandwidth_factor

    def _migrate_managed_to_device(self, buf: ManagedBuffer, stream: Stream) -> float:
        if buf.location == DEVICE:
            return stream.tail
        duration = self._managed_transfer_time(buf.nbytes, "h2d")
        ready = max(self.now, stream.tail)
        start, end = self.h2d_engine.submit(ready, duration)
        stream._push(end)
        self._note_queue_op(stream, self.h2d_engine, end)
        self._m_h2d_bytes.inc(buf.nbytes)
        self.metrics.inc("cuda.managed_migrations")
        buf.location = DEVICE
        self.trace.record(
            f"uvm-migrate-h2d:{buf.label}",
            "h2d",
            self.h2d_engine.name,
            start,
            end,
            stream=stream.stream_id,
            nbytes=buf.nbytes,
            managed=True,
        )
        return end

    def managed_host_access(self, buf: ManagedBuffer) -> np.ndarray | None:
        """Host touches a managed allocation: migrate back if needed, block.

        Returns the backing array in functional mode (None otherwise).
        """
        if buf.freed:
            raise CudaInvalidValueError("managed buffer used after free")
        if id(buf) not in self._managed_reservations:
            raise CudaInvalidValueError("managed buffer not owned by this runtime")
        if buf.location == DEVICE:
            # the host page fault stalls until every kernel that may touch
            # managed data completes (Kepler semantics: full sync)
            self.device_synchronize()
            duration = self._managed_transfer_time(buf.nbytes, "d2h")
            start, end = self.d2h_engine.submit(self.now, duration)
            self._m_d2h_bytes.inc(buf.nbytes)
            self.metrics.inc("cuda.managed_migrations")
            self.trace.record(
                f"uvm-migrate-d2h:{buf.label}",
                "d2h",
                self.d2h_engine.name,
                start,
                end,
                nbytes=buf.nbytes,
                managed=True,
            )
            self._host_stall(end)
            buf.location = HOST
        return buf.array if self.functional else None

    # -- kernels ---------------------------------------------------------------

    def launch(
        self,
        kernel: KernelSpec,
        *,
        buffers: Sequence[DeviceBuffer | ManagedBuffer] = (),
        n_cells: int | None = None,
        params: dict[str, Any] | None = None,
        stream: Stream | None = None,
        config: LaunchConfig | None = None,
        tuned_geometry: bool | None = None,
        math: MathModel | None = None,
        after: float | Sequence[float] = 0.0,
        label: str = "",
        reads: Sequence[DeviceBuffer | ManagedBuffer] | None = None,
        writes: Sequence[DeviceBuffer | ManagedBuffer] | None = None,
    ) -> float:
        """Launch ``kernel`` over ``n_cells`` iteration points on ``stream``.

        Returns the virtual completion time.  In functional mode the kernel
        body executes immediately against the buffers' arrays (in-stream
        issue order equals execution order, so eager execution is sound).

        ``reads``/``writes`` declare the kernel's per-buffer access sets
        for the hazard checker; when omitted they are derived from
        ``kernel.arg_access`` (positionally, over ``buffers``), falling
        back to the conservative every-buffer-read-and-written.
        """
        stream = stream if stream is not None else self.default_stream
        self._check_stream(stream)
        params = dict(params or {})
        if tuned_geometry is None:
            tuned_geometry = config.tuned if config is not None else True
        if n_cells is None:
            if not buffers:
                raise CudaInvalidValueError(
                    "launch needs n_cells or at least one buffer to infer it from"
                )
            first = buffers[0]
            n_cells = 1
            for s in first.shape:
                n_cells *= s
        if n_cells < 0:
            raise CudaInvalidValueError(f"n_cells must be >= 0, got {n_cells}")

        if (reads is not None or writes is not None) and kernel.arg_access is not None:
            decl_r, decl_w = self._derive_access(kernel, buffers, None, None)
            if (
                {id(b) for b in (reads or ())} != {id(b) for b in decl_r}
                or {id(b) for b in (writes or ())} != {id(b) for b in decl_w}
            ):
                warnings.warn(
                    f"launch({kernel.name!r}): explicit reads=/writes= "
                    "contradict the kernel's declared arg_access "
                    f"{kernel.arg_access!r}; the override wins, but one of "
                    "the two declarations is wrong",
                    AccessOverrideWarning, stacklevel=2,
                )

        managed = [b for b in buffers if isinstance(b, ManagedBuffer)]
        for buf in buffers:
            if getattr(buf, "freed", False):
                raise CudaInvalidValueError(
                    f"kernel {kernel.name!r} references freed buffer {buf!r}"
                )
            if isinstance(buf, DeviceBuffer) and buf.pool is not self.pool:
                raise CudaInvalidValueError(
                    f"kernel {kernel.name!r} references a buffer from another device"
                )
            if isinstance(buf, ManagedBuffer) and id(buf) not in self._managed_reservations:
                raise CudaInvalidValueError(
                    f"kernel {kernel.name!r} references a foreign managed buffer"
                )

        self._api()
        op_label = label or f"kernel:{kernel.name}"
        hang = self._inject("launch", op_label)
        after_deps, after_max = self._after_deps(after)
        ready = max(self.now, stream.tail, after_max)
        if managed:
            # Kepler: the driver migrates touched managed allocations before
            # the kernel runs and charges a per-launch management cost.
            self.clock.advance(self.machine.gpu.managed_launch_overhead)
            for buf in managed:
                ready = max(ready, self._migrate_managed_to_device(buf, stream))
            ready = max(ready, self.now)

        cost = kernel.cost_components(
            self.machine, n_cells, tuned_geometry=tuned_geometry, math=math
        )
        body = max(cost)  # == kernel.duration_on_gpu(...)
        duration = self.machine.gpu.kernel_launch_overhead + body + hang
        start, end = self.compute_engine.submit(ready, duration)
        stream._push(end)
        self._note_queue_op(stream, self.compute_engine, end)
        self._m_launches.inc()
        self._m_kernel_cells.observe(n_cells)
        self.trace.record(
            op_label,
            "kernel",
            self.compute_engine.name,
            start,
            end,
            stream=stream.stream_id,
            n_cells=n_cells,
        )
        if self.checker is not None:
            k_reads, k_writes = self._derive_access(kernel, buffers, reads, writes)
            self.checker.record_op(
                kind="kernel", label=op_label,
                streams=((self._runtime_id, stream),),
                engines=(self.compute_engine,),
                start=start, end=end, after=after_deps,
                reads=k_reads, writes=k_writes, now=self.now,
                cost=cost,
            )
        if self.functional and kernel.body is not None:
            arrays = [b.array for b in buffers]
            kernel.body(*arrays, **params)
        return end

    @staticmethod
    def _derive_access(
        kernel: KernelSpec,
        buffers: Sequence[DeviceBuffer | ManagedBuffer],
        reads: Sequence[DeviceBuffer | ManagedBuffer] | None,
        writes: Sequence[DeviceBuffer | ManagedBuffer] | None,
    ) -> tuple[tuple[Any, ...], tuple[Any, ...]]:
        """The read/write buffer sets a launch declares to the checker."""
        if reads is not None or writes is not None:
            return tuple(reads or ()), tuple(writes or ())
        access = kernel.arg_access
        if access is None:
            bufs = tuple(buffers)
            return bufs, bufs  # conservative: every buffer read and written
        r: list[Any] = []
        w: list[Any] = []
        for i, buf in enumerate(buffers):
            a = access[i] if i < len(access) else "rw"
            if a in ("r", "rw"):
                r.append(buf)
            if a in ("w", "rw"):
                w.append(buf)
        return tuple(r), tuple(w)

    # -- synchronization ----------------------------------------------------

    def stream_synchronize(self, stream: Stream) -> float:
        """``cudaStreamSynchronize``: block the host until the stream drains."""
        self._check_stream(stream)
        self._api()
        hang = self._inject("sync", f"sync:stream{stream.stream_id}")
        start = self.now
        target = stream.tail if hang == 0.0 else max(stream.tail, self.now) + hang
        end = self._host_stall(target, stream=stream)
        if end > start:
            self.trace.record(
                f"sync:stream{stream.stream_id}", "sync", "host", start, end,
                stream=stream.stream_id,
            )
        if self.checker is not None:
            self.checker.host_sync_stream(self._runtime_id, stream)
        return end

    def device_synchronize(self) -> float:
        """``cudaDeviceSynchronize``: block until all device work drains."""
        self._api()
        hang = self._inject("sync", "sync:device")
        start = self.now
        target = max(
            [self.compute_engine.tail, self.h2d_engine.tail, self.d2h_engine.tail]
            + [s.tail for s in self._streams.values()]
        )
        if hang:
            target = max(target, self.now) + hang
        end = self._host_stall(target)
        if end > start:
            self.trace.record("sync:device", "sync", "host", start, end)
        if self.checker is not None:
            self.checker.host_sync_streams(self._runtime_id, self._streams.values())
        return end

    # -- events ------------------------------------------------------------

    def create_event(self) -> Event:
        self._api()
        return Event(self._runtime_id)

    def event_record(self, event: Event, stream: Stream | None = None) -> None:
        """``cudaEventRecord``: the event completes when the stream drains."""
        stream = stream if stream is not None else self.default_stream
        self._check_stream(stream)
        event._check_usable(self._runtime_id)
        self._api()
        event._record(max(self.now, stream.tail))
        if self.checker is not None:
            self.checker.on_event_record(event, self._runtime_id, stream)

    def event_synchronize(self, event: Event) -> float:
        event._check_usable(self._runtime_id)
        self._api()
        end = self._host_stall(event.time)
        if self.checker is not None:
            self.checker.host_sync_event(event)
        return end

    def stream_wait_event(self, stream: Stream, event: Event) -> None:
        """``cudaStreamWaitEvent``: later work on ``stream`` waits for ``event``."""
        self._check_stream(stream)
        event._check_usable(self._runtime_id)
        self._api()
        stream._push(event.time)
        if self.checker is not None:
            self.checker.on_stream_wait_event(self._runtime_id, stream, event)
