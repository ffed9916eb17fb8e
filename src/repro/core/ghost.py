"""Hybrid CPU/GPU ghost-cell update (§IV-B.6, Fig. 4).

Protocol, following the paper:

1. ``acc wait`` — synchronize all streams before touching ghosts;
2. for each region whose data (and whose sources' data) is device-
   resident: the **host** computes the ghost source/destination index
   sets for one face while the **GPU** runs the copy kernel of the
   previous face — the two overlap naturally because index computation
   advances the host clock while kernels are queued asynchronously on
   each region's slot stream (no sync needed afterwards: per-region
   streams preserve order);
3. regions that are not device-resident (or whose sources are not) fall
   back to the host update, after downloading whatever is stale.

Branch divergence is avoided exactly as in the paper: the device kernel
receives precomputed index sets (here: numpy slices) instead of
computing boundary indices itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..kernels.exchange import bc_faces_kernel, ghost_copy_kernel
from ..sim.intervals import IntervalUnion
from ..tida.boundary import BoundaryCondition, Dirichlet, Neumann, domain_faces

if TYPE_CHECKING:  # pragma: no cover
    from .library import TidaAcc

#: Fixed host cost of setting up one face's index sets (loop bounds,
#: correspondence computation) on top of the per-cell rate.
_FACE_SETUP_TIME = 2e-6


def _index_time(machine, n_cells: int) -> float:
    return _FACE_SETUP_TIME + n_cells / machine.cpu.ghost_index_rate


def fill_boundary_hybrid(
    lib: "TidaAcc",
    name: str,
    bc: BoundaryCondition | None = None,
    *,
    safe: bool = False,
) -> None:
    """Update all ghost cells of field ``name``, on GPU where resident.

    ``safe=True`` additionally orders each source region's stream behind
    the ghost-copy kernel that reads it (``cudaStreamWaitEvent``).  The
    paper's design relies on per-region stream FIFO alone (§IV-B.6: "we
    do not need a synchronization point"), which leaves a cross-stream
    write-after-read hazard: a later kernel on the *source* region's
    stream could, on real hardware, overwrite the interior while the
    ghost copy still reads it.  The default reproduces the paper; the
    safe mode quantifies what closing the hazard costs (ablation-grade
    knob, exercised by the test suite).
    """
    ta = lib.field(name)
    mgr = lib.manager(name)
    if all(g == 0 for g in ta.ghost):
        return
    runtime = lib.runtime
    machine = runtime.machine
    periodic = bc is not None and bc.is_periodic

    # §IV-B.6: synchronize all executions in all streams first.  The
    # paper's program owns the whole device, so "all streams" means the
    # library's own; the job-scoped wait keeps that exact semantics while
    # not barriering co-tenant work on a shared runtime.
    lib.wait_own()

    copy_k = ghost_copy_kernel()
    faces_k = bc_faces_kernel()

    # observability: host index-set time vs device copy-kernel time, and
    # how much of the former the pipeline actually hid (Fig. 4's claim)
    metrics = runtime.metrics
    m_index_s = metrics.counter("ghost.index_seconds")
    m_kernel_s = metrics.counter("ghost.kernel_seconds")
    m_launches = metrics.counter("ghost.kernel_launches")
    m_overlap_s = metrics.counter("ghost.hybrid_overlap_seconds")
    kernels = IntervalUnion()

    def _host_index(label: str, n_cells: int) -> None:
        duration = _index_time(machine, n_cells)
        h0 = runtime.now
        runtime.host_compute(label, duration)
        m_index_s.inc(duration)
        # overlap achieved = host interval ∩ already-queued ghost kernels
        for lo, hi in zip(kernels.lo, kernels.hi):
            m_overlap_s.inc(max(0.0, min(hi, h0 + duration) - max(lo, h0)))

    def _note_kernel(end: float) -> None:
        ev = runtime.trace.last_event
        m_launches.inc()
        if ev is not None and ev.category == "kernel":
            m_kernel_s.inc(ev.duration)
            kernels.add(ev.start, ev.end)
        else:  # pragma: no cover - launch always records the kernel event
            kernels.add(end, end)

    host_bytes = 0
    for region in ta.regions:
        pairs = ta.exchange_pairs(region, periodic=periodic)
        device_path = mgr.is_on_device(region.rid) and all(
            mgr.is_on_device(src.rid) for src, _s, _d in pairs
        )
        if not device_path:
            # host fallback: bring the region and its sources home first
            mgr.request_host(region.rid)
            for src, _s, _d in pairs:
                mgr.request_host(src.rid)
            nb = ta.fill_region_ghosts(region, bc)
            host_bytes += nb
            metrics.inc("ghost.host_fallback_regions")
            metrics.inc("ghost.host_fallback_bytes", nb)
            continue

        dst_buf, _dst_ready = mgr.request_device(region.rid)
        qid = mgr.queue_id_for(region.rid)
        for src, src_box, dst_box in pairs:
            src_buf, _src_ready = mgr.request_device(src.rid)
            # host computes this face's index sets (Fig. 4's CPU lane) ...
            _host_index(f"ghost-idx:{region.label}", dst_box.size)
            dst_slices = region.local_slices(dst_box)
            src_slices = src.local_slices(src_box)
            # both regions' individual dep times (not their max): the
            # hazard checker resolves each component to an ordering edge
            after = (
                mgr.device_ready_deps(region.rid) + mgr.device_ready_deps(src.rid)
            )
            # ... and queues the copy kernel; the next face's index
            # computation overlaps with it
            end = lib._launch_with_retry(
                copy_k.name, region.rid,
                lambda: lib.acc.parallel_loop(
                    copy_k,
                    deviceptr=[dst_buf, src_buf],
                    n_cells=dst_box.size,
                    collapse=ta.domain.ndim,
                    loop_dims=ta.domain.ndim,
                    async_=qid,
                    vector_length=lib.vector_length,
                    after=after,
                    params={"dst_slices": dst_slices, "src_slices": src_slices},
                    label=f"ghost:{region.label}<-{src.label}",
                ),
            )
            _note_kernel(end)
            mgr.note_device_op(region.rid, end, covers=True)
            mgr.note_device_op(src.rid, end, covers=True)
            if safe and src.rid != region.rid:
                src_stream = mgr.slot_for(src.rid).stream
                dst_stream = mgr.slot_for(region.rid).stream
                if src_stream is not dst_stream:
                    ev = runtime.create_event()
                    runtime.event_record(ev, dst_stream)
                    runtime.stream_wait_event(src_stream, ev)

        if bc is not None and not periodic:
            # batch every domain face of this region into one launch; the
            # host computes all the index sets first (still overlapping
            # with the previously queued copy kernels)
            ops: list[tuple[str, tuple[slice, ...], object]] = []
            total_cells = 0
            for _axis, _side, ghost_box, src_box in domain_faces(region, ta.domain):
                _host_index(f"bc-idx:{region.label}", ghost_box.size)
                dst_slices = region.local_slices(ghost_box)
                total_cells += ghost_box.size
                if isinstance(bc, Dirichlet):
                    ops.append(("fill", dst_slices, bc.value))
                elif isinstance(bc, Neumann):
                    ops.append(("copy", dst_slices, region.local_slices(src_box)))
                else:  # pragma: no cover - new BC types must be handled here
                    raise NotImplementedError(f"unsupported device BC {type(bc).__name__}")
            if ops:
                end = lib._launch_with_retry(
                    faces_k.name, region.rid,
                    lambda: lib.acc.parallel_loop(
                        faces_k,
                        deviceptr=[dst_buf],
                        n_cells=total_cells,
                        async_=qid,
                        vector_length=lib.vector_length,
                        after=mgr.device_ready_deps(region.rid),
                        params={"ops": tuple(ops)},
                        label=f"bc-faces:{region.label}",
                    ),
                )
                _note_kernel(end)
                mgr.note_device_op(region.rid, end, covers=True)

    if host_bytes:
        duration = 2 * host_bytes / machine.cpu.mem_bandwidth
        runtime.host_compute(f"fill_boundary-host:{name}", duration, nbytes=host_bytes)
