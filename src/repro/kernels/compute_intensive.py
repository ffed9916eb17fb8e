"""NVIDIA's overlap benchmark kernel (§VI-B): the compute-intensive kernel.

Per time step each cell runs, ``kernel_iteration`` times::

    s = sin(data[i]); c = cos(data[i]); data[i] += sqrt(s*s + c*c)

(sqrt(sin²+cos²) == 1, so the update adds ~1.0 per inner iteration — a
deliberately arithmetic-heavy no-op).  The paper added the inner loop to
re-balance NVIDIA's original kernel (tuned for an older GPU) so that
computation dominates transfer time on the K40m.

Cost metadata: one read + one write per cell (16 B) and, per inner
iteration, one sin + one cos + one sqrt (costed via the active
:class:`~repro.config.MathModel` — the Fig. 6 comparison) plus ~4 plain
flops (multiplies/add/index).

In functional mode the body runs on every host CPU, the way a GPU
spreads cells over its SMs: each cell's update reads only that cell, and
numpy's float64 ``sin``/``cos``/``sqrt`` release the interpreter lock, so
contiguous row blocks of the view run in parallel threads and leave the
same bytes as one serial pass.
"""

from __future__ import annotations

import contextvars
import os

import numpy as np

from ..cuda.kernel import KernelSpec
from ..errors import CudaInvalidValueError

#: The paper adjusted the inner-loop count "on our target device" without
#: reporting the value.  §VI-C needs per-region *compute* to cover a full
#: per-region D2H + H2D round trip, so that two streams suffice for total
#: overlap (Fig. 7): on the simulated K40m a 64 MiB region round-trips in
#: ~13.1 ms, and 48 inner iterations put the PGI-math kernel at ~14.4 ms.
DEFAULT_KERNEL_ITERATION = 48

#: Fewest cells a block gets before a view is split.  Handing a block to
#: another thread costs a wake-up and each numpy call a lock hand-off; at
#: 48 iterations on a shared 2-vCPU x86 host, two blocks of 256 cells ran
#: at 0.79x one serial pass, of 512 cells 1.02-1.30x, of 1,024 cells
#: 1.48-1.51x and of 4,096 cells 1.82x.
MIN_BLOCK_CELLS = 1024

#: Fewest cell-iterations (cells x ``kernel_iteration``) a block gets
#: before a view is split: a short pass cannot repay the hand-off either.
#: On the same host two 1,024-cell blocks broke even near 6-16 iterations
#: (0.45x at 1 iteration, 0.69x at 2, 0.82x at 4, 0.99x at 6 in one
#: measurement; 0.30x, 0.55x, 0.63x, 0.82x, then 0.96x at 8 in a noisier
#: one) and two 2,048-cell blocks near 4 (0.65x at 1, 1.08x at 4).
MIN_BLOCK_WORK = 8 * 1024

#: Runs every block but the caller's; created at the first split.
_pool = None


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ci_loop(view: np.ndarray, kernel_iteration: int) -> None:
    """The iteration loop over one block.  Pool threads run this, never
    ``_ci_body``: layerbench's tracer wraps ``_ci_body`` by name and
    keeps one span stack, for the calling thread."""
    # the serial update s = sin(v); c = cos(v); v += sqrt(s*s + c*c), op
    # for op, into two scratch arrays the first iteration allocates
    s = c = None
    for _ in range(kernel_iteration):
        s = np.sin(view, out=s)
        c = np.cos(view, out=c)
        np.multiply(s, s, out=s)
        np.multiply(c, c, out=c)
        np.add(s, c, out=s)
        np.sqrt(s, out=s)
        view += s


def _ci_body(
    data: np.ndarray,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
    kernel_iteration: int = DEFAULT_KERNEL_ITERATION,
) -> None:
    global _pool
    view = data[tuple(slice(l, h) for l, h in zip(lo, hi))]
    n = int(kernel_iteration)
    blocks = min(view.size // MIN_BLOCK_CELLS, view.size * n // MIN_BLOCK_WORK)
    if blocks > 1:
        blocks = min(blocks, view.shape[0], _cpus())
    if blocks < 2:
        _ci_loop(view, n)
        return
    from concurrent.futures import ThreadPoolExecutor, wait
    if _pool is None:
        _pool = ThreadPoolExecutor(thread_name_prefix="compute-intensive")
    rows = view.shape[0]
    # each worker block runs in its own copy of the caller's context, so
    # np.errstate (a context variable since numpy 2) reaches it
    futures = [
        _pool.submit(contextvars.copy_context().run, _ci_loop,
                     view[rows * b // blocks:rows * (b + 1) // blocks], n)
        for b in range(1, blocks)
    ]
    try:
        _ci_loop(view[:rows // blocks], n)
    finally:
        wait(futures)
    for f in futures:  # the first failed block in row order, as one pass would
        f.result()


def compute_intensive_kernel(kernel_iteration: int = DEFAULT_KERNEL_ITERATION) -> KernelSpec:
    """The sin/cos benchmark kernel with a chosen inner-loop count, an
    integer >= 1 (``CudaInvalidValueError`` otherwise)."""
    if (isinstance(kernel_iteration, bool)
            or not isinstance(kernel_iteration, (int, np.integer))
            or kernel_iteration < 1):
        raise CudaInvalidValueError(
            f"kernel_iteration must be an integer >= 1, got {kernel_iteration!r}"
        )
    it = float(kernel_iteration)
    return KernelSpec(
        name=f"compute-intensive(it={kernel_iteration})",
        body=_ci_body,
        bytes_per_cell=16.0,
        flops_per_cell=4.0 * it,
        sin_per_cell=it,
        cos_per_cell=it,
        sqrt_per_cell=it,
        arg_access=("rw",),  # in-place update
        footprint=(None,),   # pointwise: no ghost cells needed
        meta={"kernel_iteration": kernel_iteration},
    )


def compute_intensive_reference_step(
    data: np.ndarray, kernel_iteration: int = DEFAULT_KERNEL_ITERATION
) -> np.ndarray:
    """Reference step over a whole array (no ghosts; the kernel is pointwise)."""
    out = data.copy()
    _ci_body(out, (0,) * data.ndim, out.shape, kernel_iteration=kernel_iteration)
    return out
