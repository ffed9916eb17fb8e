"""The ``prefetch`` leg of :mod:`repro.bench.gate`.

Runs the Fig. 8 limited-memory scenario twice at a small, fixed,
deterministic configuration — demand-paged with the paper's modulo slot
mapping versus the lookahead prefetch pipeline — and gates:

* ``bench.fig8_prefetch.demand_seconds`` / ``prefetch_seconds`` — the
  two virtual wall-clocks (lower is better, so a shrinking prefetch win
  shows up as a ``prefetch_seconds`` regression);
* the prefetch run's full slot-cache counters (``cache.prefetch_issued``,
  ``prefetch_useful``, ``prefetch_wasted``, ``stall_seconds_avoided``, …).

Before timing, both modes run functionally on a small domain and their
results must be byte-identical — the pipeline may only move transfers,
never change data.
"""

from __future__ import annotations

from pathlib import Path

from ..baselines.common import default_init
from ..baselines.tida_runners import run_tida_compute
from ..obs import metrics as obs_metrics
from .report import LegResult

#: The fixed gate configuration.  Small enough to run in ~1 s, large
#: enough that the limited-memory sweep (12 regions cycling through 6
#: slots) is transfer-bound and the prefetch win is well over the 20%
#: acceptance bar.  Do not change without regenerating BENCH_prefetch.json.
SHAPE = (256, 256, 256)
STEPS = 40
N_REGIONS = 12
N_SLOTS = 6
KERNEL_ITERATION = 1
PREFETCH_DEPTH = 1

DEMAND = dict(prefetch_depth=0, eviction="modulo")
PREFETCH = dict(prefetch_depth=PREFETCH_DEPTH, eviction="lookahead")


def functional_check() -> bool:
    """Demand and prefetch modes must produce byte-identical results."""
    shape, steps = (32, 32, 32), 5
    init = default_init(shape, 0)
    results = []
    for kw in (DEMAND, PREFETCH):
        r = run_tida_compute(
            shape=shape, steps=steps, n_regions=N_REGIONS, n_slots=N_SLOTS,
            kernel_iteration=KERNEL_ITERATION, functional=True,
            initial=init.copy(), **kw,
        )
        results.append(r.result)
    return results[0].tobytes() == results[1].tobytes()


def run(out_dir: Path) -> LegResult:
    if not functional_check():
        return LegResult(conformance=["prefetch pipeline changed functional results"])
    print("functional check: demand and prefetch results byte-identical")

    demand = run_tida_compute(
        shape=SHAPE, steps=STEPS, n_regions=N_REGIONS, n_slots=N_SLOTS,
        kernel_iteration=KERNEL_ITERATION, **DEMAND,
    )
    # only the prefetch run's runtime counters enter the manifest, so the
    # gate watches the pipeline's own hit/waste/stall numbers undiluted
    obs_metrics.start_collection()
    prefetch = run_tida_compute(
        shape=SHAPE, steps=STEPS, n_regions=N_REGIONS, n_slots=N_SLOTS,
        kernel_iteration=KERNEL_ITERATION, **PREFETCH,
    )
    snapshot = obs_metrics.collect()
    snapshot["counters"]["bench.fig8_prefetch.demand_seconds"] = demand.elapsed
    snapshot["counters"]["bench.fig8_prefetch.prefetch_seconds"] = prefetch.elapsed

    win = 1.0 - prefetch.elapsed / demand.elapsed
    print(f"demand (modulo):       {demand.elapsed:.6f} s")
    print(f"prefetch (lookahead):  {prefetch.elapsed:.6f} s")
    print(f"win:                   {win:.1%}")
    return LegResult(metrics=snapshot)
