"""Autotuning sweeps: region counts, prefetch depths, machine candidates.

Region counts (the knob Fig. 5's caption fixes at 16) offer two
strategies:

* ``strategy="model"`` — evaluate the closed-form estimate for each
  candidate count (microseconds per candidate);
* ``strategy="measure"`` — run the timing-only simulator for each
  candidate (milliseconds per candidate, exact within the simulation).

Both return the full sweep so ablation A1 can print the U-shaped curve:
too few regions ⇒ coarse pipelining (poor overlap), too many ⇒ launch
overhead and ghost-face volume dominate.

Machine candidates (:func:`sweep_machines` — which link/GPU should this
workload buy?) add a third strategy: ``"replay"`` simulates the workload
*once*, records its causal DAG, and reschedules that DAG under each
candidate machine (:func:`~repro.obs.critpath.machine_makespans`) —
microseconds per candidate instead of a full simulation — then re-runs
the winner in the simulator to verify the pick with a real measurement.
Replay is only sound on the machine axis: region/prefetch knobs change
the *program*, so their sweeps always re-simulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..config import DEFAULT_MACHINE, MachineSpec
from ..cuda.kernel import KernelSpec
from ..errors import ReproError
from .analytic import estimate_resident, estimate_streaming


@dataclass(frozen=True)
class SweepPoint:
    n_regions: int
    seconds: float


def sweep_region_counts(
    machine: MachineSpec | None = None,
    *,
    kernel: KernelSpec,
    domain_cells: int,
    steps: int,
    candidates: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    strategy: str = "model",
    resident: bool = True,
    fields: int = 1,
    result_fields: int = 1,
    ghost_width: int = 0,
    measure_fn: Callable[[int], float] | None = None,
) -> list[SweepPoint]:
    """Evaluate every candidate region count; returns the full sweep.

    With ``strategy="measure"``, ``measure_fn(n_regions) -> seconds`` must
    be supplied (typically a lambda around a timing-only
    :func:`~repro.baselines.tida_runners.run_tida_heat` /
    ``run_tida_compute`` call).
    """
    machine = machine if machine is not None else DEFAULT_MACHINE
    if strategy not in ("model", "measure"):
        raise ReproError(f"strategy must be 'model' or 'measure', got {strategy!r}")
    if strategy == "measure" and measure_fn is None:
        raise ReproError("strategy='measure' requires measure_fn")
    if not candidates:
        raise ReproError("candidates must be non-empty")
    points: list[SweepPoint] = []
    for n in candidates:
        if n < 1:
            raise ReproError(f"candidate region counts must be >= 1, got {n}")
        if strategy == "measure":
            seconds = measure_fn(n)
        elif resident:
            seconds = estimate_resident(
                machine, kernel,
                domain_cells=domain_cells, steps=steps, n_regions=n,
                fields=fields, result_fields=result_fields, ghost_width=ghost_width,
            ).total
        else:
            seconds = estimate_streaming(
                machine, kernel,
                domain_cells=domain_cells, steps=steps, n_regions=n, fields=fields,
            ).total
        points.append(SweepPoint(n_regions=n, seconds=seconds))
    return points


def autotune_region_count(
    machine: MachineSpec | None = None,
    **kwargs,
) -> int:
    """The candidate with the smallest predicted/measured time."""
    sweep = sweep_region_counts(machine, **kwargs)
    return min(sweep, key=lambda p: p.seconds).n_regions


@dataclass(frozen=True)
class PrefetchSweepPoint:
    prefetch_depth: int
    seconds: float


def sweep_prefetch_depth(
    *,
    candidates: Sequence[int] = (0, 1, 2, 4),
    measure_fn: Callable[[int], float],
) -> list[PrefetchSweepPoint]:
    """Evaluate lookahead prefetch depths (measure-only: the closed-form
    model has no notion of speculative uploads).

    ``measure_fn(depth) -> seconds`` is typically a lambda around a
    timing-only :func:`~repro.baselines.tida_runners.run_tida_compute`
    call with ``prefetch_depth=depth``.  Depth 0 is the demand-paged
    baseline; include it so the sweep shows whether prefetching pays at
    all for the configuration.
    """
    if not candidates:
        raise ReproError("candidates must be non-empty")
    points: list[PrefetchSweepPoint] = []
    for depth in candidates:
        if depth < 0:
            raise ReproError(f"prefetch depths must be >= 0, got {depth}")
        points.append(PrefetchSweepPoint(prefetch_depth=depth,
                                         seconds=measure_fn(depth)))
    return points


def autotune_prefetch_depth(**kwargs) -> int:
    """The prefetch depth with the smallest measured time (ties favor the
    shallowest depth, i.e. the least speculation)."""
    sweep = sweep_prefetch_depth(**kwargs)
    return min(sweep, key=lambda p: (p.seconds, p.prefetch_depth)).prefetch_depth


@dataclass(frozen=True)
class MachineSweepPoint:
    """One candidate machine's predicted (or measured) workload time."""

    name: str
    seconds: float
    surrogate: str          # "replay" (DAG prediction) | "measure" (simulated)


def _dag_span(result: Any) -> float:
    """Device-op makespan of a run — the quantity a replay predicts.

    ``elapsed`` starts after initialization while the DAG includes the
    initial uploads, so sweeps must rank both surrogate kinds on the
    same clock: the span of the recorded device ops.
    """
    dag = getattr(result, "dag", None)
    if dag:
        return max(n.end for n in dag) - min(n.start for n in dag)
    return float(result.elapsed)


def sweep_machines(
    candidates: Sequence[MachineSpec],
    *,
    measure_result_fn: Callable[[MachineSpec], Any],
    strategy: str = "replay",
    base: MachineSpec | None = None,
) -> list[MachineSweepPoint]:
    """Evaluate the workload on every candidate machine; full sweep back.

    ``measure_result_fn(machine)`` runs the workload and returns a
    :class:`~repro.baselines.common.BaselineResult`-shaped object; for
    ``strategy="replay"`` it must have been run with the hazard checker
    armed (``check="observe"``) so ``.dag`` is populated.

    ``strategy="replay"`` measures once on ``base`` (default: the first
    candidate), replays the recorded DAG under every candidate, then
    re-measures the *winner* in the full simulator — so the returned
    winning number is always a real measurement, and a surrogate
    mis-ranking is bounded by the replay error, not compounded by it.
    ``strategy="measure"`` simulates every candidate.
    """
    from ..obs.critpath import machine_makespans

    if strategy not in ("measure", "replay"):
        raise ReproError(
            f"strategy must be 'measure' or 'replay', got {strategy!r}"
        )
    if not candidates:
        raise ReproError("candidates must be non-empty")
    if strategy == "measure":
        return [
            MachineSweepPoint(
                name=m.name, seconds=_dag_span(measure_result_fn(m)),
                surrogate="measure",
            )
            for m in candidates
        ]
    base = base if base is not None else candidates[0]
    recording = measure_result_fn(base)
    if not getattr(recording, "dag", None):
        raise ReproError(
            "strategy='replay' needs the base run's DAG; pass check='observe' "
            "through measure_result_fn"
        )
    makespans = machine_makespans(recording.dag, machine=base, candidates=candidates)
    points = [
        MachineSweepPoint(name=m.name, seconds=makespan, surrogate="replay")
        for m, makespan in zip(candidates, makespans)
    ]
    win = min(range(len(points)), key=lambda i: points[i].seconds)
    verified = _dag_span(measure_result_fn(candidates[win]))
    points[win] = MachineSweepPoint(
        name=points[win].name, seconds=verified, surrogate="measure"
    )
    return points


def autotune_machine(
    candidates: Sequence[MachineSpec], **kwargs
) -> MachineSpec:
    """The candidate machine with the smallest predicted/measured time."""
    sweep = sweep_machines(candidates, **kwargs)
    win = min(range(len(sweep)), key=lambda i: sweep[i].seconds)
    return candidates[win]
