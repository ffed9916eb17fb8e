"""The bench gate: ``python -m repro.bench.gate LEG [--out FILE]``.

CI pins the paper's results, and the extensions built on them, with one
registry of seven legs (:data:`LEGS`; ``docs/OBSERVABILITY.md`` tabulates
what each gates): ``prefetch``, ``plan``, ``simspeed``, ``service``,
``slo`` and ``critpath`` against their committed ``BENCH_<LEG>.json``,
and ``live`` by its floors alone.

Each leg is a function that runs its checks and measurements and returns
a :class:`~repro.bench.report.LegResult`.  This module alone turns that
into a verdict:

1. conformance failures (a differential diverged, a racy hazard, ...)
   are printed and exit **1**; nothing is written;
2. each counter matching one of the leg's ``bounds`` (names or
   :mod:`fnmatch` patterns) is clamped toward its bound in the direction
   :func:`~repro.obs.compare.higher_is_better` gives its name:
   ``min(measured, bound)`` when higher is better, else
   ``max(measured, bound)``.  Bounds sit just inside what a healthy run
   measures, so the committed baseline sits exactly at them and never
   moves on a faster machine, while a real regression pulls the counter
   past its bound;
3. the ``repro-run-manifest/1`` — gated metrics under ``metrics``, the
   leg's ungated raw data beside them — is written to ``--out``
   (default ``results/<LEG>.json``; the live leg's telemetry sessions
   and incident dumps go next to it);
4. the metrics are compared with the leg's committed baseline, read
   from the working directory (run from the repository root), by the
   rule of ``python -m repro.obs.report --compare``: any metric more
   than 10% worse regresses;
5. a floor miss, a regression, or a declared baseline that is missing
   exits **2**; otherwise the leg exits 0.

To re-baseline after an intentional change, run the leg with
``--out BENCH_<LEG>.json``: the old baseline is read before the new
manifest overwrites it, and the change that explains the move commits
the file.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from ..obs.compare import compare_snapshots, higher_is_better
from ..obs.report import compare_table
from . import harness, live, plan_bench, prefetch_bench, service_bench, simspeed, slo_bench
from .report import LegResult

#: Relative regression threshold against the committed baseline.
THRESHOLD = 0.10


@dataclass(frozen=True)
class Leg:
    """One registered leg: its runner and what gates it."""

    #: ``run(out_dir)``; ``out_dir`` receives any side artifacts
    run: Callable[[Path], LegResult]
    #: committed baseline manifest (None: gated by its floors alone)
    baseline: str | None = None
    #: clamp bound per gated counter name or fnmatch pattern
    bounds: Mapping[str, float] = field(default_factory=dict)


LEGS: dict[str, Leg] = {
    "prefetch": Leg(prefetch_bench.run, "BENCH_prefetch.json"),
    "plan": Leg(plan_bench.run, "BENCH_plan.json", plan_bench.BOUNDS),
    "simspeed": Leg(simspeed.run, "BENCH_simspeed.json", simspeed.BOUNDS),
    "service": Leg(service_bench.run, "BENCH_service.json", service_bench.BOUNDS),
    "slo": Leg(slo_bench.run, "BENCH_slo.json", slo_bench.BOUNDS),
    "critpath": Leg(harness.critpath_leg, "BENCH_critpath.json"),
    "live": Leg(live.run),
}


def clamp(counters: Mapping[str, float], bounds: Mapping[str, float]) -> dict[str, float]:
    """``counters`` with every bounded one clamped toward its bound."""
    out = {name: float(value) for name, value in counters.items()}
    for pattern, bound in bounds.items():
        for name in fnmatch.filter(out, pattern):
            out[name] = (min if higher_is_better(name) else max)(out[name], bound)
    return out


def _baseline_metrics(path: Path) -> dict[str, Any] | None:
    try:
        return json.loads(path.read_text())["metrics"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def run(name: str, out: Path, *, legs: Mapping[str, Leg] = LEGS) -> int:
    """Run leg ``name``, write its manifest to ``out``; returns the exit code."""
    leg = legs[name]
    baseline = None if leg.baseline is None else _baseline_metrics(Path(leg.baseline))
    result = leg.run(out.parent)
    if result.conformance:
        for failure in result.conformance:
            print(f"FAIL conformance: {failure}", file=sys.stderr)
        return 1

    manifest = {"schema": "repro-run-manifest/1", **result.raw}
    metrics: dict[str, Any] = {}
    if result.metrics:  # the live leg is gated by its floors alone
        metrics = dict(result.metrics, counters=clamp(
            result.metrics.get("counters", {}), leg.bounds))
        manifest["metrics"] = metrics
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(metrics.get('counters', ()))} gated counters to {out}")

    misses = [f"floor: {miss}" for miss in result.floor_misses]
    if leg.baseline is not None and baseline is None:
        misses.append(f"baseline: {leg.baseline} is missing or carries no metrics")
    elif baseline is not None:
        rows, regressions = compare_snapshots(metrics, baseline, threshold=THRESHOLD)
        if any(row["verdict"] != "ok" for row in rows):
            print(compare_table(rows).format())
        print(f"compared {len(rows)} metrics with {leg.baseline}: "
              f"{len(regressions)} regressed beyond {THRESHOLD:.0%}")
        for row in regressions:
            cur = "missing" if row["current"] is None else format(row["current"], "g")
            misses.append(f"regression: {row['metric']}: {row['baseline']:g} -> "
                          f"{cur} vs {leg.baseline}")
    for miss in misses:
        print(f"FAIL {miss}", file=sys.stderr)
    return 2 if misses else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gate", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("leg", choices=list(LEGS), help="the leg to run")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="run-manifest path (default results/<LEG>.json)")
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else Path("results") / f"{args.leg}.json"
    return run(args.leg, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
