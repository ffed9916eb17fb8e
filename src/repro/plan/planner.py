"""The access-set planner: declarations in, full decomposition out.

Everything the hand-built drivers configure by hand is derived here from
the kernels' ``arg_access`` + ``footprint`` declarations and the
analytic model:

* **ghost widths** — per-axis read radii unioned over every kernel
  applied to a field, then unified across fields that co-iterate (the
  compute path requires co-iterated fields to share a ghost width) or
  swap with each other;
* **region count** — :func:`~repro.model.autotune.autotune_region_count`
  over the program's dominant kernel;
* **slot counts / eviction / prefetch** — resident fields keep every
  region on the device under LRU; when the working set exceeds device
  memory, slots are fair-shared across fields and Belady-style lookahead
  takes over;
* **redundancy proofs** — a field whose swap-alias group is never
  written is read-only on the device (``access="ro"``: evictions and
  flushes skip the write-back), and a read-only field's halo exchange is
  loop-invariant (fill once, elide every repeat).

The proofs are *sound by construction*: skipping a write-back of
unmodified data and skipping a re-fill of a clean halo both copy bytes
that are already in place, so planner-derived runs stay byte-identical
to hand-built ones — the conformance property ``repro.bench.plan_bench``
gates on.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any

from ..config import DEFAULT_MACHINE, MachineSpec
from ..cuda.kernel import KernelSpec
from ..errors import PlanError
from ..model.analytic import estimate_resident, estimate_streaming
from ..model.autotune import autotune_region_count
from .program import Loop, Program, Reduce, Step, Swap

#: Candidate region counts the auto-sizer sweeps (clamped to the slab
#: axis extent).  Matches the Fig. 5 sweep range.
DEFAULT_REGION_CANDIDATES = (1, 2, 4, 8, 16, 32)


def derive_halo(kernels: Any, ndim: int) -> tuple[int, ...]:
    """Per-axis ghost width a field needs under the given kernels.

    The union (elementwise max) of every kernel's read radius — the rule
    behind ``add_array(halo="auto", kernels=...)``.
    """
    kernels = tuple(kernels)
    if not kernels:
        raise PlanError("derive_halo needs at least one KernelSpec")
    radius = [0] * ndim
    for k in kernels:
        if not isinstance(k, KernelSpec):
            raise PlanError(f"derive_halo needs KernelSpecs, got {type(k).__name__}")
        for axis, r in enumerate(k.read_radius(ndim)):
            radius[axis] = max(radius[axis], r)
    return tuple(radius)


@dataclass(frozen=True)
class FieldPlan:
    """One field's derived configuration."""

    name: str
    halo: tuple[int, ...]         # per-axis ghost width
    access: str                   # "ro" (proven never written) | "rw"
    written: bool                 # any step writes it (pre-aliasing)
    stencil_read: bool            # any step reads it beyond its own cell
    group: tuple[str, ...]        # ghost-width unification group


@dataclass(frozen=True)
class PlanReport:
    """A fully derived decomposition, ready for ``run_program``.

    ``decisions`` is the human-readable audit trail: one line per choice
    the planner made and why.
    """

    domain: tuple[int, ...]
    dtype: str
    fields: dict[str, FieldPlan]
    n_regions: int
    n_slots: int | None           # per-field slot count; None = all regions fit
    resident: bool
    eviction: str
    prefetch_depth: int | None
    total_sweeps: int
    estimate: dict[str, Any] | None
    loop_invariant_halos: tuple[str, ...]
    decisions: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ro_fields(self) -> tuple[str, ...]:
        return tuple(n for n, f in self.fields.items() if f.access == "ro")

    def to_json(self) -> str:
        payload = asdict(self)
        payload["ro_fields"] = list(self.ro_fields)
        return json.dumps(payload, indent=2, sort_keys=True, default=str)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _arg_access(kernel: KernelSpec, index: int) -> str:
    if kernel.arg_access is not None and index < len(kernel.arg_access):
        return kernel.arg_access[index]
    return "rw"  # undeclared: conservative


def _walk_with_multiplicity(stmts, mult: int = 1):
    """Yield ``(statement, multiplicity)`` with loop counts multiplied."""
    # recursive at module level, not as a closure over itself: a walk
    # leaves no function <-> cell cycle for the cyclic collector
    for s in stmts:
        if isinstance(s, Loop):
            yield from _walk_with_multiplicity(s.body, mult * s.count)
        else:
            yield s, mult


def plan_program(
    prog: Program,
    *,
    machine: MachineSpec | None = None,
    free_memory: int | None = None,
    n_regions: int | None = None,
    n_slots: int | None = None,
    eviction: str | None = None,
    prefetch_depth: int | None = None,
    region_candidates: tuple[int, ...] = DEFAULT_REGION_CANDIDATES,
) -> PlanReport:
    """Derive the full decomposition for ``prog``.

    Explicit ``n_regions``/``n_slots``/``eviction``/``prefetch_depth``
    pin the corresponding knob (the conformance matrix sweeps them);
    everything left ``None`` is chosen by the planner.  ``free_memory``
    caps the device working set (defaults to the machine's GPU memory
    minus its reservation).
    """
    machine = machine if machine is not None else DEFAULT_MACHINE
    prog.validate()
    ndim = len(prog.domain)
    itemsize = prog.dtype.itemsize
    names = prog.field_names()
    if not names:
        raise PlanError("program has no fields: nothing to plan")
    decisions: list[str] = []

    # -- access sets and per-field halo requirements ----------------------
    halo_req: dict[str, list[int]] = {n: [0] * ndim for n in names}
    written: dict[str, bool] = {n: False for n in names}
    stencil_read: dict[str, bool] = {n: False for n in names}
    groups = _UnionFind()        # co-iteration + swap: must share ghost width
    aliases = _UnionFind()       # swap only: share the same data over time
    for n in names:
        groups.find(n)
        aliases.find(n)

    steps = [s for s, _m in _walk_with_multiplicity(prog.statements) if isinstance(s, Step)]
    for s, _mult in _walk_with_multiplicity(prog.statements):
        if isinstance(s, Step):
            for i, fname in enumerate(s.fields):
                acc = _arg_access(s.kernel, i)
                if acc in ("w", "rw"):
                    written[fname] = True
                if acc == "w":
                    continue
                for axis, (lo, hi) in enumerate(s.kernel.arg_footprint(i, ndim)):
                    r = max(-lo, hi)
                    if r:
                        stencil_read[fname] = True
                        halo_req[fname][axis] = max(halo_req[fname][axis], r)
            for other in s.fields[1:]:
                groups.union(s.fields[0], other)
        elif isinstance(s, Reduce):
            for other in s.fields[1:]:
                groups.union(s.fields[0], other)
        elif isinstance(s, Swap):
            groups.union(s.a, s.b)
            aliases.union(s.a, s.b)

    # unify ghost widths inside each co-iteration group: compute() (and
    # reduce_field's compatibility check) require equal ghosts
    halo: dict[str, tuple[int, ...]] = {}
    members: dict[str, list[str]] = {}
    for n in names:
        members.setdefault(groups.find(n), []).append(n)
    for root, group in members.items():
        merged = tuple(
            max(halo_req[m][axis] for m in group) for axis in range(ndim)
        )
        for m in group:
            halo[m] = merged
        if any(merged) and len(group) > 1:
            decisions.append(
                f"ghost width {merged} unified across co-iterated fields "
                f"{sorted(group)}"
            )

    # -- read-only proof over swap-alias groups ---------------------------
    alias_written: dict[str, bool] = {}
    for n in names:
        root = aliases.find(n)
        alias_written[root] = alias_written.get(root, False) or written[n]
    access: dict[str, str] = {}
    for n in names:
        if not alias_written[aliases.find(n)]:
            access[n] = "ro"
            decisions.append(
                f"field {n!r} proven read-only (no step writes its alias "
                "group): device evictions and flushes skip the write-back"
            )
        else:
            access[n] = "rw"

    # -- dominant kernel + sweep count for the analytic model -------------
    total_sweeps = sum(m for s, m in _walk_with_multiplicity(prog.statements)
                       if isinstance(s, Step))
    domain_cells = math.prod(prog.domain)
    dominant: KernelSpec | None = None
    if steps:
        probe = max(1, domain_cells // 64)
        weight: dict[int, float] = {}
        by_id: dict[int, KernelSpec] = {}
        for s, mult in _walk_with_multiplicity(prog.statements):
            if not isinstance(s, Step):
                continue
            k = s.kernel
            by_id[id(k)] = k
            weight[id(k)] = weight.get(id(k), 0.0) + mult * k.duration_on_gpu(
                machine, probe
            )
        dominant = by_id[max(weight, key=weight.get)]
        decisions.append(f"dominant kernel: {dominant.name!r}")

    # -- memory fit: resident vs streaming --------------------------------
    if free_memory is None:
        free_memory = machine.gpu.memory_bytes - machine.gpu.reserved_bytes
    max_halo = max((h for hs in halo.values() for h in hs), default=0)
    total_bytes = sum(
        math.prod(s + 2 * h for s, h in zip(prog.domain, halo[n])) * itemsize
        for n in names
    )
    resident = total_bytes <= free_memory
    decisions.append(
        f"working set {total_bytes} B vs {free_memory} B free: "
        + ("resident" if resident else "streaming")
    )

    # -- region count ------------------------------------------------------
    if n_regions is None:
        candidates = tuple(c for c in region_candidates if c <= prog.domain[0])
        if not candidates:
            candidates = (1,)
        if dominant is None:
            n_regions = candidates[0]
        else:
            n_regions = autotune_region_count(
                machine,
                kernel=dominant,
                domain_cells=domain_cells,
                steps=max(1, total_sweeps),
                candidates=candidates,
                strategy="model",
                resident=resident,
                fields=len(names),
                result_fields=sum(1 for n in names if written[n]) or 1,
                ghost_width=max_halo,
            )
        decisions.append(f"model-tuned n_regions = {n_regions}")
    else:
        if n_regions < 1 or n_regions > prog.domain[0]:
            raise PlanError(
                f"n_regions={n_regions} out of range for slab axis extent "
                f"{prog.domain[0]}"
            )
        decisions.append(f"n_regions = {n_regions} (caller-pinned)")

    # -- slots, eviction, prefetch ----------------------------------------
    if n_slots is None and not resident:
        region_interior = (
            -(-prog.domain[0] // n_regions),
            *prog.domain[1:],
        )
        slot_bytes = math.prod(
            s + 2 * h for s, h in zip(region_interior, halo[names[0]])
        ) * itemsize
        fits_total = max(1, int(free_memory // max(1, slot_bytes)))
        n_slots = max(1, min(n_regions, fits_total // len(names)))
        decisions.append(
            f"fair-shared {fits_total} region slots across {len(names)} "
            f"fields: n_slots = {n_slots}"
        )
    if eviction is None:
        eviction = "lru" if resident else "lookahead"
        decisions.append(
            f"eviction = {eviction!r} "
            + ("(resident: nothing to evict)" if resident
               else "(streaming: schedule-aware lookahead)")
        )
    if prefetch_depth is None:
        decisions.append("prefetch depth: auto (sequential sweeps prefetch)")

    # -- analytic estimate for the chosen point ---------------------------
    estimate = None
    if dominant is not None:
        if resident:
            est = estimate_resident(
                machine, dominant,
                domain_cells=domain_cells, steps=max(1, total_sweeps),
                n_regions=n_regions, fields=len(names),
                result_fields=sum(1 for n in names if written[n]) or 1,
                ghost_width=max_halo, itemsize=itemsize,
            )
        else:
            est = estimate_streaming(
                machine, dominant,
                domain_cells=domain_cells, steps=max(1, total_sweeps),
                n_regions=n_regions, fields=len(names), itemsize=itemsize,
            )
        estimate = asdict(est)

    # -- loop-invariant halo proof ----------------------------------------
    invariant = tuple(
        n for n in names
        if stencil_read[n] and access[n] == "ro" and any(halo[n])
    )
    for n in invariant:
        decisions.append(
            f"halo of {n!r} is loop-invariant (stencil-read, never "
            "written): filled once, every repeat elided"
        )

    field_plans = {
        n: FieldPlan(
            name=n, halo=halo[n], access=access[n], written=written[n],
            stencil_read=stencil_read[n],
            group=tuple(sorted(members[groups.find(n)])),
        )
        for n in names
    }
    return PlanReport(
        domain=prog.domain,
        dtype=str(prog.dtype),
        fields=field_plans,
        n_regions=n_regions,
        n_slots=n_slots,
        resident=resident,
        eviction=eviction,
        prefetch_depth=prefetch_depth,
        total_sweeps=total_sweeps,
        estimate=estimate,
        loop_invariant_halos=invariant,
        decisions=tuple(decisions),
    )
