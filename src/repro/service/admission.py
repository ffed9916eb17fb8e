"""Admission control: gate jobs against ``cudaMemGetInfo``-style budgets.

A job's device footprint is what its slot pools will allocate: for every
planned field, ``n_slots`` buffers of the *largest* region's ghosted
extent (mirroring :class:`~repro.core.tile_acc.TileAcc`'s sizing rule).
The controller compares that against the device budget — current free
memory minus any injected memory pressure
(:meth:`~repro.faults.plan.FaultPlan.memory_pressure`) — and answers
one of:

* ``admit`` — the requested plan fits now;
* ``degrade`` — the requested plan does not fit but a minimum-slot
  replan does, and the policy allows shrinking (``policy="degrade"``);
* ``defer`` — nothing fits now but the job fits an *empty* device, so
  it queues instead of OOMing;
* ``reject`` — even the degraded footprint exceeds total device
  capacity; the service raises :class:`~repro.errors.ServiceError`.

Jobs never reach ``cudaMalloc`` unless the controller said yes, which is
what turns would-be OOM crashes into queueing delay.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..cuda.runtime import CudaRuntime
    from ..plan.planner import PlanReport

#: Admission decisions (returned by :meth:`AdmissionController.decide`).
ADMIT = "admit"
DEGRADE = "degrade"
DEFER = "defer"
REJECT = "reject"

#: Admission policies.
POLICIES = ("queue", "degrade")


def plan_slot_bytes(plan: "PlanReport", fname: str) -> int:
    """Bytes of one device slot of field ``fname`` under ``plan``.

    The slot covers the largest region: the domain is split along axis 0
    into ``n_regions`` chunks (first chunks take the ceiling), each
    grown by the field's ghost width on every axis.
    """
    fplan = plan.fields[fname]
    shape = tuple(plan.domain)
    halo = fplan.halo
    if isinstance(halo, int):
        halo = (halo,) * len(shape)
    chunk = math.ceil(shape[0] / plan.n_regions)
    local = (chunk + 2 * halo[0],) + tuple(
        d + 2 * h for d, h in zip(shape[1:], halo[1:])
    )
    itemsize = np.dtype(plan.dtype).itemsize
    n = itemsize
    for d in local:
        n *= d
    return n


def plan_footprint_bytes(plan: "PlanReport") -> int:
    """Total device bytes the plan's slot pools will allocate."""
    n_slots = plan.n_slots if plan.n_slots is not None else plan.n_regions
    return sum(n_slots * plan_slot_bytes(plan, f) for f in plan.fields)


def plan_total_slots(plan: "PlanReport") -> int:
    """Total device slots across the plan's fields (occupancy unit)."""
    n_slots = plan.n_slots if plan.n_slots is not None else plan.n_regions
    return n_slots * len(plan.fields)


class AdmissionController:
    """Decides admit/degrade/defer/reject against the live device budget."""

    def __init__(self, runtime: "CudaRuntime", *, policy: str = "degrade") -> None:
        if policy not in POLICIES:
            from ..errors import ServiceError
            raise ServiceError(
                f"unknown admission policy {policy!r}; have {POLICIES}",
                reason="bad-policy",
            )
        self.runtime = runtime
        self.policy = policy
        self._backpressure_hook = None

    def set_backpressure_hook(self, hook) -> None:
        """Install ``hook(tenant) -> bool`` consulted before scheduling.

        The SLO tracker uses this to defer best-effort tenants while a
        protected tenant's error budget is burning
        (:meth:`~repro.obs.slo.SloTracker.burning`).  The hook gates the
        *scheduling pass*, not :meth:`decide` — memory admission stays a
        pure function of footprints and budgets, so backpressure can
        never turn a feasible job into a reject.
        """
        self._backpressure_hook = hook

    def backpressured(self, tenant: str) -> bool:
        """True when the installed hook says ``tenant`` must wait."""
        return (self._backpressure_hook is not None
                and bool(self._backpressure_hook(tenant)))

    def budget(self, reserved: int = 0) -> int:
        """Admittable bytes right now.

        ``min(free, capacity - reserved) - pressure``: slot
        buffers allocate *lazily*, so live free memory overstates what is
        really available while admitted jobs are still warming up their
        pools — the caller passes the summed footprints it has already
        promised (``reserved``) and the budget honors whichever bound is
        tighter.
        """
        free, total = self.runtime.mem_get_info()
        pressure = 0
        if self.runtime.faults is not None:
            pressure = self.runtime.faults.memory_pressure(self.runtime.clock.now)
        return min(free, total - reserved) - pressure

    def capacity(self) -> int:
        """Bytes an *empty* device could offer (defer-vs-reject line)."""
        return self.runtime.mem_get_info()[1]

    def pressure_relief_time(self) -> float | None:
        """When the currently active injected memory pressure lifts.

        The earliest finite ``until_t`` among active pressure rules —
        the time the service may ``advance_to`` when nothing is running
        and a deferred job is only blocked by injection.  ``None`` when
        no finite-window pressure is active.
        """
        plan = self.runtime.faults
        if plan is None:
            return None
        now = self.runtime.clock.now
        ends = [
            r.until_t for r in plan.rules
            if r.kind == "pressure" and r.in_window(now) and math.isfinite(r.until_t)
        ]
        return min(ends) if ends else None

    def decide(self, footprint: int, degraded_footprint: int | None = None,
               *, reserved: int = 0) -> str:
        """Classify a job given its (and optionally its degraded) footprint."""
        budget = self.budget(reserved)
        if footprint <= budget:
            return ADMIT
        floor = degraded_footprint if degraded_footprint is not None else footprint
        if self.policy == "degrade" and degraded_footprint is not None \
                and degraded_footprint <= budget:
            return DEGRADE
        if floor <= self.capacity():
            return DEFER
        return REJECT
