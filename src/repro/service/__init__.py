"""Multi-tenant GPU service layer: admission control, QoS, load generation."""

from ..errors import ServiceError
from .admission import (
    ADMIT,
    DEFER,
    DEGRADE,
    REJECT,
    AdmissionController,
    plan_footprint_bytes,
    plan_slot_bytes,
    plan_total_slots,
)
from .loadgen import Arrival, LoadGenerator, TrafficPattern
from .service import JobResult, Service, ServiceReport, Tenant, run_solo
from .workloads import WORKLOADS, WorkloadSpec, build_workload

__all__ = [
    "ADMIT",
    "DEFER",
    "DEGRADE",
    "REJECT",
    "AdmissionController",
    "Arrival",
    "JobResult",
    "LoadGenerator",
    "Service",
    "ServiceError",
    "ServiceReport",
    "Tenant",
    "TrafficPattern",
    "WORKLOADS",
    "WorkloadSpec",
    "build_workload",
    "plan_footprint_bytes",
    "plan_slot_bytes",
    "plan_total_slots",
    "run_solo",
]
