"""Exception hierarchy for the TiDA-acc reproduction.

Every layer of the stack (simulated CUDA runtime, OpenACC layer, TiDA
tiling library, TiDA-acc core) raises exceptions rooted at
:class:`ReproError` so callers can catch at the granularity they need.
The CUDA-facing errors mirror the ``cudaError_t`` values the paper's
library would encounter (allocation failure, invalid value, invalid
resource handle), which lets the failure-injection tests assert on the
same conditions a real CUDA program would see.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """Invalid hardware specification or calibration constant."""


class SimulationError(ReproError):
    """Internal inconsistency in the virtual-time engine (a bug, not user error)."""


# ---------------------------------------------------------------------------
# CUDA runtime errors (mirroring cudaError_t)
# ---------------------------------------------------------------------------

class CudaError(ReproError):
    """Base class for simulated CUDA runtime errors."""


class CudaMemoryAllocationError(CudaError):
    """cudaErrorMemoryAllocation: device memory exhausted."""


class CudaInvalidValueError(CudaError):
    """cudaErrorInvalidValue: bad argument to a runtime call."""


class CudaInvalidResourceHandleError(CudaError):
    """cudaErrorInvalidResourceHandle: stream/event/buffer not owned or destroyed."""


class TimingModeError(CudaInvalidValueError):
    """Numeric payload requested from a timing-only (``mode="timing"``) run.

    Timing-only buffers carry no backing arrays: every schedule decision,
    trace event, and hazard edge is produced, but reading values back
    (``gather``/``scatter``, ``buffer.array``) is meaningless.  Re-run
    with ``mode="functional"`` (or ``functional=True``) for numerics.
    """


class CudaIllegalAddressError(CudaError):
    """cudaErrorIllegalAddress: kernel touched freed or foreign memory."""


class CudaTransferError(CudaError):
    """A DMA transfer failed in flight (engine fault, link error).

    Real runtimes surface this as ``cudaErrorUnknown``/xid reports on the
    next synchronizing call; the simulator raises it at the issuing call
    so fault-injection tests can pin the failure to one transfer.  It is
    *transient*: re-issuing the same copy may succeed.
    """


class CudaEccUncorrectableError(CudaError):
    """cudaErrorECCUncorrectable: an uncorrectable ECC error hit a launch.

    Transient from the scheduler's point of view: the kernel did not run
    (no partial writes), so a re-launch is safe.
    """


# ---------------------------------------------------------------------------
# OpenACC layer errors
# ---------------------------------------------------------------------------

class AccError(ReproError):
    """Base class for OpenACC layer errors."""


class AccPresentError(AccError):
    """Data referenced by ``present`` clause is not in the present table."""


class AccCompileError(AccError):
    """The directive 'compiler' rejected the construct (bad collapse, etc.)."""


# ---------------------------------------------------------------------------
# Tiling library errors
# ---------------------------------------------------------------------------

class TidaError(ReproError):
    """Base class for TiDA tiling-library errors."""


class DecompositionError(TidaError):
    """Domain cannot be decomposed as requested."""


class TileAccError(ReproError):
    """Base class for TiDA-acc core errors (slot/cache management, compute)."""


class PlanError(TidaError):
    """Invalid declarative program or an unplannable workload description.

    Raised by :mod:`repro.plan` when a :class:`~repro.plan.Program` is
    internally inconsistent (a swap of undeclared fields, a step whose
    field count contradicts its kernel's declared accesses) or when the
    planner cannot derive a decomposition from the declarations.
    """


class AccessOverrideWarning(UserWarning):
    """``launch(reads=/writes=)`` contradicts the kernel's ``arg_access``.

    The explicit override still wins (callers sometimes narrow a
    conservative declaration deliberately), but a *contradiction* —
    claiming reads/writes the declaration excludes, or dropping ones it
    requires — usually means one of the two is wrong, and silent
    disagreement would desynchronize the hazard checker from the planner.
    """


# ---------------------------------------------------------------------------
# Fault-injection / resilience layer errors
# ---------------------------------------------------------------------------

class FaultPlanError(ReproError):
    """Invalid fault plan: bad rule fields or an unparsable spec string."""


class FaultError(ReproError):
    """Retry exhaustion in the resilience layer.

    Raised after a :class:`~repro.faults.RetryPolicy` has spent every
    attempt on a failing operation.  Before raising, the resilience layer
    flushes all surviving device-resident regions back to the host (with
    injection suspended), so no data is silently lost.  ``__cause__``
    carries the last underlying :class:`CudaError`.
    """

    def __init__(
        self,
        message: str,
        *,
        op: str | None = None,
        field: str | None = None,
        region: int | None = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.field = field
        self.region = region
        self.attempts = attempts


# ---------------------------------------------------------------------------
# Multi-tenant service layer (repro.service)
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """A job was rejected or mishandled by the multi-tenant service.

    Raised by :mod:`repro.service` when admission control rejects a job
    (its minimum footprint exceeds device capacity even after degrading
    the plan), when a submission references an unknown tenant or
    workload, or when the service is driven through an invalid
    lifecycle.  ``tenant`` and ``job`` carry the offending identifiers
    so multi-tenant harnesses can attribute the failure.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        job: str | None = None,
        reason: str | None = None,
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.job = job
        self.reason = reason


# ---------------------------------------------------------------------------
# Happens-before checking (repro.check)
# ---------------------------------------------------------------------------

class HazardError(ReproError):
    """A racy conflicting access pair detected in strict checking mode.

    Raised by :class:`~repro.check.hazards.HazardChecker` when two
    operations touch the same device buffer (RAW/WAR/WAW) with no
    happens-before edge between them — not even the engine-FIFO ordering
    the simulator happens to provide.  ``hazard`` carries the full
    :class:`~repro.check.hazards.Hazard` record.
    """

    def __init__(self, message: str, *, hazard=None) -> None:
        super().__init__(message)
        self.hazard = hazard


class DagFormatError(ReproError):
    """A run manifest's ``"dag"`` rows do not describe DAG nodes.

    Raised by :func:`~repro.check.dag.dag_from_json` for a row that lacks
    a required field or holds a value of the wrong shape.  ``row`` is the
    row's index in the list and ``field`` the offending key (``None``
    when the row is not an object at all).
    """

    def __init__(self, message: str, *, row: int, field: str | None) -> None:
        super().__init__(message)
        self.row = row
        self.field = field


class RecordFormatError(ReproError):
    """A record stream's line that is not a record
    (:func:`~repro.obs.records.read_records`): ``path`` names the file,
    ``line`` the 1-based number of its first bad line."""

    def __init__(self, message: str, *, path: str, line: int) -> None:
        super().__init__(message)
        self.path, self.line = path, line
