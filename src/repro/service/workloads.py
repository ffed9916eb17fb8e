"""Named workloads tenants can submit by name.

A tenant either submits a full :class:`~repro.plan.Program` + inputs, or
just a workload name with size knobs; :func:`build_workload` turns the
name into the same declarative programs the conformance matrix runs
(heat, wave, compute-intensive, variable-coefficient heat), so every
service job is also runnable solo through ``run_program`` for the
byte-identity differential.

``coeff-heat`` is the dedup workload: its ``kappa`` coefficient field is
proven read-only by the planner, and every job built with the same
``kappa_seed`` carries a byte-identical coefficient table — exactly the
shape the service's cross-job transfer dedup keys on.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..baselines.common import default_init
from ..baselines.plan_runners import coeff_heat_program, default_kappa
from ..errors import ServiceError
from ..kernels.compute_intensive import compute_intensive_kernel
from ..kernels.heat import heat_kernel
from ..kernels.wave import wave_kernel
from ..plan import Program
from ..tida.boundary import Dirichlet, Neumann

#: Catalog names `build_workload` accepts.
WORKLOADS = ("heat", "wave", "compute", "coeff-heat")


@dataclass(frozen=True)
class WorkloadSpec:
    """A buildable job: declarative program + initial data + knobs."""

    name: str
    prog: Program
    inputs: dict[str, np.ndarray]
    gather: str                       # field whose result defines the job output
    params: dict[str, Any] = field(default_factory=dict)


def _init(shape: tuple[int, ...], seed: int | None) -> np.ndarray:
    if seed is None:
        return default_init(shape, 0)
    rng = np.random.default_rng(seed)
    return rng.random(shape)


def build_workload(
    name: str,
    *,
    shape: tuple[int, ...] = (32, 16, 16),
    steps: int = 2,
    seed: int | None = None,
    coef: float = 0.1,
    c2: float = 0.25,
    kernel_iteration: int = 64,
    kappa_seed: int = 7,
) -> WorkloadSpec:
    """Instantiate a named workload at the given size.

    ``seed`` perturbs the initial condition (None = the shared Weyl
    sequence every baseline uses); ``kappa_seed`` pins the coefficient
    table of ``coeff-heat`` so equal seeds share bytes across tenants.
    """
    shape = tuple(int(s) for s in shape)
    prog, gather, params = _program(name, shape, steps, coef, c2,
                                    kernel_iteration, kappa_seed)
    return WorkloadSpec(name, prog, _inputs(name, shape, seed, kappa_seed),
                        gather, params)


#: Every :func:`build_workload` knob with its default: the keys are what
#: ``Service.submit(workload_kwargs=...)`` accepts.
KNOB_DEFAULTS = {
    p.name: p.default for p in inspect.signature(build_workload).parameters.values()
    if p.default is not inspect.Parameter.empty
}


def _integer(v: Any) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _finite(v: Any) -> bool:
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and math.isfinite(v))


#: knob -> (test a value must pass, what the error says it must be).
#: ``kernel_iteration`` is checked by ``compute_intensive_kernel``.
_KNOB_RULES = {
    "shape": (lambda v: isinstance(v, (tuple, list)) and len(v) > 0
              and all(_integer(n) and n >= 1 for n in v),
              "a non-empty tuple of integers >= 1"),
    "steps": (lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    "seed": (lambda v: v is None or (_integer(v) and v >= 0),
             "None or an integer >= 0"),
    "kappa_seed": (lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    "coef": (_finite, "a finite number"),
    "c2": (_finite, "a finite number"),
}


def check_knobs(knobs: dict[str, Any], *, tenant: str | None = None) -> None:
    """Raise :class:`ServiceError` naming the first knob whose value
    :func:`build_workload` would truncate, reject with a raw numpy error,
    or turn into NaN fields (unknown knob names are the caller's check)."""
    for name, value in knobs.items():
        rule = _KNOB_RULES.get(name)
        if rule is not None and not rule[0](value):
            raise ServiceError(
                f"workload knob {name!r} must be {rule[1]}, got {value!r}",
                tenant=tenant, reason="bad-submission",
            )


def workload_program(name: str, **knobs: Any) -> Program:
    """The program of ``build_workload(name, **knobs)``, built without its
    input arrays: what :meth:`~repro.service.Service.submit` plans and
    validates a queued job with."""
    k = {**KNOB_DEFAULTS, **knobs}
    return _program(name, tuple(int(s) for s in k["shape"]), k["steps"], k["coef"],
                    k["c2"], k["kernel_iteration"], k["kappa_seed"])[0]


def workload_inputs(name: str, **knobs: Any) -> dict[str, np.ndarray]:
    """The input arrays of ``build_workload(name, **knobs)``, built without
    its program: what a queued job gets at its first admission attempt."""
    k = {**KNOB_DEFAULTS, **knobs}
    return _inputs(name, tuple(int(s) for s in k["shape"]), k["seed"], k["kappa_seed"])


def _unknown(name: str) -> ServiceError:
    return ServiceError(
        f"unknown workload {name!r}; have {', '.join(WORKLOADS)}",
        reason="unknown-workload",
    )


def _program(name: str, shape: tuple[int, ...], steps: int, coef: float,
             c2: float, kernel_iteration: int,
             kappa_seed: int) -> tuple[Program, str, dict[str, Any]]:
    """(program, gather field, params) of a named workload."""
    if name == "heat":
        prog = Program(shape, bc=Neumann())
        with prog.sweep(steps):
            prog.step(heat_kernel(len(shape)), ("u_new", "u_old"),
                      params={"coef": coef})
            prog.swap("u_old", "u_new")
        return prog, "u_old", {"steps": steps, "coef": coef}
    if name == "wave":
        prog = Program(shape, bc=Dirichlet(0.0))
        with prog.sweep(steps):
            prog.step(wave_kernel(len(shape)), ("u_next", "u", "u_prev"),
                      params={"c2": c2})
            prog.swap("u_prev", "u")
            prog.swap("u", "u_next")
        return prog, "u", {"steps": steps, "c2": c2}
    if name == "compute":
        prog = Program(shape)
        with prog.sweep(steps):
            prog.step(compute_intensive_kernel(kernel_iteration), ("data",),
                      params={"kernel_iteration": kernel_iteration})
        return prog, "data", {"steps": steps, "kernel_iteration": kernel_iteration}
    if name == "coeff-heat":
        return (coeff_heat_program(shape, steps, coef=coef), "u_old",
                {"steps": steps, "coef": coef, "kappa_seed": kappa_seed})
    raise _unknown(name)


def _inputs(name: str, shape: tuple[int, ...], seed: int | None,
            kappa_seed: int) -> dict[str, np.ndarray]:
    """Initial field arrays of a named workload."""
    if name == "heat":
        init = _init(shape, seed)
        return {"u_old": init, "u_new": init}
    if name == "wave":
        init = _init(shape, seed)
        return {"u": init, "u_prev": init}
    if name == "compute":
        return {"data": _init(shape, seed)}
    if name == "coeff-heat":
        init = _init(shape, seed)
        return {"u_old": init, "u_new": init,
                "kappa": default_kappa(shape, seed=kappa_seed)}
    raise _unknown(name)
