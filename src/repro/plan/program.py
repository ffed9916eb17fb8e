"""The declarative ``Program`` front-end (the §V contract, completed).

A :class:`Program` is an ordered list of statements over *named fields*
— no regions, ghost widths, slots, or streams anywhere:

>>> from repro.plan import Program
>>> from repro.kernels import heat_kernel
>>> prog = Program((64, 64))
>>> with prog.sweep(10):
...     prog.step(heat_kernel(2), ("u_new", "u_old"), params={"coef": 0.1})
...     prog.swap("u_old", "u_new")

The planner (:func:`repro.plan.plan_program`) turns the declarations —
each kernel's ``arg_access`` + ``footprint`` — into a full decomposition
(ghost widths, region count, slot counts, eviction, prefetch), and
:meth:`repro.core.library.TidaAcc.run_program` executes it, eliding the
halo exchanges and write-backs the access sets prove redundant.

Statement kinds
---------------

* :class:`Step` — apply a kernel over co-iterated fields;
* :class:`Swap` — exchange two fields (time-level rotation);
* :class:`Reduce` — reduce field(s) to a scalar, stored in the run's
  scalar environment under ``store``;
* :class:`Scalar` — compute a host scalar from the environment
  (``fn(env) -> float``); in timing mode ``fn`` is skipped and the
  declared ``timing`` fallback is used, keeping timing runs arrayless;
* :class:`Loop` — repeat a statement block ``count`` times, with an
  optional ``until(env) -> bool`` early exit (functional mode only, by
  the same rule).

Kernel params may reference environment scalars with :func:`ref`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..cuda.kernel import KernelSpec
from ..errors import PlanError
from ..tida.boundary import BoundaryCondition


@dataclass(frozen=True)
class ScalarRef:
    """A kernel-param placeholder resolved from the run's scalar env."""

    name: str


def ref(name: str) -> ScalarRef:
    """Reference a scalar (a ``Reduce``/``Scalar`` result) in kernel params."""
    return ScalarRef(name)


@dataclass(frozen=True)
class Step:
    """Apply ``kernel`` over ``fields``, co-iterated tile by tile."""

    kernel: KernelSpec
    fields: tuple[str, ...]
    params: dict[str, Any] = field(default_factory=dict)
    bc: BoundaryCondition | None = None
    gpu: bool = True


@dataclass(frozen=True)
class Swap:
    """Exchange two fields (old/new time levels) without moving data."""

    a: str
    b: str


@dataclass(frozen=True)
class Reduce:
    """Reduce field(s) with a ReductionSpec; result lands in env[store]."""

    spec: Any
    fields: tuple[str, ...]
    store: str
    params: dict[str, Any] = field(default_factory=dict)
    gpu: bool = True


@dataclass(frozen=True)
class Scalar:
    """Host-side scalar update: ``env[name] = fn(env)``.

    ``fn`` needs numeric reduction results, so timing-only runs skip it
    and use the ``timing`` fallback value instead — mirroring how the
    hand-built drivers pin ``alpha = 1.0`` when there are no numerics.
    """

    name: str
    fn: Callable[[dict[str, float]], float]
    timing: float = 1.0


@dataclass(frozen=True)
class Loop:
    """Repeat ``body`` up to ``count`` times.

    ``until(env) -> bool`` is evaluated before each trip (functional
    mode only) and breaks the loop when true.
    """

    count: int
    body: tuple[Any, ...]
    until: Callable[[dict[str, float]], bool] | None = None


Statement = Any  # Step | Swap | Reduce | Scalar | Loop


class Program:
    """An ordered, declarative workload over named fields.

    ``domain`` is the global interior shape shared by every field;
    ``bc`` is the default boundary condition for steps that need a
    halo exchange (a per-step ``bc=`` overrides it).
    """

    def __init__(
        self,
        domain: tuple[int, ...],
        *,
        dtype: Any = np.float64,
        bc: BoundaryCondition | None = None,
    ) -> None:
        self.domain = tuple(int(s) for s in domain)
        if not self.domain or any(s <= 0 for s in self.domain):
            raise PlanError(f"domain must have positive extents, got {domain!r}")
        self.dtype = np.dtype(dtype)
        self.bc = bc
        self._stmts: list[Statement] = []
        self._stack: list[list[Statement]] = [self._stmts]

    # -- builders ----------------------------------------------------------

    def _append(self, stmt: Statement) -> "Program":
        self._stack[-1].append(stmt)
        return self

    @staticmethod
    def _field_tuple(fields: Any, what: str) -> tuple[str, ...]:
        if isinstance(fields, str):
            fields = (fields,)
        out = tuple(fields)
        if not out or not all(isinstance(f, str) and f for f in out):
            raise PlanError(f"{what} needs non-empty field names, got {fields!r}")
        return out

    def step(
        self,
        kernel: KernelSpec,
        fields: str | tuple[str, ...],
        *,
        params: dict[str, Any] | None = None,
        bc: BoundaryCondition | None = None,
        gpu: bool = True,
    ) -> "Program":
        """Apply ``kernel`` to ``fields`` (in the body's argument order)."""
        if not isinstance(kernel, KernelSpec):
            raise PlanError(f"step needs a KernelSpec, got {type(kernel).__name__}")
        names = self._field_tuple(fields, f"step({kernel.name!r})")
        for decl_name, decl in (("arg_access", kernel.arg_access),
                                ("footprint", kernel.footprint)):
            if decl is not None and len(decl) > len(names):
                raise PlanError(
                    f"step({kernel.name!r}) passes {len(names)} fields but the "
                    f"kernel declares {decl_name} for {len(decl)} arguments"
                )
        return self._append(Step(
            kernel=kernel, fields=names, params=dict(params or {}),
            bc=bc, gpu=gpu,
        ))

    def swap(self, a: str, b: str) -> "Program":
        """Exchange two fields (time-level rotation)."""
        if not (isinstance(a, str) and isinstance(b, str)) or a == b:
            raise PlanError(f"swap needs two distinct field names, got {a!r}, {b!r}")
        return self._append(Swap(a, b))

    def reduce(
        self,
        spec: Any,
        fields: str | tuple[str, ...],
        *,
        store: str,
        params: dict[str, Any] | None = None,
        gpu: bool = True,
    ) -> "Program":
        """Reduce field(s); the folded scalar lands in the env as ``store``."""
        names = self._field_tuple(fields, f"reduce({store!r})")
        if not isinstance(store, str) or not store:
            raise PlanError(f"reduce needs a non-empty store name, got {store!r}")
        return self._append(Reduce(
            spec=spec, fields=names, store=store, params=dict(params or {}),
            gpu=gpu,
        ))

    def scalar(
        self,
        name: str,
        fn: Callable[[dict[str, float]], float],
        *,
        timing: float = 1.0,
    ) -> "Program":
        """Host scalar update ``env[name] = fn(env)`` (timing fallback given)."""
        if not isinstance(name, str) or not name:
            raise PlanError(f"scalar needs a non-empty name, got {name!r}")
        if not callable(fn):
            raise PlanError("scalar needs a callable fn(env) -> float")
        return self._append(Scalar(name=name, fn=fn, timing=float(timing)))

    @contextmanager
    def sweep(
        self,
        count: int,
        *,
        until: Callable[[dict[str, float]], bool] | None = None,
    ) -> Iterator["Program"]:
        """Group the statements built inside the ``with`` into a Loop."""
        count = int(count)
        if count < 0:
            raise PlanError(f"sweep count must be >= 0, got {count}")
        body: list[Statement] = []
        self._stack.append(body)
        try:
            yield self
        finally:
            popped = self._stack.pop()
            assert popped is body
            self._append(Loop(count=count, body=tuple(body), until=until))

    # -- introspection -----------------------------------------------------

    @property
    def statements(self) -> tuple[Statement, ...]:
        if len(self._stack) != 1:
            raise PlanError("program read inside an open sweep() block")
        return tuple(self._stmts)

    def walk(self) -> Iterator[Statement]:
        """Every statement, loops flattened (each loop body yielded once)."""
        return _flattened(self.statements)

    def field_names(self) -> tuple[str, ...]:
        """All field names, in order of first appearance."""
        seen: dict[str, None] = {}
        for s in self.walk():
            if isinstance(s, Step) or isinstance(s, Reduce):
                for f in s.fields:
                    seen.setdefault(f)
            elif isinstance(s, Swap):
                seen.setdefault(s.a)
                seen.setdefault(s.b)
        return tuple(seen)

    def validate(self) -> None:
        """Cross-statement consistency (swaps of undeclared fields, etc.)."""
        declared = set()
        for s in self.walk():
            if isinstance(s, (Step, Reduce)):
                declared.update(s.fields)
        for s in self.walk():
            if isinstance(s, Swap):
                missing = {s.a, s.b} - declared
                if missing:
                    raise PlanError(
                        f"swap({s.a!r}, {s.b!r}) references field(s) "
                        f"{sorted(missing)} no step or reduce ever touches"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program(domain={self.domain}, fields={list(self.field_names())}, "
            f"statements={len(self._stmts)})"
        )


def _flattened(stmts: tuple[Statement, ...]) -> Iterator[Statement]:
    # recursive at module level, not as a closure over itself: a walk
    # leaves no function <-> cell cycle for the cyclic collector
    for s in stmts:
        yield s
        if isinstance(s, Loop):
            yield from _flattened(s.body)
