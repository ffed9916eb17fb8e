"""Deterministic fault plans: what fails, when, and how.

A :class:`FaultPlan` is a seedable list of :class:`FaultRule` entries
evaluated by the simulated CUDA runtime at every injectable call site
(``memcpy_async``, ``launch``, ``malloc``, stream/device synchronize).
Rules express the chaos-testing vocabulary the scheduler must survive:

* *"fail the 3rd H2D on field u"* — ``FaultRule(op="h2d", field="u", nth=3)``;
* *"ECC error on any launch with p = 0.01"* — ``FaultRule(op="launch", p=0.01)``;
* *"OOM spike of N bytes from t = 2 s"* —
  ``FaultRule(op="malloc", kind="pressure", oom_bytes=N, after_t=2.0)``;
* *"stream hang for S seconds"* —
  ``FaultRule(op="sync", kind="hang", hang_seconds=S, nth=1)``.

Determinism is the whole point: one ``random.Random(seed)`` is consumed
in call order, so a fixed seed plus a fixed operation sequence replays
the exact same failures — the property the byte-identical recovery
tests rely on.  First matching rule wins per call; a rule only fires
while its virtual-time window ``[after_t, until_t)`` is open.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import (
    CudaEccUncorrectableError,
    CudaError,
    CudaInvalidValueError,
    CudaMemoryAllocationError,
    CudaTransferError,
    FaultPlanError,
)

#: Injectable call sites, as the runtime names them.
OPS = ("h2d", "d2h", "launch", "malloc", "sync")

#: ``op="copy"`` matches both transfer directions; ``"*"`` matches everything.
_OP_GROUPS = {"copy": ("h2d", "d2h"), "*": OPS}

#: Error spellings a rule may request, and the per-op defaults.
ERROR_CLASSES: dict[str, type[CudaError]] = {
    "transfer": CudaTransferError,
    "ecc": CudaEccUncorrectableError,
    "oom": CudaMemoryAllocationError,
    "invalid": CudaInvalidValueError,
}
_DEFAULT_ERROR = {
    "h2d": "transfer",
    "d2h": "transfer",
    "launch": "ecc",
    "malloc": "oom",
    "sync": "transfer",
}


def _real(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class FaultRule:
    """One injection rule.  See the module docstring for the vocabulary.

    ``nth`` fires on the nth matching call only (and caps the rule at one
    fire); ``p`` fires per matching call with the plan's seeded RNG; a
    rule with neither fires on *every* match (bounded by ``max_fires``).
    """

    op: str = "*"                    # "h2d"|"d2h"|"copy"|"launch"|"malloc"|"sync"|"*"
    field: str | None = None         # substring of the operation label
    nth: int | None = None           # fire on the nth matching call (1-based)
    p: float | None = None           # per-match fire probability
    after_t: float = 0.0             # virtual-time window [after_t, until_t)
    until_t: float = math.inf
    kind: str = "error"              # "error" | "hang" | "pressure"
    error: str | None = None         # ERROR_CLASSES key (default depends on op)
    hang_seconds: float = 0.0        # for kind="hang"
    oom_bytes: int = 0               # for kind="pressure" (op="malloc")
    max_fires: int | None = None     # total fire cap (None = unlimited)

    def __post_init__(self) -> None:
        if self.op not in OPS and self.op not in _OP_GROUPS:
            raise FaultPlanError(
                f"unknown op {self.op!r}; expected one of {OPS + tuple(_OP_GROUPS)}"
            )
        if self.kind not in ("error", "hang", "pressure"):
            raise FaultPlanError(f"unknown rule kind {self.kind!r}")
        # a string or a fraction where a count belongs would escape as a
        # raw TypeError below, or silently never fire
        for name, value, integer, optional in (
            ("nth", self.nth, True, True), ("p", self.p, False, True),
            ("after_t", self.after_t, False, False),
            ("until_t", self.until_t, False, False),
            ("hang_seconds", self.hang_seconds, False, False),
            ("oom_bytes", self.oom_bytes, True, False),
            ("max_fires", self.max_fires, True, True),
        ):
            if optional and value is None:
                continue
            if not (_integer(value) if integer else _real(value)):
                raise FaultPlanError(
                    f"{name} must be {'an integer' if integer else 'a real number'}"
                    f"{' or None' if optional else ''}, got {value!r}"
                )
        if self.nth is not None and self.nth < 1:
            raise FaultPlanError(f"nth is 1-based, got {self.nth}")
        if self.max_fires is not None and self.max_fires < 1:
            raise FaultPlanError(f"max_fires must be >= 1 or None, got {self.max_fires}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise FaultPlanError(f"p must be in [0, 1], got {self.p}")
        if self.nth is not None and self.p is not None:
            raise FaultPlanError("nth and p are mutually exclusive")
        # a NaN window never opens and an infinite hang stalls the clock:
        # a rule that cannot fire as written is refused here, not mid-run
        if not math.isfinite(self.after_t):
            raise FaultPlanError(f"after_t must be finite, got {self.after_t!r}")
        if math.isnan(self.until_t):
            raise FaultPlanError(f"until_t must not be NaN, got {self.until_t!r}")
        if not math.isfinite(self.hang_seconds):
            raise FaultPlanError(f"hang_seconds must be finite, got {self.hang_seconds!r}")
        if self.until_t <= self.after_t:
            raise FaultPlanError(
                f"empty time window [after_t={self.after_t}, until_t={self.until_t})"
            )
        if self.error is not None and self.error not in ERROR_CLASSES:
            raise FaultPlanError(
                f"unknown error {self.error!r}; have {sorted(ERROR_CLASSES)}"
            )
        if self.kind == "hang" and self.hang_seconds <= 0:
            raise FaultPlanError("hang rules need hang_seconds > 0")
        if self.kind == "pressure":
            if self.oom_bytes <= 0:
                raise FaultPlanError("pressure rules need oom_bytes > 0")
            if self.op not in ("malloc", "*"):
                raise FaultPlanError("pressure rules apply to op='malloc'")
        if self.max_fires is None and self.nth is not None:
            self.max_fires = 1

    def matches_op(self, op: str) -> bool:
        return op == self.op or op in _OP_GROUPS.get(self.op, ())

    def in_window(self, now: float) -> bool:
        return self.after_t <= now < self.until_t

    def error_class(self, op: str) -> type[CudaError]:
        return ERROR_CLASSES[self.error or _DEFAULT_ERROR[op]]


@dataclass(frozen=True)
class Injection:
    """One fired rule, handed back to the runtime call site."""

    rule: FaultRule
    rule_index: int
    op: str
    label: str

    @property
    def kind(self) -> str:
        return self.rule.kind

    @property
    def hang_seconds(self) -> float:
        return self.rule.hang_seconds

    def make_error(self) -> CudaError:
        cls = self.rule.error_class(self.op)
        return cls(
            f"injected fault (rule #{self.rule_index}: {self.op} on "
            f"{self.label or '<unlabelled>'})"
        )


class FaultPlan:
    """A seeded, deterministic schedule of failures.

    The runtime calls :meth:`draw` once per injectable operation;
    :meth:`memory_pressure` adds the active ``pressure`` rules' bytes to
    every allocation check.  :meth:`suspended` turns the plan off for a
    scope — the resilience layer uses it for the emergency
    flush-to-host, which must not itself be sabotaged.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), *, seed: int = 0) -> None:
        self.rules = list(rules)
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise FaultPlanError(f"not a FaultRule: {rule!r}")
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._matches = [0] * len(self.rules)
        self._fires = [0] * len(self.rules)
        self._suspended = 0

    def reset(self) -> None:
        """Rewind the plan to its initial state (fresh RNG and counters)."""
        self._rng = random.Random(self.seed)
        self._matches = [0] * len(self.rules)
        self._fires = [0] * len(self.rules)

    @property
    def fired(self) -> int:
        """Total injections delivered so far (hangs included)."""
        return sum(self._fires)

    @contextlib.contextmanager
    def suspended(self) -> Iterator[None]:
        """No rule fires (and no RNG draw happens) inside this scope."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def draw(self, op: str, label: str, now: float) -> Injection | None:
        """Evaluate the plan for one operation; first firing rule wins."""
        if self._suspended:
            return None
        for i, rule in enumerate(self.rules):
            if rule.kind == "pressure":
                continue
            if not rule.matches_op(op) or not rule.in_window(now):
                continue
            if rule.field is not None and rule.field not in label:
                continue
            self._matches[i] += 1
            if rule.max_fires is not None and self._fires[i] >= rule.max_fires:
                continue
            if rule.nth is not None:
                if self._matches[i] != rule.nth:
                    continue
            elif rule.p is not None:
                if self._rng.random() >= rule.p:
                    continue
            self._fires[i] += 1
            return Injection(rule=rule, rule_index=i, op=op, label=label)
        return None

    def memory_pressure(self, now: float) -> int:
        """Extra bytes the active OOM-spike rules subtract from free memory."""
        if self._suspended:
            return 0
        return sum(
            r.oom_bytes for r in self.rules
            if r.kind == "pressure" and r.in_window(now)
        )

    # -- spec strings --------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact plan spec (the harness/CI knob).

        Semicolon-separated clauses, each ``op[:key=value,...]``, plus an
        optional ``seed=N`` clause::

            h2d:field=u,nth=3; launch:p=0.01; malloc:oom=1048576,after=0.5;
            sync:hang=0.002,nth=1; seed=42

        Keys: ``field``, ``nth``, ``p``, ``after``/``until`` (seconds),
        ``error``, ``hang`` (seconds, implies ``kind="hang"``), ``oom``
        (bytes, implies ``kind="pressure"``), ``max_fires``.  Raises
        :class:`~repro.errors.FaultPlanError` naming what it cannot parse
        or honour.
        """
        if not isinstance(spec, str):
            raise FaultPlanError(f"spec must be a string, got {spec!r}")
        rules: list[FaultRule] = []
        seed = 0
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[len("seed="):])
                except ValueError:
                    raise FaultPlanError(f"bad seed clause {clause!r}") from None
                continue
            op, _, body = clause.partition(":")
            kwargs: dict[str, object] = {"op": op.strip()}
            for item in filter(None, (s.strip() for s in body.split(","))):
                key, sep, value = item.partition("=")
                if not sep:
                    raise FaultPlanError(f"bad rule item {item!r} in {clause!r}")
                key = key.strip()
                value = value.strip()
                try:
                    if key in ("nth", "max_fires"):
                        kwargs[key] = int(value)
                    elif key == "p":
                        kwargs["p"] = float(value)
                    elif key == "after":
                        kwargs["after_t"] = float(value)
                    elif key == "until":
                        kwargs["until_t"] = float(value)
                    elif key == "hang":
                        kwargs["kind"] = "hang"
                        kwargs["hang_seconds"] = float(value)
                    elif key == "oom":
                        kwargs["kind"] = "pressure"
                        kwargs["oom_bytes"] = int(value)
                    elif key in ("field", "error"):
                        kwargs[key] = value
                    else:
                        raise FaultPlanError(
                            f"unknown rule key {key!r} in {clause!r}"
                        )
                except ValueError:
                    raise FaultPlanError(
                        f"bad value {value!r} for {key!r} in {clause!r}"
                    ) from None
            rules.append(FaultRule(**kwargs))  # type: ignore[arg-type]
        return cls(rules, seed=seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({len(self.rules)} rules, seed={self.seed}, fired={self.fired})"
