"""Retry policies: virtual-clock exponential backoff with seeded jitter.

The resilience layer re-issues a failed operation after waiting
``backoff * multiplier**(attempt-1)`` seconds of *virtual* time (capped
at ``max_backoff``), stretched by deterministic jitter.  Jitter is
derived statelessly from ``(jitter_seed, key, attempt)`` — not from a
shared RNG — so two runs with the same seed produce identical backoff
sequences regardless of how retries from different fields interleave.
:func:`with_retry` is the one loop that applies a policy, to slot
transfers and kernel launches alike.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Hashable, Sequence

from ..errors import (
    CudaEccUncorrectableError,
    CudaTransferError,
    FaultError,
    FaultPlanError,
)

#: Errors the resilience layer treats as transient (retryable).  OOM is
#: deliberately absent: allocation failure is handled by slot-pool
#: degradation, not blind re-issue.
TRANSIENT_ERRORS = (CudaTransferError, CudaEccUncorrectableError)


def _unit_fraction(parts: Sequence[Hashable]) -> float:
    """A deterministic value in [0, 1) derived from ``parts``."""
    digest = hashlib.blake2b(
        repr(tuple(parts)).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class RetryPolicy:
    """How many times to retry, and how long to back off in between.

    Parameters
    ----------
    max_attempts:
        Total attempts per operation (1 = no retry).
    backoff:
        Virtual seconds before the first retry.
    multiplier:
        Exponential growth factor per further retry.
    max_backoff:
        Cap on a single backoff wait.
    jitter:
        Fractional spread: each wait is stretched by up to ``jitter``
        (0 disables jitter entirely).
    jitter_seed:
        Seed for the deterministic jitter derivation.
    """

    __slots__ = ("max_attempts", "backoff", "multiplier", "max_backoff",
                 "jitter", "jitter_seed")

    def __init__(
        self,
        max_attempts: int = 4,
        *,
        backoff: float = 1e-3,
        multiplier: float = 2.0,
        max_backoff: float = 0.5,
        jitter: float = 0.25,
        jitter_seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise FaultPlanError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff < 0 or max_backoff < 0:
            raise FaultPlanError("backoff times must be >= 0")
        if multiplier < 1.0:
            raise FaultPlanError(f"multiplier must be >= 1, got {multiplier}")
        if not 0.0 <= jitter <= 1.0:
            raise FaultPlanError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = int(max_attempts)
        self.backoff = float(backoff)
        self.multiplier = float(multiplier)
        self.max_backoff = float(max_backoff)
        self.jitter = float(jitter)
        self.jitter_seed = int(jitter_seed)

    def delay(self, attempt: int, *, key: Sequence[Hashable] = ()) -> float:
        """Backoff before retry number ``attempt`` (1-based).

        ``key`` identifies the retrying operation (field, op, region) so
        concurrent retry chains get independent — but reproducible —
        jitter.
        """
        if attempt < 1:
            raise FaultPlanError(f"attempt is 1-based, got {attempt}")
        base = min(self.backoff * self.multiplier ** (attempt - 1), self.max_backoff)
        if self.jitter == 0.0 or base == 0.0:
            return base
        u = _unit_fraction((self.jitter_seed, *key, attempt))
        return base * (1.0 + self.jitter * u)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, backoff={self.backoff}, "
            f"multiplier={self.multiplier}, jitter_seed={self.jitter_seed})"
        )


def with_retry(runtime: Any, policy: RetryPolicy, issue: Callable[[], float], *,
               owner: tuple[str, str], op: str, rid: int,
               rescue: Callable[[], None], what: str) -> float:
    """Run ``issue`` on ``runtime``, re-issuing it after a virtual-clock
    backoff keyed on ``(name, op, rid)`` whenever a transient fault hits.

    ``owner`` is ``("field" | "kernel", name)``: it leads the args of
    every ``fault-retry``/``fault-recovered`` mark and names the
    ``faults.retries.<name>``/``faults.recovered.<name>`` counters.
    Exhaustion calls ``rescue`` (flush what survives to the host),
    reports the incident and raises :class:`~repro.errors.FaultError`
    (message opening with ``what``) from the last underlying error.
    """
    key, name = owner
    m = runtime.metrics
    last: Exception | None = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            result = issue()
        except TRANSIENT_ERRORS as exc:
            last = exc
            if attempt == policy.max_attempts:
                break
            m.inc("faults.retries")
            m.inc(f"faults.retries.{name}")
            wait = policy.delay(attempt, key=(name, op, rid))
            runtime.trace.mark("fault-retry", runtime.now, **{key: name}, op=op,
                               region=rid, attempt=attempt, backoff=wait)
            runtime.clock.advance(wait)
            continue
        if last is not None:
            m.inc("faults.recovered")
            m.inc(f"faults.recovered.{name}")
            runtime.trace.mark("fault-recovered", runtime.now, **{key: name},
                               op=op, region=rid, attempts=attempt)
        return result
    rescue()
    err = FaultError(
        f"{what} failed after {policy.max_attempts} attempts",
        op=op, field=name, region=rid, attempts=policy.max_attempts,
    )
    runtime.notify_incident("fault", err)
    raise err from last
