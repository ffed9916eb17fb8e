"""Interval unions: the one merge behind every busy-time and overlap number.

Lane busy time, copy/compute overlap, the hybrid ghost exchange's hidden
index time, the telemetry bus's windowed activity, pipeline stalls and
the critical-path overlap report all measure a union of closed spans or
the intersection of two; all build on :class:`IntervalUnion`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable

#: ``sum()`` of floats is compensated (Neumaier) from Python 3.12 on and
#: a plain left-to-right fold before.  The running totals of
#: :class:`IntervalUnion` replay whichever the builtin does, so a total read
#: incrementally equals ``sum()`` over the from-scratch merge bit for bit.
COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 2.0


class IntervalUnion:
    """The union of closed intervals as sorted, merged pieces (touching
    ones joined, exactly what a from-scratch sort-and-merge builds), with
    the running state of summing their lengths left to right.

    ``spans`` are merged in at construction.  ``start`` and
    ``compensated`` pick the fold: ``(0, COMPENSATED_SUM)`` is the
    builtin ``sum()``, ``(0.0, False)`` a plain ``total += x``.
    """

    __slots__ = ("lo", "hi", "_acc", "_stale", "_compensated")

    def __init__(self, spans: Iterable[tuple[float, float]] = (), *,
                 start: float = 0, compensated: bool = COMPENSATED_SUM) -> None:
        self.lo: list[float] = []
        self.hi: list[float] = []
        # _acc[k]: the fold's (total, compensation) state after k pieces
        self._acc: list[tuple[float, float]] = [(start, 0.0)]
        self._stale = 0   # first piece whose running state must be redone
        self._compensated = compensated
        # one sort and one merge pass: the pieces adding each span in
        # turn would build, for a fraction of the bisects and inserts
        lo, hi = self.lo, self.hi
        for a, b in sorted(spans):
            if hi and a <= hi[-1]:
                if b > hi[-1]:
                    hi[-1] = b
            else:
                lo.append(a)
                hi.append(b)

    def add(self, a: float, b: float) -> float:
        """Merge ``[a, b]`` in; returns the start of the piece it landed in
        (every piece starting before it is unchanged)."""
        lo, hi = self.lo, self.hi
        i = bisect_left(hi, a)
        j = bisect_right(lo, b, i)
        # runs once per trace event: explicit compares (which, like
        # min/max, keep the new span's bound on a tie) and in-place writes
        # take half the time of builtin min()/max() and slice assignment
        if i == j:
            lo.insert(i, a)
            hi.insert(i, b)
        else:
            if lo[i] < a:
                a = lo[i]
            if hi[j - 1] > b:
                b = hi[j - 1]
            if j == i + 1:
                lo[i] = a
                hi[i] = b
            else:
                lo[i:j] = [a]
                hi[i:j] = [b]
        if i < self._stale:
            self._stale = i
        return a

    def replace_from(self, x: float, pieces: list[tuple[float, float]]) -> None:
        """Drop the pieces starting at or after ``x``; append ``pieces``."""
        k = bisect_left(self.lo, x)
        del self.lo[k:], self.hi[k:]
        for a, b in pieces:
            self.lo.append(a)
            self.hi.append(b)
        self._stale = min(self._stale, k)

    def _step(self, state: tuple[float, float], x: float) -> tuple[float, float]:
        s, c = state
        t = s + x
        if self._compensated:
            c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        return t, c

    def total(self, t: float = math.inf) -> float:
        """Summed length of the union clipped to ``(-inf, t]``."""
        acc, k = self._acc, self._stale
        del acc[k + 1:]
        for a, b in zip(self.lo[k:], self.hi[k:]):
            acc.append(self._step(acc[-1], b - a))
        self._stale = len(self.lo)
        k = bisect_left(self.lo, t)
        if not k:
            return acc[0][0]
        s, c = self._step(acc[k - 1], min(self.hi[k - 1], t) - self.lo[k - 1])
        return s + c if c else s


def intersection(p: IntervalUnion, q: IntervalUnion,
                 x: float = -math.inf) -> list[tuple[float, float]]:
    """The positive-length pieces of ``p ∩ q`` in time order, from the
    first spans of each that end after ``x`` on; when no piece of ``p``
    or of ``q`` straddles ``x``, these are exactly the pieces starting at
    or after it."""
    out = []
    i, j = bisect_right(p.hi, x), bisect_right(q.hi, x)
    while i < len(p.lo) and j < len(q.lo):
        lo = max(p.lo[i], q.lo[j])
        hi = min(p.hi[i], q.hi[j])
        if hi > lo:
            out.append((lo, hi))
        if p.hi[i] <= q.hi[j]:
            i += 1
        else:
            j += 1
    return out
