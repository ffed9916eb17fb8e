"""Vector clocks over dynamically discovered timelines.

Timelines are hashable keys — ``("stream", runtime_id, stream_id)``,
``("host",)``, ``("engine", name)`` — so one clock spans every stream of
every device plus the host thread.  Ticks are assigned by the checker
(one global counter per timeline); the clock itself only stores and
merges them.

Storage is dense: a process-wide intern table gives every timeline a
small integer index in order of first appearance, and a clock is a
numpy ``int64`` array of ticks indexed by it.  A timeline past the end
of the array, or at tick 0, has not been seen.  The checker's keys are
already dense (per-checker runtime aliases × per-runtime stream ids),
so the arrays stay as short as the number of streams a session created,
and :meth:`VectorClock.join` is one ``np.maximum`` over the common
prefix plus a copy of the longer tail instead of a Python loop over
every stream the session ever ticked.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

Timeline = Hashable

#: Timeline -> array index, shared by every clock in the process.  Only
#: positions depend on it, never a result, and it stays small: checkers
#: alias runtimes densely and every runtime numbers its streams from 1,
#: so runs in one process keep meeting the same keys.
_INDEX: dict[Timeline, int] = {}
#: Index -> timeline (the inverse of ``_INDEX``).
_TIMELINES: list[Timeline] = []

_EMPTY = np.zeros(0, dtype=np.int64)

_new = object.__new__


def _intern(tid: Timeline) -> int:
    i = _INDEX.get(tid)
    if i is None:
        i = _INDEX[tid] = len(_TIMELINES)
        _TIMELINES.append(tid)
    return i


class VectorClock:
    """A mapping ``timeline -> last-seen tick`` with join/covers."""

    __slots__ = ("_a",)

    def __init__(self, clocks: dict[Timeline, int] | None = None) -> None:
        # the shared empty array is never written: set() and join() grow
        # a clock into a fresh array before writing past its end
        self._a: np.ndarray = _EMPTY
        if clocks:
            for tid, tick in clocks.items():
                self.set(tid, tick)

    def copy(self) -> "VectorClock":
        vc = _new(VectorClock)
        vc._a = self._a.copy()
        return vc

    def get(self, tid: Timeline) -> int:
        i = _INDEX.get(tid)
        a = self._a
        return a.item(i) if i is not None and i < len(a) else 0

    def set(self, tid: Timeline, tick: int) -> None:
        i = _intern(tid)
        a = self._a
        if i >= len(a):
            if tick <= 0:
                return
            grown = np.zeros(i + 1, dtype=np.int64)
            grown[:len(a)] = a
            self._a = a = grown
        if tick > a.item(i):
            a[i] = tick

    def join(self, other: "VectorClock | None") -> "VectorClock":
        """Pointwise maximum, in place; returns self for chaining."""
        if other is not None:
            a, b = self._a, other._a
            n, m = len(a), len(b)
            if n == m:
                # a new array costs less than writing into this one
                self._a = np.maximum(a, b)
            elif n > m:
                head = a[:m]
                np.maximum(head, b, out=head)
            elif n:
                grown = b.copy()
                head = grown[:n]
                np.maximum(head, a, out=head)
                self._a = grown
            else:
                self._a = b.copy()
        return self

    @staticmethod
    def joined(clocks: Sequence["VectorClock"],
               epochs: Iterable[tuple[Timeline, int]] = ()) -> "VectorClock":
        """A new clock: the join of ``clocks`` (at least one), then each
        ``(timeline, tick)`` of ``epochs`` set.

        One ``np.maximum`` per clock after the first, into an array of the
        result's own (no copy of the first clock when there are several),
        and the ticks written by index.
        """
        out = clocks[0]._a
        owned = False
        for c in clocks:
            b = c._a
            if b is out:
                continue
            n, m = len(out), len(b)
            if n == m:
                if owned:
                    np.maximum(out, b, out=out)
                else:
                    out = np.maximum(out, b)
                    owned = True
            elif n > m:
                if not owned:
                    out = out.copy()
                    owned = True
                head = out[:m]
                np.maximum(head, b, out=head)
            else:
                grown = b.copy()
                head = grown[:n]
                np.maximum(head, out, out=head)
                out = grown
                owned = True
        if not owned:
            out = out.copy()
        for tid, tick in epochs:
            i = _INDEX.get(tid)
            if i is None:
                i = _intern(tid)
            if i >= len(out):
                if tick <= 0:
                    continue
                grown = np.zeros(i + 1, dtype=np.int64)
                grown[:len(out)] = out
                out = grown
            if tick > out.item(i):
                out[i] = tick
        vc = _new(VectorClock)
        vc._a = out
        return vc

    def covers(self, tid: Timeline, tick: int) -> bool:
        """True when this clock has seen ``tid`` up to (and incl.) ``tick``."""
        return self.get(tid) >= tick

    def covers_any(self, epochs: Iterable[tuple[Timeline, int]]) -> bool:
        """True when any of an event's (timeline, tick) epochs is covered.

        An event that ticked several timelines (a peer copy ticks both
        devices' streams) is one event: seeing it on either timeline means
        it happened-before the observer.  A tick of 0 or less is covered
        by every clock.
        """
        a = self._a
        n = len(a)
        for tid, tick in epochs:
            if tick <= 0:
                return True
            i = _INDEX.get(tid)
            if i is not None and i < n and a.item(i) >= tick:
                return True
        return False

    def __len__(self) -> int:
        return int(np.count_nonzero(self._a))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        a, b = self._a, other._a
        if len(a) < len(b):
            a, b = b, a
        return bool(np.array_equal(a[:len(b)], b)) and not a[len(b):].any()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = [(_TIMELINES[i], t) for i, t in enumerate(self._a.tolist()) if t]
        inner = ", ".join(f"{tid}:{tick}" for tid, tick in sorted(items, key=repr))
        return f"VC({inner})"
