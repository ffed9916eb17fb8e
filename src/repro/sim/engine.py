"""Virtual clock and FIFO hardware engines.

The runtime models time the way CUDA hardware schedules work:

* the **host clock** advances as the host thread executes API calls
  (every runtime call costs :attr:`CpuSpec.api_call_overhead`) and jumps
  forward when the host blocks in a synchronize call;
* each hardware **engine** (the compute engine and the two DMA copy
  engines on a K40m) is a FIFO queue: operations start no earlier than
  both their *ready time* (all dependencies satisfied) and the completion
  of the previously queued operation on the same engine.

This matches real CUDA behaviour: commands are pushed to hardware queues
in issue order, an engine executes one command at a time, and a command
that is issued early but not yet ready blocks later commands on the same
engine (the classic false-serialization pitfall the paper's one-stream-
per-slot design avoids).

The model is deterministic: because engines are FIFO in issue order,
each operation's start/end can be computed greedily at submission time.
What *does* need a calendar is the backlog accounting (how many issued
operations are still in flight per engine and per stream, sampled into
Perfetto counter tracks on every issue): the :class:`EventCalendar` is a
single binary heap of pending completion events with stable sequence
tie-breaks, giving O(log n) per operation instead of per-key scans.
"""

from __future__ import annotations

import heapq

from ..errors import SimulationError

_INF = float("inf")


class HostClock:
    """The host thread's position in virtual time.

    Observers (the telemetry bus) may subscribe to time movement; the
    listener list is usually empty, so the hot path pays one truthiness
    check per advancement and nothing else.
    """

    __slots__ = ("_now", "_listeners")

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)
        self._listeners: list = []

    @property
    def now(self) -> float:
        return self._now

    def subscribe(self, listener) -> None:
        """Register ``listener(now)`` to be called after time moves forward."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def advance(self, dt: float) -> float:
        """Spend ``dt`` seconds of host time (API call, host compute)."""
        if not 0 <= dt < _INF:  # also rejects NaN
            raise SimulationError(f"clock advance must be finite and >= 0, got {dt!r}")
        self._now += dt
        if self._listeners and dt > 0:
            # snapshot: a listener may subscribe/unsubscribe during fan-out
            # (a telemetry subscriber detaching itself on an alert) and must
            # not mutate the list we are iterating
            for listener in tuple(self._listeners):
                listener(self._now)
        return self._now

    def advance_to(self, t: float) -> float:
        """Block the host until virtual time ``t`` (no-op if already past)."""
        if not -_INF < t < _INF:  # also rejects NaN
            raise SimulationError(f"clock target must be finite, got {t!r}")
        if t > self._now:
            self._now = t
            if self._listeners:
                for listener in tuple(self._listeners):
                    listener(self._now)
        return self._now


class FifoEngine:
    """One hardware execution engine (compute, H2D copy, or D2H copy).

    Operations submitted to the engine run back-to-back in submission
    order.  :meth:`submit` returns the scheduled ``(start, end)`` pair.
    """

    __slots__ = ("name", "_tail", "_busy_time", "_op_count")

    def __init__(self, name: str) -> None:
        self.name = name
        self._tail = 0.0
        self._busy_time = 0.0
        self._op_count = 0

    @property
    def tail(self) -> float:
        """Completion time of the last submitted operation."""
        return self._tail

    @property
    def busy_time(self) -> float:
        """Total time this engine has spent executing operations."""
        return self._busy_time

    @property
    def op_count(self) -> int:
        return self._op_count

    def submit(self, ready: float, duration: float) -> tuple[float, float]:
        """Queue an operation that becomes ready at ``ready`` and takes ``duration``.

        Returns the ``(start, end)`` the FIFO discipline assigns to it.
        """
        if ready < 0:
            raise SimulationError(f"ready time must be >= 0, got {ready!r}")
        if duration < 0:
            raise SimulationError(f"duration must be >= 0, got {duration!r}")
        start = max(ready, self._tail)
        end = start + duration
        self._tail = end
        self._busy_time += duration
        self._op_count += 1
        return start, end

    def reset(self) -> None:
        """Forget all queued work and zero the busy/op accounting.

        Resetting an engine in isolation is almost never what a harness
        repetition wants: stream tails and the runtime's pending-work
        calendar would still reference the previous run's completion times.
        Use :meth:`repro.cuda.runtime.CudaRuntime.reset_schedule`, which
        resets engines, streams, and backlog accounting together.
        """
        self._tail = 0.0
        self._busy_time = 0.0
        self._op_count = 0


class EventCalendar:
    """Heap-driven calendar of pending completion events.

    One heap serves every key (engine name, stream id, ...): entries are
    ``(time, seq, key)`` tuples where ``seq`` is a monotone issue counter,
    so ties at equal times pop in issue order — deterministic, and keys
    themselves are never compared (they may be of mixed types).

    :meth:`push` registers a completion event and returns the key's new
    in-flight depth; :meth:`prune` retires every event due at or before
    ``now``.  Because completion times are monotone within one FIFO
    engine/stream, the per-key depth after a global prune equals what a
    per-key scan of that key's own pending list would report — which is
    how this replaces the runtime's per-op deque bookkeeping without
    changing a single recorded queue-depth sample.
    """

    __slots__ = ("_heap", "_depths", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, object]] = []
        self._depths: dict = {}
        self._seq = 0

    def __len__(self) -> int:
        """Number of pending (not yet pruned) events."""
        return len(self._heap)

    def depth(self, key) -> int:
        """In-flight events for ``key`` as of the last :meth:`prune`."""
        return self._depths.get(key, 0)

    def next_time(self) -> float | None:
        """Earliest pending completion time (None when idle)."""
        return self._heap[0][0] if self._heap else None

    def prune(self, now: float) -> int:
        """Retire every event with ``time <= now``; returns how many."""
        heap = self._heap
        depths = self._depths
        retired = 0
        while heap and heap[0][0] <= now:
            _, _, key = heapq.heappop(heap)
            depths[key] -= 1
            retired += 1
        return retired

    def push(self, key, time: float) -> int:
        """Register a completion event; returns ``key``'s new depth.

        Call :meth:`prune` first when the depth must reflect ``now``.
        """
        if time < 0:
            raise SimulationError(f"completion time must be >= 0, got {time!r}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, key))
        depth = self._depths.get(key, 0) + 1
        self._depths[key] = depth
        return depth

    def clear(self) -> None:
        """Forget all pending events (schedule reset between repetitions).

        The sequence counter is *not* rewound: tie-breaks stay globally
        monotone across resets, matching engine/stream reset semantics.
        """
        self._heap.clear()
        self._depths.clear()


class WeightedFairQueue:
    """Deterministic weighted-fair scheduler over opaque keys.

    The multi-tenant service (:mod:`repro.service`) charges each tenant's
    virtual runtime with the device busy-time its quanta consume, scaled
    by the inverse of the tenant's fair-share weight::

        vruntime[key] += cost / weight[key]

    :meth:`pick` selects, among the currently runnable keys, the one that
    is furthest behind its fair share.  Two tiers exist: any runnable
    *priority* key always preempts every best-effort key; within a tier
    the winner is the minimum ``(vruntime, seq)`` pair, where ``seq`` is
    the key's registration order — a stable, deterministic tie-break that
    never compares the keys themselves (they may be of mixed types).

    A key registered while others have already accumulated runtime starts
    at the *minimum live vruntime of its tier*, not at zero — otherwise a
    late joiner would monopolise the device until it caught up.
    """

    __slots__ = ("_weights", "_vruntime", "_seq", "_priority", "_next_seq")

    def __init__(self) -> None:
        self._weights: dict = {}
        self._vruntime: dict = {}
        self._seq: dict = {}
        self._priority: dict = {}
        self._next_seq = 0

    def register(self, key, weight: float = 1.0, *, priority: bool = False) -> None:
        """Add ``key`` with fair-share ``weight`` (idempotent re-register keeps state)."""
        if weight <= 0:
            raise SimulationError(f"fair-share weight must be > 0, got {weight!r}")
        if key in self._weights:
            self._weights[key] = float(weight)
            self._priority[key] = bool(priority)
            return
        tier = [
            v for k, v in self._vruntime.items()
            if self._priority[k] == bool(priority)
        ]
        self._weights[key] = float(weight)
        self._vruntime[key] = min(tier) if tier else 0.0
        self._priority[key] = bool(priority)
        self._seq[key] = self._next_seq
        self._next_seq += 1

    def weight(self, key) -> float:
        return self._weights[key]

    def is_priority(self, key) -> bool:
        return self._priority[key]

    def vruntime(self, key) -> float:
        return self._vruntime[key]

    def charge(self, key, cost: float) -> float:
        """Account ``cost`` seconds of service against ``key``; returns new vruntime."""
        if cost < 0:
            raise SimulationError(f"cannot charge negative cost {cost!r}")
        if key not in self._weights:
            raise SimulationError(f"cannot charge unregistered key {key!r}")
        self._vruntime[key] += cost / self._weights[key]
        return self._vruntime[key]

    def pick(self, runnable):
        """The runnable key furthest behind its fair share (None when empty).

        Priority-tier keys preempt best-effort ones; ties break on
        registration order, so the same runnable set always yields the
        same choice.
        """
        best = None
        best_rank = None
        for key in runnable:
            if key not in self._weights:
                raise SimulationError(f"runnable key {key!r} is not registered")
            rank = (
                0 if self._priority[key] else 1,
                self._vruntime[key],
                self._seq[key],
            )
            if best_rank is None or rank < best_rank:
                best, best_rank = key, rank
        return best
