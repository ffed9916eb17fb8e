"""The happens-before hazard detector.

Every device-buffer access the runtime performs — ``memcpy_async``
(H2D/D2H, incl. eviction write-backs), ``launch`` (with per-buffer
read/write sets), ``peer_copy`` — is recorded as one *event* on the
issuing stream's timeline.  Two kinds of happens-before are tracked with
two vector clocks per event:

* **strong** order: what the program actually synchronized —
  stream-FIFO program order, ``event_record``/``stream_wait_event``
  edges, host blocking syncs (``stream_synchronize``,
  ``device_synchronize``, ``event_synchronize``, synchronous copies,
  ``destroy_stream``), and explicit ``after=`` readiness dependencies
  (the simulator's stand-in for ``cudaStreamWaitEvent`` between queues);
* **weak** order: strong order plus the FIFO order of the hardware
  engines (compute, H2D DMA, D2H DMA).  Two conflicting operations that
  happen to share an engine always execute in submission order on *this*
  machine model — but nothing in the program guarantees it.

A conflicting pair (RAW/WAR/WAW on the same buffer) that is strong-
ordered is fine; one that is only weak-ordered is reported as a
``"warning"`` (ordered by FIFO luck); one that is neither is an
``"error"`` (racy).  In ``"strict"`` mode racy pairs raise
:class:`~repro.errors.HazardError`; in ``"observe"`` mode everything is
collected, counted (``check.*`` metrics) and trace-marked (``hazard``
decision marks) for ``python -m repro.obs.report``.

``after=`` edges are resolved by completion time: every recorded event
registers its end time, and an ``after`` component equal to a registered
completion joins that event's clocks.  The simulation's virtual times
are derived deterministically (no float noise), so exact matching is
reliable; unmatched components are counted under
``check.after_unresolved`` and ignored.

State follows the live program, not its history: buffers and events are
held weakly and forgotten when they die, and
:meth:`HazardChecker.retire_streams` drops a finished job's streams and
every completion time no surviving caller can still name.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, field
from typing import Any, Container, Iterable, Sequence

from ..errors import HazardError
from .dag import DagNode, dag_to_json
from .vclock import Timeline, VectorClock

#: Recognized checker modes.
MODES = ("off", "observe", "strict")

HOST: Timeline = ("host",)

_default_mode: str | None = None


def set_default_mode(mode: str | bool | None) -> None:
    """Set the process-wide default checker mode.

    ``CudaRuntime(check=None)`` (the default) consults this — it is how
    ``harness --check`` arms strict checking on every runtime the
    benchmarks create without threading a flag through every layer.
    ``None`` restores the built-in default (the ``REPRO_CHECK``
    environment variable, else off).
    """
    global _default_mode
    _default_mode = None if mode is None else resolve_mode(mode)


def default_mode() -> str:
    """The mode a runtime constructed with ``check=None`` gets."""
    if _default_mode is not None:
        return _default_mode
    env = os.environ.get("REPRO_CHECK", "").strip().lower()
    return env if env in MODES else "off"


def resolve_mode(check: str | bool | None) -> str:
    """Normalize a ``check=`` argument to a mode name."""
    if check is None:
        return default_mode()
    if check is True:
        return "strict"
    if check is False:
        return "off"
    if check not in MODES:
        raise ValueError(f"check must be one of {MODES} or a bool, got {check!r}")
    return check


def resolve_checker(
    check: str | bool | None, *, trace: Any = None, metrics: Any = None
) -> "HazardChecker | None":
    """Build the checker a runtime should use (None when checking is off)."""
    mode = resolve_mode(check)
    if mode == "off":
        return None
    return HazardChecker(mode, trace=trace, metrics=metrics)


@dataclass(frozen=True)
class AccessInfo:
    """Light record of one checked operation (kept in hazard reports)."""

    op_id: int
    kind: str
    label: str
    start: float
    end: float
    streams: tuple[tuple[int, int], ...]     # (runtime_id, stream_id)
    engines: tuple[str, ...]
    epochs: tuple[tuple[Timeline, int], ...]  # (timeline, tick) this op ticked


@dataclass(frozen=True)
class Hazard:
    """One unordered conflicting pair on one buffer."""

    severity: str           # "warning" (fifo-luck) | "error" (racy)
    kind: str               # "RAW" | "WAR" | "WAW"
    buffer: str             # buffer label (or its id when unlabeled)
    earlier: AccessInfo
    later: AccessInfo

    def describe(self) -> str:
        how = "ordered only by engine FIFO" if self.severity == "warning" else "racy"
        return (
            f"{self.kind} hazard ({how}) on buffer {self.buffer!r}: "
            f"op#{self.earlier.op_id} {self.earlier.kind}:{self.earlier.label!r} "
            f"[{self.earlier.start:.3e}..{self.earlier.end:.3e}] vs "
            f"op#{self.later.op_id} {self.later.kind}:{self.later.label!r} "
            f"[{self.later.start:.3e}..{self.later.end:.3e}] "
            f"(streams {self.earlier.streams} / {self.later.streams})"
        )


class _BufferState:
    """Per-buffer access summary: last write + reads since that write."""

    __slots__ = ("label", "last_write", "readers")

    def __init__(self, label: str) -> None:
        self.label = label
        self.last_write: AccessInfo | None = None
        self.readers: list[AccessInfo] = []


@dataclass
class _StreamState:
    strong: VectorClock = field(default_factory=VectorClock)
    weak: VectorClock = field(default_factory=VectorClock)


def _forgetter(refs: dict[int, Any], *states: dict[int, Any]):
    """A weak-reference callback that drops a dead object's entries.

    It closes over the checker's dicts, not the checker, so tracking an
    object adds no reference cycle.  CPython runs it before the object's
    id can be reused, so a new object at the same address starts clean.
    """
    def forget(ref: weakref.KeyedRef) -> None:
        for d in (refs, *states):
            d.pop(ref.key, None)
    return forget


class HazardChecker:
    """Vector-clock race detection over one (or several) runtimes.

    One checker may be shared by the runtimes of a multi-GPU group — all
    timelines carry the owning runtime's id, and a ``peer_copy`` event
    ticks both devices' stream timelines at once.
    """

    def __init__(self, mode: str = "observe", *, trace: Any = None,
                 metrics: Any = None) -> None:
        if mode not in ("observe", "strict"):
            raise ValueError(f"checker mode must be 'observe' or 'strict', got {mode!r}")
        self.mode = mode
        self.trace = trace
        self.metrics = metrics
        # set by CudaRuntime.attach_telemetry so a strict-mode raise can
        # trigger a flight-recorder incident dump before unwinding
        self.telemetry = None
        self.hazards: list[Hazard] = []
        self._op_seq = 0
        # runtime ids are a process-global counter; alias them to dense
        # per-checker ids (first appearance order) so recorded stream keys
        # — and therefore the exported DAG — are identical across runs in
        # one process.  Stable for the checker's lifetime (not reset).
        self._rt_ids: dict[int, int] = {}
        self._ticks: dict[Timeline, int] = {}
        self._streams: dict[tuple[int, int], _StreamState] = {}
        self._host = _StreamState()
        # per-engine weak knowledge (the FIFO chain) keyed by object id;
        # the engine objects are retained so ids cannot be recycled
        self._engine_weak: dict[int, VectorClock] = {}
        self._engine_refs: dict[int, Any] = {}
        # completion-time -> merged clock snapshot (after= resolution)
        self._completions: dict[float, tuple[VectorClock, VectorClock]] = {}
        # completion times retire_streams() has not yet let go of
        self._unretired: list[float] = []
        # -- causal-DAG recording (consumed by repro.obs.critpath) --------
        # one DagNode per record_op, with explicit predecessor edges
        self.dag: list[DagNode] = []
        self._last_stream_op: dict[tuple[int, int], tuple[int, float]] = {}
        self._last_engine_op: dict[int, tuple[int, float]] = {}
        self._completion_ops: dict[float, list[int]] = {}
        # event snapshots (event_record) and buffer access state, keyed by
        # object id; the objects are held weakly and their entries dropped
        # when they die, so a finished job's buffers are not kept alive
        self._events: dict[int, tuple[VectorClock, VectorClock]] = {}
        self._event_op: dict[int, tuple[int, float] | None] = {}
        self._event_refs: dict[int, weakref.KeyedRef] = {}
        self._forget_event = _forgetter(self._event_refs, self._events, self._event_op)
        self._buffers: dict[int, _BufferState] = {}
        self._buffer_refs: dict[int, weakref.KeyedRef] = {}
        self._forget_buffer = _forgetter(self._buffer_refs, self._buffers)
        self._pending_event_deps: dict[tuple[int, int], list[tuple[int, float]]] = {}
        self._host_op: tuple[int, float] | None = None
        self._last_issue = 0.0

    # -- summaries -----------------------------------------------------------

    @property
    def op_count(self) -> int:
        return self._op_seq

    def counts(self) -> dict[str, int]:
        out = {"warning": 0, "error": 0}
        for h in self.hazards:
            out[h.severity] += 1
        return out

    def racy(self) -> list[Hazard]:
        return [h for h in self.hazards if h.severity == "error"]

    # -- state transitions ---------------------------------------------------

    def _rt(self, runtime_id: int) -> int:
        """Dense per-checker alias for a process-global runtime id."""
        rid = self._rt_ids.get(runtime_id)
        if rid is None:
            rid = self._rt_ids[runtime_id] = len(self._rt_ids) + 1
        return rid

    def _stream_state(self, key: tuple[int, int]) -> _StreamState:
        st = self._streams.get(key)
        if st is None:
            st = self._streams[key] = _StreamState()
        return st

    def _tick(self, tid: Timeline) -> int:
        t = self._ticks.get(tid, 0) + 1
        self._ticks[tid] = t
        return t

    def record_op(
        self,
        *,
        kind: str,
        label: str,
        streams: Sequence[tuple[int, Any]],
        engines: Sequence[Any] = (),
        start: float,
        end: float,
        after: Iterable[float] = (),
        reads: Sequence[Any] = (),
        writes: Sequence[Any] = (),
        now: float = 0.0,
        nbytes: int = 0,
        cost: tuple[float, float] | None = None,
    ) -> None:
        """Record one device operation and check its buffer accesses.

        ``streams`` is ``[(runtime_id, Stream), ...]`` — usually one, two
        for peer copies.  ``after`` are the individual readiness
        dependencies the call site declared (the components of the
        effective ``max``, not the collapsed value).  In strict mode a
        racy conflict raises :class:`HazardError` *after* the op's state
        is folded in (the trace and counters stay consistent).
        """
        skeys = tuple((self._rt(rtid), s.stream_id) for rtid, s in streams)
        strong = VectorClock()
        weak = VectorClock()
        # DAG edges, strongest kind first (a predecessor reachable several
        # ways keeps the most meaningful kind)
        dag_deps: dict[int, str] = {}
        for key in skeys:
            st = self._streams.get(key)
            if st is not None:
                strong.join(st.strong)
                weak.join(st.weak)
            for oid, _oend in self._pending_event_deps.pop(key, ()):
                dag_deps.setdefault(oid, "event")
        strong.join(self._host.strong)
        weak.join(self._host.weak)
        for a in after:
            if a is None or a <= 0.0:
                continue
            snap = self._completions.get(float(a))
            if snap is None:
                self._inc("check.after_unresolved")
                continue
            strong.join(snap[0])
            weak.join(snap[1])
            for oid in self._completion_ops.get(float(a), ()):
                dag_deps.setdefault(oid, "after")
        for key in skeys:
            prev = self._last_stream_op.get(key)
            if prev is not None:
                dag_deps.setdefault(prev[0], "stream")
        weak.join(strong)
        for e in engines:
            ew = self._engine_weak.get(id(e))
            if ew is not None:
                weak.join(ew)
            prev = self._last_engine_op.get(id(e))
            if prev is not None:
                dag_deps.setdefault(prev[0], "engine")
        epochs = []
        for key in skeys:
            tid: Timeline = ("stream",) + key
            t = self._tick(tid)
            strong.set(tid, t)
            weak.set(tid, t)
            epochs.append((tid, t))
        self._op_seq += 1
        self._inc("check.ops")
        info = AccessInfo(
            op_id=self._op_seq, kind=kind, label=label, start=start, end=end,
            streams=skeys, engines=tuple(getattr(e, "name", "?") for e in engines),
            epochs=tuple(epochs),
        )
        # host edge: the op the host last blocked on, plus the host's own
        # time between that wake-up (or the previous issue) and this issue
        host_dep = self._host_op[0] if self._host_op is not None else None
        host_floor = max(
            self._last_issue,
            self._host_op[1] if self._host_op is not None else 0.0,
        )
        self.dag.append(DagNode(
            op_id=info.op_id, kind=kind, label=label,
            start=start, end=end, issue=now, nbytes=int(nbytes),
            streams=skeys, engines=info.engines,
            deps=tuple(sorted(dag_deps.items())),
            host_dep=host_dep, host_gap=max(0.0, now - host_floor),
            cost=cost,
        ))
        self._last_issue = max(self._last_issue, now)

        found = self._check_accesses(info, strong, weak, reads, writes)

        # fold the op into the world before (possibly) raising
        for key in skeys:
            st = self._stream_state(key)
            st.strong = strong
            st.weak = weak
            self._last_stream_op[key] = (info.op_id, end)
        for e in engines:
            self._engine_weak[id(e)] = weak
            self._engine_refs[id(e)] = e
            self._last_engine_op[id(e)] = (info.op_id, end)
        self._completion_ops.setdefault(end, []).append(info.op_id)
        snap = self._completions.get(end)
        if snap is None:
            self._completions[end] = (strong, weak)
            self._unretired.append(end)
        else:
            # two ops completing at the same instant: merge (an `after=`
            # equal to that instant depends on both)
            self._completions[end] = (
                snap[0].copy().join(strong), snap[1].copy().join(weak)
            )

        for hazard in found:
            self._report(hazard, now)
        if self.mode == "strict":
            for hazard in found:
                if hazard.severity == "error":
                    err = HazardError(hazard.describe(), hazard=hazard)
                    if self.telemetry is not None:
                        self.telemetry.notify_incident("hazard", error=err, now=now)
                    raise err

    def _check_accesses(
        self,
        info: AccessInfo,
        strong: VectorClock,
        weak: VectorClock,
        reads: Sequence[Any],
        writes: Sequence[Any],
    ) -> list[Hazard]:
        found: list[Hazard] = []
        write_ids = {id(b) for b in writes}

        def classify(earlier: AccessInfo, kind: str, buf_label: str) -> None:
            if strong.covers_any(earlier.epochs):
                return
            severity = "warning" if weak.covers_any(earlier.epochs) else "error"
            found.append(Hazard(severity, kind, buf_label, earlier, info))

        for buf in reads:
            if id(buf) in write_ids:
                continue  # handled as a write below (RAW reported there)
            st = self._buf_state(buf)
            if st.last_write is not None:
                classify(st.last_write, "RAW", st.label)
            # drop readers this read already covers: any later write that
            # covers this read transitively covers them too
            st.readers = [r for r in st.readers if not strong.covers_any(r.epochs)]
            st.readers.append(info)
        for buf in writes:
            st = self._buf_state(buf)
            is_rw = any(id(b) == id(buf) for b in reads)
            if st.last_write is not None:
                classify(st.last_write, "RAW" if is_rw else "WAW", st.label)
            for r in st.readers:
                classify(r, "WAR", st.label)
            st.last_write = info
            st.readers = []
        return found

    def _buf_state(self, buf: Any) -> _BufferState:
        key = id(buf)
        st = self._buffers.get(key)
        if st is None:
            label = getattr(buf, "label", "") or f"buf@{key:x}"
            st = self._buffers[key] = _BufferState(label)
            self._buffer_refs[key] = weakref.KeyedRef(buf, self._forget_buffer, key)
        return st

    def _report(self, hazard: Hazard, now: float) -> None:
        self.hazards.append(hazard)
        self._inc("check.hazards")
        self._inc("check.hazards.racy" if hazard.severity == "error"
                  else "check.hazards.fifo_luck")
        self._inc(f"check.{hazard.kind.lower()}")
        if self.trace is not None:
            self.trace.mark(
                "hazard", now,
                severity=hazard.severity, kind=hazard.kind, buffer=hazard.buffer,
                earlier=f"{hazard.earlier.kind}:{hazard.earlier.label}",
                later=f"{hazard.later.kind}:{hazard.later.label}",
                earlier_op=hazard.earlier.op_id, later_op=hazard.later.op_id,
            )

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    # -- synchronization edges ----------------------------------------------

    def on_event_record(self, event: Any, runtime_id: int, stream: Any) -> None:
        """``cudaEventRecord``: snapshot the stream's knowledge."""
        key = (self._rt(runtime_id), stream.stream_id)
        st = self._stream_state(key)
        ev = id(event)
        self._events[ev] = (st.strong, st.weak)
        self._event_op[ev] = self._last_stream_op.get(key)
        if ev not in self._event_refs:
            self._event_refs[ev] = weakref.KeyedRef(event, self._forget_event, ev)

    def on_stream_wait_event(self, runtime_id: int, stream: Any, event: Any) -> None:
        """``cudaStreamWaitEvent``: the stream acquires the event's snapshot."""
        snap = self._events.get(id(event))
        if snap is None:
            return  # recorded before the checker existed (or never): no edge
        key = (self._rt(runtime_id), stream.stream_id)
        st = self._stream_state(key)
        st.strong = st.strong.copy().join(snap[0])
        st.weak = st.weak.copy().join(snap[1])
        ev_op = self._event_op.get(id(event))
        if ev_op is not None:
            self._pending_event_deps.setdefault(key, []).append(ev_op)

    def host_sync_stream(self, runtime_id: int, stream: Any) -> None:
        """The host blocked until ``stream`` drained: it now knows its past."""
        key = (self._rt(runtime_id), stream.stream_id)
        st = self._streams.get(key)
        if st is not None:
            self._host.strong = self._host.strong.copy().join(st.strong)
            self._host.weak = self._host.weak.copy().join(st.weak)
        self._note_host_blocked_on(self._last_stream_op.get(key))

    def _note_host_blocked_on(self, op: tuple[int, float] | None) -> None:
        """Keep the latest-completing op the host has blocked on (DAG host edge)."""
        if op is not None and (self._host_op is None or op[1] > self._host_op[1]):
            self._host_op = op

    def host_sync_streams(self, runtime_id: int, streams: Iterable[Any]) -> None:
        """``cudaDeviceSynchronize``: the host acquires every stream."""
        for s in streams:
            self.host_sync_stream(runtime_id, s)

    def host_sync_event(self, event: Any) -> None:
        """``cudaEventSynchronize``."""
        snap = self._events.get(id(event))
        if snap is not None:
            self._host.strong = self._host.strong.copy().join(snap[0])
            self._host.weak = self._host.weak.copy().join(snap[1])
        self._note_host_blocked_on(self._event_op.get(id(event)))

    def forget(self, buf: Any) -> None:
        """A buffer was freed: stop tracking it (its id may be recycled)."""
        key = id(buf)
        self._buffers.pop(key, None)
        self._buffer_refs.pop(key, None)

    def retire_streams(self, runtime_id: int, streams: Iterable[Any], *,
                       now: float, live: Container[float]) -> None:
        """A finished job's streams will queue no more work: forget them.

        Drops each stream's clocks, last-op and pending-event entries, and
        every completion snapshot (with its DAG ops) that ended by ``now``
        and is not in ``live``, the completion times some surviving caller
        may still pass as ``after=``.  An op issued later ends after
        ``now``, so no later op can merge into a dropped time.  Each call
        visits only the completions recorded since the previous one plus
        those it kept, so its cost does not grow with the session.
        ``_ticks`` is kept: stream timelines keep their epochs.
        Bookkeeping only; the simulation is untouched.
        """
        rt = self._rt_ids.get(runtime_id)
        if rt is not None:
            for s in streams:
                key = (rt, s.stream_id)
                self._streams.pop(key, None)
                self._last_stream_op.pop(key, None)
                self._pending_event_deps.pop(key, None)
        kept = []
        for t in self._unretired:
            if t > now or t in live:
                kept.append(t)
            else:
                del self._completions[t], self._completion_ops[t]
        self._unretired = kept

    def reset_schedule(self, *, drop_dag: bool = False) -> None:
        """Forget per-run scheduling state between harness repetitions.

        Collected hazards and tick counters survive (timelines keep
        advancing — a fresh repetition must not resurrect old epochs);
        stream/host/engine knowledge, event snapshots, completion-time
        resolution and buffer access summaries are dropped, matching
        :meth:`repro.cuda.runtime.CudaRuntime.reset_schedule`.

        ``drop_dag=True`` additionally clears the recorded DAG and the
        collected hazard list.  Harness *repetitions* of one logical run
        must keep them (the DAG is the run's record), but back-to-back
        **independent jobs** on a shared runtime — the multi-tenant
        service's serialized path — must not leak one job's nodes,
        hazards, or ``racy()`` verdicts into the next job's report.
        """
        if drop_dag:
            self.dag.clear()
            self.hazards.clear()
        self._streams.clear()
        self._host = _StreamState()
        self._engine_weak.clear()
        self._engine_refs.clear()
        self._events.clear()
        self._event_refs.clear()
        self._completions.clear()
        self._unretired.clear()
        self._buffers.clear()
        self._buffer_refs.clear()
        # DAG bookkeeping follows the same rule: ``self.dag`` survives
        # (it is the run's record), per-schedule resolution state resets.
        self._last_stream_op.clear()
        self._last_engine_op.clear()
        self._completion_ops.clear()
        self._event_op.clear()
        self._pending_event_deps.clear()
        self._host_op = None

    def dag_export(self) -> list[dict[str, Any]]:
        """The recorded causal DAG as manifest-ready plain dicts."""
        return dag_to_json(self.dag)
