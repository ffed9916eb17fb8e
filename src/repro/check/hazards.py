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
held weakly and forgotten when they die, a completion record keeps its
clocks only until the host has synchronized past every op it holds
(later ops join the host's clocks, so naming it then only adds DAG
edges), and :meth:`HazardChecker.retire_streams` drops a finished job's
streams and every completion time no surviving caller can still name.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
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


#: What a buffer's access state keeps of one op: the (timeline, tick)
#: epochs it ticked, which decide coverage, and its DAG node, from which
#: a hazard report builds the :class:`AccessInfo`.
_Access = tuple[tuple[tuple[Timeline, int], ...], DagNode]


def _access_info(access: _Access) -> AccessInfo:
    epochs, node = access
    return AccessInfo(node.op_id, node.kind, node.label, node.start, node.end,
                      node.streams, node.engines, epochs)


@dataclass(frozen=True, slots=True)
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
        self.last_write: _Access | None = None
        self.readers: Sequence[_Access] = ()


class _StreamState:
    """What the checker knows about one stream, or about the host thread.

    ``strong`` and ``weak`` are the clocks of the stream's latest op.  A
    stored clock is never mutated: every update builds a new one, so two
    names for the same clock object hold the same ticks.

    The other fields belong to streams only: ``key`` is ``((runtime,
    stream),)``, the DAG-node streams of an op on it alone (one tuple for
    every such op), ``tid`` its timeline, ``stamp`` names its clock pair, ``last_op`` is the DAG node
    of its latest op, ``pending`` the event-wait ops its next op depends
    on, ``seen`` the stamps of the clock pairs its latest op absorbed
    (ints, so no clock is kept alive by them), and ``clocked`` a chain
    ``(tick, completion, rest)`` of its ops the host has not yet
    synchronized past, newest first (``None`` when there are none; small
    tuples, not a list that grows and is dropped at every sync).  :meth:`HazardChecker._stream_state`
    sets them when it first tracks a stream, so any object holding a
    ``strong`` and a ``weak`` clock can stand in for this class (the
    dict-clock reference in ``tests/check/test_vclock.py`` does).
    """

    __slots__ = ("strong", "weak", "key", "tid", "stamp", "last_op", "pending",
                 "seen", "clocked")

    def __init__(self) -> None:
        self.strong = VectorClock()
        self.weak = VectorClock()


class _EngineState:
    """One hardware engine's FIFO knowledge: the weak clock, the DAG node
    and the clock-pair stamp of its latest op, and ``(name,)``, the
    DAG-node engines of an op on it alone.  It keeps the engine object
    alive, so the id the checker keys it by cannot be reused."""

    __slots__ = ("engine", "names", "weak", "last_op", "stamp")

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.names = (getattr(engine, "name", "?"),)
        self.weak: VectorClock | None = None
        self.last_op: DagNode | None = None
        self.stamp = 0


class _Completion:
    """Every op that ended at one instant: their merged clocks, their ids,
    the stamp of the clock pair, and how many of the ops the host has not
    synchronized past.  When that count reaches 0 the clocks go (both
    None): every later op's clocks cover them, so an ``after=`` naming
    the instant only adds DAG edges."""

    __slots__ = ("strong", "weak", "ops", "stamp", "unsynced")

    def __init__(self, strong: VectorClock, weak: VectorClock, ops: tuple[int, ...],
                 stamp: int) -> None:
        self.strong: VectorClock | None = strong
        self.weak: VectorClock | None = weak
        self.ops = ops
        self.stamp = stamp
        self.unsynced = 1


def _synced_past(chain: tuple | None) -> None:
    """The host synchronized past the ops of a ``clocked`` chain: release
    their completions' clocks once it has passed every op one holds."""
    while chain is not None:
        _tick, done, chain = chain
        done.unsynced -= 1
        if not done.unsynced:
            done.strong = done.weak = None


def _hazard(kind: str, label: str, earlier: _Access, later: _Access,
            weak: VectorClock) -> Hazard:
    """A conflict the strong clock does not order: FIFO luck when the
    weak clock covers ``earlier``, else a race."""
    severity = "warning" if weak.covers_any(earlier[0]) else "error"
    return Hazard(severity, kind, label, _access_info(earlier), _access_info(later))


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

    Every stored clock pair satisfies *weak covers strong*: the weak
    clock has seen at least every tick the strong one has.  It holds for
    the empty pair and each update keeps it (a new pair is built by
    joining pairs that satisfy it, then ticking both clocks alike), so an
    op's weak clock needs no join with its strong one.
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
        # stamps name stored clock pairs (the host's, each completion's);
        # a pair gets a new stamp whenever it is replaced
        self._stamp = 0
        self._host_stamp = 0
        # per-engine FIFO knowledge keyed by object id
        self._engines: dict[int, _EngineState] = {}
        # completion time -> its record (after= resolution)
        self._completions: dict[float, _Completion] = {}
        # completion times retire_streams() has not yet let go of
        self._unretired: list[float] = []
        # -- causal-DAG recording (consumed by repro.obs.critpath) --------
        # one DagNode per record_op, with explicit predecessor edges
        self.dag: list[DagNode] = []
        # event snapshots (event_record: strong, weak, the stream's last
        # op) and buffer access state, keyed by object id; the objects are
        # held weakly and their entries dropped when they die, so a
        # finished job's buffers are not kept alive
        self._events: dict[int, tuple[VectorClock, VectorClock, DagNode | None]] = {}
        self._event_refs: dict[int, weakref.KeyedRef] = {}
        self._forget_event = _forgetter(self._event_refs, self._events)
        self._buffers: dict[int, _BufferState] = {}
        self._buffer_refs: dict[int, weakref.KeyedRef] = {}
        self._forget_buffer = _forgetter(self._buffer_refs, self._buffers)
        self._host_op: DagNode | None = None
        self._last_issue = 0.0
        # the check.ops counter, looked up at the first op
        self._ops_counter: Any = None

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
            st.key = (key,)
            st.tid = ("stream",) + key
            st.stamp = self._new_stamp()
            st.last_op = None
            st.pending = None
            st.seen = ()
            st.clocked = None
        return st

    def _new_stamp(self) -> int:
        self._stamp += 1
        return self._stamp

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
        # The op's clocks join each distinct source pair once, told apart
        # by stamp: its streams', the host's and each resolved after=
        # completion's, plus the weak clock of each engine's latest op.  A
        # pair whose stamp a stream's latest op absorbed is skipped: the
        # stream's clocks still cover it.
        rt_ids = self._rt_ids
        ticks = self._ticks
        skeys = epochs = seen = ()
        states = []
        strongs = []
        weaks = []
        named = []
        # DAG edges, strongest kind first (a predecessor reachable several
        # ways keeps the most meaningful kind)
        deps: dict[int, str] = {}
        for rtid, s in streams:
            key = (rt_ids.get(rtid) or self._rt(rtid), s.stream_id)
            st = self._streams.get(key) or self._stream_state(key)
            skeys += st.key  # an op on one stream shares its tuple
            states.append(st)
            tid = st.tid
            t = ticks[tid] = ticks.get(tid, 0) + 1
            epochs += ((tid, t),)
            if st.stamp not in named:
                named.append(st.stamp)
                strongs.append(st.strong)
                weaks.append(st.weak)
            seen += st.seen
            if st.pending is not None:
                for waited in st.pending:
                    deps.setdefault(waited.op_id, "event")
                st.pending = None
        stamp = self._host_stamp
        if stamp not in named:
            named.append(stamp)
            if stamp not in seen:
                strongs.append(self._host.strong)
                weaks.append(self._host.weak)
        completions = self._completions
        for a in after:
            if a is None or a <= 0.0:
                continue
            done = completions.get(a)
            if done is None:
                self._inc("check.after_unresolved")
                continue
            for oid in done.ops:
                deps.setdefault(oid, "after")
            stamp = done.stamp
            # no clocks: the host synchronized past it, and the host's
            # clocks are joined or absorbed above
            if done.strong is None or stamp in named:
                continue
            named.append(stamp)
            if stamp not in seen:
                strongs.append(done.strong)
                weaks.append(done.weak)
        for st in states:
            if st.last_op is not None:
                deps.setdefault(st.last_op.op_id, "stream")
        engine_states = []
        engine_names = ()
        weak_only = ()  # stamps of the pairs only a weak clock is taken from
        for e in engines:
            es = self._engines.get(id(e))
            if es is None:
                es = self._engines[id(e)] = _EngineState(e)
            engine_states.append(es)
            engine_names += es.names
            if es.weak is not None:
                deps.setdefault(es.last_op.op_id, "engine")
                stamp = es.stamp
                if stamp not in named and stamp not in seen and stamp not in weak_only:
                    weak_only += (stamp,)
                    weaks.append(es.weak)
        strong = VectorClock.joined(strongs, epochs)
        weak = VectorClock.joined(weaks, epochs)
        self._op_seq = op_id = self._op_seq + 1
        counter = self._ops_counter
        if counter is None and self.metrics is not None:
            counter = self._ops_counter = self.metrics.counter("check.ops")
        if counter is not None:
            counter.inc()
        # host edge: the op the host last blocked on, plus the host's own
        # time between that wake-up (or the previous issue) and this issue
        host_op = self._host_op
        host_floor = self._last_issue
        if host_op is not None and host_op.end > host_floor:
            host_floor = host_op.end
        gap = now - host_floor
        node = DagNode(
            op_id, kind, label, start, end, now, int(nbytes), skeys, engine_names,
            tuple(sorted(deps.items())),
            None if host_op is None else host_op.op_id,
            gap if gap > 0.0 else 0.0,
            cost,
        )
        self.dag.append(node)
        if now > self._last_issue:
            self._last_issue = now

        # buffer accesses: the strong clock must cover each conflicting
        # earlier access; the weak one tells FIFO luck from a race
        access = (epochs, node)
        found: list[Hazard] = []
        covered = strong.covers_any
        buffers = self._buffers
        write_ids = tuple(map(id, writes))
        for buf in reads:
            if id(buf) in write_ids:
                continue  # handled as a write below (RAW reported there)
            st = buffers.get(id(buf)) or self._buf_state(buf)
            if st.last_write is not None and not covered(st.last_write[0]):
                found.append(_hazard("RAW", st.label, st.last_write, access, weak))
            # drop readers this read already covers: any later write that
            # covers this read transitively covers them too
            if st.readers:
                readers = [r for r in st.readers if not covered(r[0])]
                readers.append(access)
                st.readers = readers
            else:
                st.readers = [access]
        for buf in writes:
            st = buffers.get(id(buf)) or self._buf_state(buf)
            if st.last_write is not None and not covered(st.last_write[0]):
                kind = "RAW" if any(b is buf for b in reads) else "WAW"
                found.append(_hazard(kind, st.label, st.last_write, access, weak))
            for r in st.readers:
                if not covered(r[0]):
                    found.append(_hazard("WAR", st.label, r, access, weak))
            st.last_write = access
            st.readers = ()

        # fold the op into the world before (possibly) raising
        self._stamp = stamp = self._stamp + 1
        seen = tuple(named)
        for st in states:
            st.strong = strong
            st.weak = weak
            st.stamp = stamp
            st.last_op = node
            st.seen = seen
        for es in engine_states:
            es.weak = weak
            es.last_op = node
            es.stamp = stamp
        done = completions.get(end)
        if done is None:
            done = completions[end] = _Completion(strong, weak, (op_id,), stamp)
            self._unretired.append(end)
        else:
            # two ops completing at the same instant: merge (an `after=`
            # equal to that instant depends on both)
            if done.strong is None:
                # the host synchronized past the earlier ones, and this
                # op's clocks cover the host's: the merge is this op's pair
                done.strong, done.weak, done.stamp = strong, weak, stamp
            else:
                done.strong = VectorClock.joined((done.strong, strong))
                done.weak = VectorClock.joined((done.weak, weak))
                done.stamp = self._new_stamp()
            done.ops += (op_id,)
            done.unsynced += 1
        # the completion holds this op's clocks until the host synchronizes
        # with the op's (first) stream
        first = states[0]
        first.clocked = (epochs[0][1], done, first.clocked)

        for hazard in found:
            self._report(hazard, now)
        if self.mode == "strict":
            for hazard in found:
                if hazard.severity == "error":
                    err = HazardError(hazard.describe(), hazard=hazard)
                    if self.telemetry is not None:
                        self.telemetry.notify_incident("hazard", error=err, now=now)
                    raise err

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
        st = self._stream_state((self._rt(runtime_id), stream.stream_id))
        ev = id(event)
        self._events[ev] = (st.strong, st.weak, st.last_op)
        if ev not in self._event_refs:
            self._event_refs[ev] = weakref.KeyedRef(event, self._forget_event, ev)

    def on_stream_wait_event(self, runtime_id: int, stream: Any, event: Any) -> None:
        """``cudaStreamWaitEvent``: the stream acquires the event's snapshot."""
        snap = self._events.get(id(event))
        if snap is None:
            return  # recorded before the checker existed (or never): no edge
        st = self._stream_state((self._rt(runtime_id), stream.stream_id))
        strong, weak, ev_op = snap
        if strong is not st.strong or weak is not st.weak:
            st.strong = VectorClock.joined((st.strong, strong))
            st.weak = VectorClock.joined((st.weak, weak))
            st.stamp = self._new_stamp()
        if ev_op is not None:
            if st.pending is None:
                st.pending = [ev_op]
            else:
                st.pending.append(ev_op)

    def host_sync_stream(self, runtime_id: int, stream: Any) -> None:
        """The host blocked until ``stream`` drained: it now knows its past,
        so the stream's ops release their completions' clocks."""
        st = self._streams.get((self._rt(runtime_id), stream.stream_id))
        if st is None:
            return
        if self._host_stamp != st.stamp:
            host = self._host
            if self._host_stamp in st.seen:
                # the stream's latest op absorbed the host's clocks: the
                # join is the stream's clock pair itself
                host.strong, host.weak = st.strong, st.weak
                self._host_stamp = st.stamp
            else:
                host.strong = VectorClock.joined((host.strong, st.strong))
                host.weak = VectorClock.joined((host.weak, st.weak))
                self._host_stamp = self._new_stamp()
        if st.clocked is not None:
            _synced_past(st.clocked)
            st.clocked = None
        self._note_host_blocked_on(st.last_op)

    def _note_host_blocked_on(self, op: DagNode | None) -> None:
        """Keep the latest-completing op the host has blocked on (DAG host edge)."""
        if op is not None and (self._host_op is None or op.end > self._host_op.end):
            self._host_op = op

    def host_sync_streams(self, runtime_id: int, streams: Iterable[Any]) -> None:
        """``cudaDeviceSynchronize``: the host acquires every stream."""
        for s in streams:
            self.host_sync_stream(runtime_id, s)

    def host_sync_event(self, event: Any) -> None:
        """``cudaEventSynchronize``: the host knows the event's past, so the
        ops before it on its stream release their completions' clocks."""
        snap = self._events.get(id(event))
        if snap is None:
            return
        host = self._host
        host.strong = VectorClock.joined((host.strong, snap[0]))
        host.weak = VectorClock.joined((host.weak, snap[1]))
        self._host_stamp = self._new_stamp()
        ev_op = snap[2]
        if ev_op is not None:
            for key in ev_op.streams:
                st = self._streams.get(key)
                if st is None or st.clocked is None:
                    continue
                # an op is covered once the host has its tick: O(1); the
                # chain is newest first, so the uncovered ops lead it
                upto = host.strong.get(st.tid)
                kept = []
                chain = st.clocked
                while chain is not None and chain[0] > upto:
                    kept.append(chain[:2])
                    chain = chain[2]
                _synced_past(chain)
                chain = None
                for tick, done in reversed(kept):
                    chain = (tick, done, chain)
                st.clocked = chain
        self._note_host_blocked_on(ev_op)

    def forget(self, buf: Any) -> None:
        """A buffer was freed: stop tracking it (its id may be recycled)."""
        key = id(buf)
        self._buffers.pop(key, None)
        self._buffer_refs.pop(key, None)

    def retire_streams(self, runtime_id: int, streams: Iterable[Any], *,
                       now: float, live: Container[float]) -> None:
        """A finished job's streams will queue no more work: forget them.

        Drops each stream's state (clocks, last op, pending event waits,
        absorbed stamps, the ops it lists for release), and every
        completion record that ended by ``now`` and is not in ``live``, the
        completion times some surviving caller may still pass as
        ``after=``.  An op issued later
        ends after ``now``, so no later op can merge into a dropped time.
        Each call visits only the completions recorded since the previous
        one plus those it kept, so its cost does not grow with the
        session.  ``_ticks`` is kept: stream timelines keep their epochs.
        Bookkeeping only; the simulation is untouched.
        """
        rt = self._rt_ids.get(runtime_id)
        if rt is not None:
            for s in streams:
                self._streams.pop((rt, s.stream_id), None)
        kept = []
        for t in self._unretired:
            if t > now or t in live:
                kept.append(t)
            else:
                # a live stream may still list it until the host syncs
                done = self._completions.pop(t)
                done.strong = done.weak = None
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
        self._host_stamp = self._new_stamp()
        self._engines.clear()
        self._events.clear()
        self._event_refs.clear()
        self._completions.clear()
        self._unretired.clear()
        self._buffers.clear()
        self._buffer_refs.clear()
        self._host_op = None

    def dag_export(self) -> list[dict[str, Any]]:
        """The recorded causal DAG as manifest-ready plain dicts."""
        return dag_to_json(self.dag)
