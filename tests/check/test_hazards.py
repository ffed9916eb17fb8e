"""The happens-before hazard detector, driven through the real runtime.

Each test builds a tiny schedule by hand — copies and kernel launches on
explicit streams — and asserts what the checker flags: properly
synchronized schedules are clean, cross-stream conflicts without an edge
are racy, conflicts ordered only by a shared engine FIFO are warnings.
"""

import pytest

from repro.check import (
    HazardChecker,
    default_mode,
    resolve_checker,
    resolve_mode,
    set_default_mode,
)
from repro.cuda.kernel import KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.errors import HazardError


@pytest.fixture
def rt(machine):
    return CudaRuntime(machine, check="observe")


@pytest.fixture
def strict_rt(machine):
    return CudaRuntime(machine, check="strict")


def touch_kernel(arg_access=None):
    """A pure-timing kernel for launch-ordering tests."""
    return KernelSpec(
        name="touch", body=None, bytes_per_cell=8.0, flops_per_cell=1.0,
        arg_access=arg_access,
    )


class TestModeResolution:
    def test_bool_and_string_forms(self):
        assert resolve_mode(True) == "strict"
        assert resolve_mode(False) == "off"
        assert resolve_mode("observe") == "observe"
        assert resolve_mode("strict") == "strict"
        assert resolve_mode("off") == "off"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="check must be"):
            resolve_mode("paranoid")
        with pytest.raises(ValueError, match="observe.*strict"):
            HazardChecker("off")

    def test_none_consults_process_default(self):
        assert resolve_mode(None) == default_mode()

    def test_set_default_mode_round_trip(self):
        try:
            set_default_mode("strict")
            assert resolve_mode(None) == "strict"
            set_default_mode(None)
            assert default_mode() == "off"
        finally:
            set_default_mode(None)

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "observe")
        assert default_mode() == "observe"
        monkeypatch.setenv("REPRO_CHECK", "bogus")
        assert default_mode() == "off"

    def test_resolve_checker_off_is_none(self):
        assert resolve_checker(False) is None
        assert isinstance(resolve_checker("strict"), HazardChecker)

    def test_runtime_check_off_has_no_checker(self, machine):
        assert CudaRuntime(machine, check=False).checker is None
        assert CudaRuntime(machine, check="observe").checker is not None


class TestCleanSchedules:
    """Synchronized programs produce zero hazards."""

    def test_same_stream_fifo(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s = rt.create_stream()
        rt.memcpy_async(a, h, s)
        rt.memcpy_async(h, a, s)  # RAW + WAR, but program-ordered
        assert rt.checker.hazards == []
        assert rt.checker.op_count == 2

    def test_after_edge_orders_cross_stream(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        end = rt.memcpy_async(a, h, s1)
        rt.memcpy_async(h, a, s2, after=end)
        assert rt.checker.hazards == []

    def test_event_record_wait_orders_cross_stream(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        ev = rt.create_event()
        rt.memcpy_async(a, h, s1)
        rt.event_record(ev, s1)
        rt.stream_wait_event(s2, ev)
        rt.memcpy_async(h, a, s2)
        assert rt.checker.hazards == []

    def test_host_stream_sync_orders_everything_after(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        rt.stream_synchronize(s1)
        rt.memcpy_async(h, a, s2)  # issued after the host observed s1 drain
        assert rt.checker.hazards == []

    def test_host_keeps_every_stream_it_synced(self, rt):
        # the second sync adds s2's past to the host's; it must not
        # replace what the host learned from s1
        a, b = rt.malloc(1024, label="a"), rt.malloc(1024, label="b")
        ha, hb = rt.malloc_pinned(1024, label="ha"), rt.malloc_pinned(1024, label="hb")
        s1, s2, s3 = rt.create_stream(), rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, ha, s1)
        rt.memcpy_async(b, hb, s2)
        rt.stream_synchronize(s1)
        rt.stream_synchronize(s2)
        rt.memcpy_async(ha, a, s3)
        rt.memcpy_async(hb, b, s3)
        assert rt.checker.hazards == []

    def test_stream_reuses_what_it_absorbed(self, rt):
        # s2's first op absorbs the host's clocks; its second op skips
        # them and must still be ordered after s1's copy
        a, b = rt.malloc(1024, label="a"), rt.malloc(1024, label="b")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        rt.stream_synchronize(s1)
        rt.memcpy_async(b, h, s2)
        rt.memcpy_async(h, a, s2)
        assert rt.checker.hazards == []

    def test_device_synchronize_orders_everything_after(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        rt.device_synchronize()
        rt.memcpy_async(h, a, s2)
        assert rt.checker.hazards == []

    def test_event_synchronize_orders_host(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        ev = rt.create_event()
        rt.memcpy_async(a, h, s1)
        rt.event_record(ev, s1)
        rt.event_synchronize(ev)
        rt.memcpy_async(h, a, s2)
        assert rt.checker.hazards == []

    def test_synchronous_memcpy_is_a_host_sync(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s2 = rt.create_stream()
        rt.memcpy(a, h)  # blocking: drains the default stream
        rt.memcpy_async(h, a, s2)
        assert rt.checker.hazards == []

    def test_disjoint_buffers_never_conflict(self, rt):
        a, b = rt.malloc(1024, label="a"), rt.malloc(1024, label="b")
        ha, hb = rt.malloc_pinned(1024, label="ha"), rt.malloc_pinned(1024, label="hb")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, ha, s1)
        rt.memcpy_async(b, hb, s2)
        assert rt.checker.hazards == []


class TestRacySchedules:
    def test_cross_stream_copy_pair_is_racy(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)     # writes a, reads h  (H2D engine)
        rt.memcpy_async(h, a, s2)     # reads a, writes h  (D2H engine)
        kinds = sorted((hz.severity, hz.kind) for hz in rt.checker.hazards)
        assert kinds == [("error", "RAW"), ("error", "WAR")]

    def test_hazard_names_buffer_and_ops(self, rt):
        a = rt.malloc(1024, label="weights")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1, label="up")
        rt.memcpy_async(h, a, s2, label="down")
        raw = next(hz for hz in rt.checker.hazards if hz.kind == "RAW")
        assert raw.buffer == "weights"
        assert raw.earlier.label == "up"
        assert raw.later.label == "down"
        assert "racy" in raw.describe()
        assert raw.earlier.op_id < raw.later.op_id

    def test_kernel_raw_against_unordered_upload(self, rt):
        a = rt.malloc(1024, label="a")
        b = rt.malloc(1024, label="b")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(b, h, s1)
        # writes a, reads b — no edge to the upload of b
        rt.launch(touch_kernel(("w", "r")), buffers=[a, b], n_cells=128, stream=s2)
        assert [hz.kind for hz in rt.checker.hazards] == ["RAW"]
        assert rt.checker.hazards[0].severity == "error"
        assert rt.checker.hazards[0].buffer == "b"

    def test_counts_and_racy_accessors(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        rt.memcpy_async(h, a, s2)
        assert rt.checker.counts() == {"warning": 0, "error": 2}
        assert len(rt.checker.racy()) == 2

    def test_metrics_counters(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        rt.memcpy_async(h, a, s2)
        counters = rt.metrics.snapshot()["counters"]
        assert counters["check.ops"] == 2
        assert counters["check.hazards"] == 2
        assert counters["check.hazards.racy"] == 2
        assert counters["check.raw"] == 1
        assert counters["check.war"] == 1

    def test_trace_marks(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        rt.memcpy_async(h, a, s2)
        marks = [m for m in rt.trace.marks if m["name"] == "hazard"]
        assert len(marks) == 2
        assert {m["args"]["severity"] for m in marks} == {"error"}
        assert {m["args"]["kind"] for m in marks} == {"RAW", "WAR"}


class TestFifoLuck:
    """Conflicts ordered only by a shared engine FIFO are warnings."""

    def test_same_engine_waw_is_warning(self, rt):
        a = rt.malloc(1024, label="a")
        h1 = rt.malloc_pinned(1024, label="h1")
        h2 = rt.malloc_pinned(1024, label="h2")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h1, s1)   # both on the H2D engine: FIFO orders
        rt.memcpy_async(a, h2, s2)   # them — but no program edge does
        assert [hz.kind for hz in rt.checker.hazards] == ["WAW"]
        assert rt.checker.hazards[0].severity == "warning"
        counters = rt.metrics.snapshot()["counters"]
        assert counters["check.hazards.fifo_luck"] == 1
        assert counters.get("check.hazards.racy", 0) == 0

    def test_warning_does_not_raise_in_strict(self, strict_rt):
        rt = strict_rt
        a = rt.malloc(1024, label="a")
        h1 = rt.malloc_pinned(1024, label="h1")
        h2 = rt.malloc_pinned(1024, label="h2")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h1, s1)
        rt.memcpy_async(a, h2, s2)  # fifo-luck: tolerated, only flagged
        assert rt.checker.counts() == {"warning": 1, "error": 0}


class TestStrictMode:
    def test_racy_pair_raises(self, strict_rt):
        rt = strict_rt
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        with pytest.raises(HazardError) as exc:
            rt.memcpy_async(h, a, s2)
        assert exc.value.hazard.severity == "error"
        assert exc.value.hazard.kind in ("RAW", "WAR")

    def test_state_folded_before_raising(self, strict_rt):
        # the op that raises is still recorded: the trace/counters stay
        # consistent for post-mortem reporting
        rt = strict_rt
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        with pytest.raises(HazardError):
            rt.memcpy_async(h, a, s2)
        assert rt.checker.op_count == 2
        assert len(rt.checker.hazards) == 2


class TestAfterResolution:
    def test_unresolvable_after_counted_not_trusted(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        # 123.456 matches no recorded completion: the edge is dropped
        # (counted) and the conflict is still reported as racy
        rt.memcpy_async(h, a, s2, after=123.456)
        counters = rt.metrics.snapshot()["counters"]
        assert counters["check.after_unresolved"] == 1
        assert counters["check.hazards.racy"] == 2

    def test_zero_and_negative_components_skipped(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s = rt.create_stream()
        rt.memcpy_async(a, h, s, after=(0.0, -1.0))
        counters = rt.metrics.snapshot()["counters"]
        assert counters.get("check.after_unresolved", 0) == 0

    def test_tuple_after_resolves_every_component(self, rt):
        a, b = rt.malloc(1024, label="a"), rt.malloc(1024, label="b")
        ha, hb = rt.malloc_pinned(1024, label="ha"), rt.malloc_pinned(1024, label="hb")
        s1, s2, s3 = rt.create_stream(), rt.create_stream(), rt.create_stream()
        e1 = rt.memcpy_async(a, ha, s1)
        e2 = rt.memcpy_async(b, hb, s2)
        # reads both uploads; passing the individual components (not
        # max(e1, e2)) proves the edge to *each* producer
        rt.launch(touch_kernel(("r", "r")), buffers=[a, b], n_cells=128,
                  stream=s3, after=(e1, e2))
        assert rt.checker.hazards == []


class TestAccessDerivation:
    def test_arg_access_limits_conflicts(self, rt):
        a, b = rt.malloc(1024, label="a"), rt.malloc(1024, label="b")
        s1, s2 = rt.create_stream(), rt.create_stream()
        # two read-only launches of the same buffers never conflict
        k = touch_kernel(("r", "r"))
        rt.launch(k, buffers=[a, b], n_cells=128, stream=s1)
        rt.launch(k, buffers=[a, b], n_cells=128, stream=s2)
        assert rt.checker.hazards == []

    def test_missing_arg_access_is_conservative_rw(self, rt):
        a = rt.malloc(1024, label="a")
        s1, s2 = rt.create_stream(), rt.create_stream()
        k = touch_kernel(None)
        rt.launch(k, buffers=[a], n_cells=128, stream=s1)
        rt.launch(k, buffers=[a], n_cells=128, stream=s2)
        # rw vs rw on a shared compute engine: flagged (as fifo-luck)
        assert rt.checker.hazards != []
        assert all(hz.severity == "warning" for hz in rt.checker.hazards)

    def test_explicit_reads_writes_override(self, rt):
        a, b = rt.malloc(1024, label="a"), rt.malloc(1024, label="b")
        s1, s2 = rt.create_stream(), rt.create_stream()
        k = touch_kernel(None)  # conservative rw…
        rt.launch(k, buffers=[a, b], n_cells=128, stream=s1, reads=[a, b])
        rt.launch(k, buffers=[a, b], n_cells=128, stream=s2, reads=[a, b])
        # …but the launch declared read-only access: no conflict
        assert rt.checker.hazards == []


class TestLifecycle:
    def test_free_forgets_buffer_state(self, rt):
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        a = rt.malloc(1024, label="a")
        rt.memcpy_async(a, h, s1)
        rt.free(a)  # id(a) may be recycled: its history must not leak
        b = rt.malloc(1024, label="b")
        rt.memcpy_async(b, h, s2)
        kinds = {hz.kind for hz in rt.checker.hazards}
        assert "WAW" not in kinds  # no phantom conflict with the freed buffer

    def test_reset_schedule_drops_per_run_state(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        rt.reset_schedule()
        # a fresh repetition re-touches the same buffers: no cross-run
        # conflicts may be reported
        rt.memcpy_async(a, h, s2)
        assert rt.checker.hazards == []
        assert rt.checker.op_count == 2  # ops keep counting across runs

    def test_hazards_survive_reset(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)
        rt.memcpy_async(h, a, s2)
        found = len(rt.checker.hazards)
        rt.reset_schedule()
        assert len(rt.checker.hazards) == found

    def test_dead_buffer_leaves_no_state_for_its_id(self, rt):
        # a buffer dropped without free_host: the checker holds it weakly,
        # so it dies, and its recorded write must not reach a new buffer
        # that CPython places at the same address (same id)
        d, d2 = rt.malloc(1024, label="d"), rt.malloc(1024, label="d2")
        s1, s2 = rt.create_stream(), rt.create_stream()
        h = rt.malloc_pinned(1024)
        rt.memcpy_async(h, d, s1)            # D2H: writes h
        key = id(h)
        del h
        spare = []
        for _ in range(1000):
            h = rt.malloc_pinned(1024)
            if id(h) == key:
                break
            spare.append(h)
        assert id(h) == key, "the dead buffer was kept alive"
        rt.memcpy_async(d2, h, s2)           # reads the new h, no edge
        assert rt.checker.hazards == []

    def test_dead_event_leaves_no_snapshot(self, rt):
        s = rt.create_stream()
        ev = rt.create_event()
        rt.event_record(ev, s)
        assert len(rt.checker._events) == 1
        del ev
        assert rt.checker._events == {} and rt.checker._event_refs == {}

    def test_retire_streams_keeps_named_and_pending_completions(self, rt):
        d = rt.malloc(1024, label="d")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        first = rt.memcpy_async(d, h, s1)
        second = rt.memcpy_async(h, d, s1, after=first)
        later = rt.memcpy_async(d, h, s2, after=second)
        ch = rt.checker
        timelines = len(ch._ticks)
        ch.retire_streams(rt._runtime_id, [s1], now=second, live=[first])
        assert set(ch._streams) == {(1, s2.stream_id)}
        assert set(ch._completions) == {first, later}
        assert {t: c.ops for t, c in ch._completions.items()} == {first: (1,), later: (3,)}
        assert len(ch._ticks) == timelines
        # a kept completion still resolves; the dropped one is unresolved
        rt.memcpy_async(h, d, s2, after=(first, second))
        assert rt.metrics.value("check.after_unresolved") == 1

    def test_wait_on_unknown_event_is_no_edge(self, rt):
        # an event recorded before the checker was armed (or reset away)
        # resolves to no snapshot: the wait adds no edge, and must not blow up
        ev = rt.create_event()
        s = rt.create_stream()
        rt.checker.on_stream_wait_event(rt._runtime_id, s, ev)
        assert rt.checker.hazards == []


# -- cost and soundness of the clock bookkeeping ------------------------------


def _covers(weak, strong) -> bool:
    """Every tick ``strong`` has seen, ``weak`` has seen too."""
    w, s = weak._a, strong._a
    n = min(len(w), len(s))
    return bool((w[:n] >= s[:n]).all() and not s[n:].any())


def _stored_pairs(checker):
    """Every (strong, weak) clock pair the checker holds."""
    yield "host", checker._host.strong, checker._host.weak
    for key, st in checker._streams.items():
        yield f"stream {key}", st.strong, st.weak
    for t, done in checker._completions.items():
        if done.strong is not None:  # None: the host synchronized past it
            yield f"completion {t!r}", done.strong, done.weak
    for ev, (strong, weak, _op) in checker._events.items():
        yield f"event {ev}", strong, weak


@pytest.fixture
def invariant_checked(monkeypatch):
    """Check *weak covers strong* over every stored pair after every call
    that can store one; returns the number of checks made."""
    checks = [0]

    def checked(name):
        orig = getattr(HazardChecker, name)

        def wrapper(self, *args, **kwargs):
            try:
                return orig(self, *args, **kwargs)
            finally:
                for what, strong, weak in _stored_pairs(self):
                    assert _covers(weak, strong), f"{name}: weak misses strong in {what}"
                checks[0] += 1
        monkeypatch.setattr(HazardChecker, name, wrapper)

    for name in ("record_op", "on_event_record", "on_stream_wait_event",
                 "host_sync_stream", "host_sync_event"):
        checked(name)
    return checks


class TestWeakCoversStrong:
    """The checker joins no op's weak clock with its strong one: the weak
    sources already cover the strong ones because every stored pair
    satisfies *weak covers strong*.  Checked after every call."""

    def test_limited_memory_heat(self, invariant_checked):
        from repro.baselines.tida_runners import run_tida_heat

        res = run_tida_heat(shape=(48, 24, 24), steps=3, n_regions=8, n_slots=3,
                            device_memory_limit=310_000, check="observe",
                            mode="timing")
        assert invariant_checked[0] >= len(res.dag) > 100

    def test_service_session(self, invariant_checked):
        from repro.service import LoadGenerator, Service, TrafficPattern

        kw = {"heat": {"shape": (16, 8, 8), "steps": 2},
              "coeff-heat": {"shape": (16, 8, 8), "steps": 2}}
        svc = Service(total_slots=16)
        svc.add_tenant("vip", 2.0, priority=True)
        svc.add_tenant("be", 1.0)
        LoadGenerator(1, ["vip", "be"], workloads=tuple(kw), workload_kwargs=kw,
                      pattern=TrafficPattern(mean_gap=1e-4, burst_size=2)
                      ).replay_open(svc, 8)
        report = svc.run()
        svc.close()
        assert len(report.jobs) == 8
        assert invariant_checked[0] > 100

    def test_event_edges(self, rt, invariant_checked):
        d, h = rt.malloc(1024, label="d"), rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        ev = rt.create_event()
        rt.memcpy_async(d, h, s1)
        rt.event_record(ev, s1)
        rt.stream_wait_event(s2, ev)
        rt.memcpy_async(h, d, s2)
        rt.event_synchronize(ev)
        rt.device_synchronize()
        assert invariant_checked[0] > 4


class TestCheckerCost:
    """A host-speed-free cost guard: clock joins plus copies per recorded
    op on a fixed 4-step limited-memory heat run.  Each op joins each
    distinct source clock once and skips the sources its stream absorbed
    at its previous op and the completions the host synchronized past;
    the count is pinned, so a change that adds clock work shows here.
    A clock built from k sources by ``VectorClock.joined`` counts k - 1
    joins, and one copy when k is 1.  (Joining every source, and the
    weak clock with the strong one, took 1,473 joins and 88 copies: 9.4
    joins per op; joining each distinct source once, by identity, into a
    copy of the first, 626 joins and 372 copies.)"""

    def test_joins_and_copies_per_op(self, monkeypatch):
        from repro.baselines.tida_runners import run_tida_heat
        from repro.check import vclock

        counts = {"join": 0, "copy": 0}

        def counted(name):
            orig = getattr(vclock.VectorClock, name)

            def wrapper(self, *args):
                counts[name] += 1
                return orig(self, *args)
            monkeypatch.setattr(vclock.VectorClock, name, wrapper)

        counted("join")
        counted("copy")
        joined = vclock.VectorClock.joined

        def counted_joined(clocks, epochs=()):
            clocks = list(clocks)
            counts["join"] += len(clocks) - 1
            counts["copy"] += len(clocks) == 1
            return joined(clocks, epochs)
        monkeypatch.setattr(vclock.VectorClock, "joined", staticmethod(counted_joined))
        res = run_tida_heat(shape=(48, 24, 24), steps=4, n_regions=8, n_slots=3,
                            device_memory_limit=310_000, check="observe",
                            mode="timing")
        assert len(res.dag) == 157
        assert counts == {"join": 530, "copy": 16}
