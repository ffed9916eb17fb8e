"""Vector-clock primitives behind the hazard detector, and the dense
clock checked against the dict clock it replaced."""

import itertools
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.tida_runners import run_tida_heat
from repro.check import hazards
from repro.check.dag import dag_to_json
from repro.check.vclock import VectorClock
from repro.core.tile_acc import TileAcc
from repro.errors import HazardError
from repro.multi.heat import run_multi_gpu_heat

S1 = ("stream", 0, 1)
S2 = ("stream", 0, 2)
HOST = ("host",)


class TestBasics:
    def test_empty_clock_covers_nothing(self):
        vc = VectorClock()
        assert not vc.covers(S1, 1)
        assert vc.get(S1) == 0
        assert len(vc) == 0

    def test_set_and_covers(self):
        vc = VectorClock()
        vc.set(S1, 3)
        assert vc.covers(S1, 3)
        assert vc.covers(S1, 2)
        assert not vc.covers(S1, 4)
        assert not vc.covers(S2, 1)

    def test_set_never_rewinds(self):
        vc = VectorClock()
        vc.set(S1, 5)
        vc.set(S1, 2)
        assert vc.get(S1) == 5

    def test_copy_is_independent(self):
        vc = VectorClock({S1: 1})
        cp = vc.copy()
        cp.set(S1, 9)
        cp.set(S2, 1)
        assert vc.get(S1) == 1
        assert vc.get(S2) == 0


class TestJoin:
    def test_join_is_pointwise_max(self):
        a = VectorClock({S1: 3, S2: 1})
        b = VectorClock({S1: 2, S2: 4, HOST: 1})
        a.join(b)
        assert a.get(S1) == 3
        assert a.get(S2) == 4
        assert a.get(HOST) == 1

    def test_join_returns_self_for_chaining(self):
        a = VectorClock()
        assert a.join(VectorClock({S1: 1})) is a
        assert a.get(S1) == 1

    def test_join_none_is_noop(self):
        a = VectorClock({S1: 2})
        a.join(None)
        assert a.get(S1) == 2

    def test_join_idempotent(self):
        a = VectorClock({S1: 3})
        b = a.copy()
        a.join(b).join(b)
        assert a == b


class TestCoversAny:
    def test_any_single_epoch(self):
        vc = VectorClock({S1: 5})
        assert vc.covers_any([(S1, 4)])
        assert not vc.covers_any([(S1, 6)])
        assert not vc.covers_any([])

    def test_multi_timeline_event_seen_on_either_side(self):
        # a peer copy ticks both devices' streams; observing either
        # epoch means the whole event happened-before
        vc = VectorClock({S2: 7})
        epochs = [(S1, 3), (S2, 7)]
        assert vc.covers_any(epochs)
        vc2 = VectorClock({S1: 3})
        assert vc2.covers_any(epochs)
        vc3 = VectorClock({S1: 2, S2: 6})
        assert not vc3.covers_any(epochs)


class TestEquality:
    def test_eq(self):
        assert VectorClock({S1: 1}) == VectorClock({S1: 1})
        assert VectorClock({S1: 1}) != VectorClock({S1: 2})
        assert VectorClock() != object()


# -- dense clock vs the dict clock it replaced ------------------------------


class DictClock:
    """The reference: ticks in a dict keyed by timeline, joined by a
    Python loop over every timeline the other clock has seen."""

    __slots__ = ("_c",)

    def __init__(self, clocks=None):
        self._c = dict(clocks) if clocks else {}

    def copy(self):
        return DictClock(self._c)

    def get(self, tid):
        return self._c.get(tid, 0)

    def set(self, tid, tick):
        if tick > self._c.get(tid, 0):
            self._c[tid] = tick

    def join(self, other):
        if other is not None:
            c = self._c
            for tid, tick in other._c.items():
                if tick > c.get(tid, 0):
                    c[tid] = tick
        return self

    @classmethod
    def joined(cls, clocks, epochs=()):
        out = cls()
        for c in clocks:
            out.join(c)
        for tid, tick in epochs:
            out.set(tid, tick)
        return out

    def covers(self, tid, tick):
        return self._c.get(tid, 0) >= tick

    def covers_any(self, epochs):
        c = self._c
        return any(c.get(tid, 0) >= tick for tid, tick in epochs)

    def __len__(self):
        return len(self._c)

    def __eq__(self, other):
        return self._c == other._c


#: Timeline names no other test interns, so each example meets timelines
#: the process-wide intern table first sees mid-sequence.
_fresh = (("prop", n) for n in itertools.count())

ops = st.lists(st.one_of(
    st.tuples(st.just("fresh")),
    st.tuples(st.just("new"), st.dictionaries(st.integers(0, 30),
                                              st.integers(1, 40), max_size=4)),
    st.tuples(st.just("set"), st.integers(0, 30), st.integers(0, 30),
              st.integers(0, 40)),
    st.tuples(st.just("join"), st.integers(0, 30), st.integers(-1, 30)),
    st.tuples(st.just("copy"), st.integers(0, 30)),
    st.tuples(st.just("covers"), st.integers(0, 30), st.integers(0, 30),
              st.integers(0, 41)),
    st.tuples(st.just("covers_any"), st.integers(0, 30),
              st.lists(st.tuples(st.integers(0, 30), st.integers(0, 41)),
                       max_size=3)),
), max_size=60)


def pick(k, seq):
    return seq[k % len(seq)]


class TestDenseMatchesDict:
    @settings(max_examples=200, deadline=None)
    @given(ops)
    def test_random_sequences_agree(self, sequence):
        tids = [next(_fresh)]
        dense, ref = [VectorClock()], [DictClock()]
        for op, *args in sequence:
            if op == "fresh":
                tids.append(next(_fresh))
            elif op == "new":
                init = {pick(k, tids): tick for k, tick in args[0].items()}
                dense.append(VectorClock(init))
                ref.append(DictClock(init))
            elif op == "set":
                c, k, tick = args
                pick(c, dense).set(pick(k, tids), tick)
                pick(c, ref).set(pick(k, tids), tick)
            elif op == "join":
                dst, src = args
                other_d = None if src < 0 else pick(src, dense)
                other_r = None if src < 0 else pick(src, ref)
                assert pick(dst, dense).join(other_d) is pick(dst, dense)
                pick(dst, ref).join(other_r)
            elif op == "copy":
                dense.append(pick(args[0], dense).copy())
                ref.append(pick(args[0], ref).copy())
            elif op == "covers":
                c, k, tick = args
                got = pick(c, dense).covers(pick(k, tids), tick)
                assert got is pick(c, ref).covers(pick(k, tids), tick)
            else:
                c, epochs = args
                ep = [(pick(k, tids), tick) for k, tick in epochs]
                assert pick(c, dense).covers_any(ep) is pick(c, ref).covers_any(ep)
            for d, r in zip(dense, ref):
                assert [d.get(t) for t in tids] == [r.get(t) for t in tids]
                assert all(type(d.get(t)) is int for t in tids)
                assert len(d) == len(r)
            i, j = len(dense) - 1, len(dense) // 2
            assert (dense[i] == dense[j]) == (ref[i] == ref[j])


class TestJoinedMatchesDict:
    """``VectorClock.joined`` (one new array, ticks written by index)
    against joining dict clocks into an empty one and setting the ticks."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.dictionaries(st.integers(0, 12), st.integers(0, 40), max_size=6),
                    min_size=1, max_size=5),
           st.lists(st.tuples(st.integers(0, 14), st.integers(-1, 60)), max_size=3))
    def test_random_joins_agree(self, inits, epochs):
        tids = [next(_fresh) for _ in range(15)]
        dense = [VectorClock({tids[k]: t for k, t in init.items()}) for init in inits]
        ref = [DictClock({tids[k]: t for k, t in init.items() if t > 0}) for init in inits]
        before = [d.copy() for d in dense]
        ep = [(tids[k], tick) for k, tick in epochs]
        got = VectorClock.joined(dense, ep)
        want = DictClock.joined(ref, ep)
        assert [got.get(t) for t in tids] == [want.get(t) for t in tids]
        assert all(type(got.get(t)) is int for t in tids)
        # the sources are untouched and share no array with the result
        assert dense == before
        assert all(got._a is not d._a for d in dense)


@dataclass
class _DictStreamState:
    strong: DictClock = field(default_factory=DictClock)
    weak: DictClock = field(default_factory=DictClock)


@pytest.fixture
def checkers(monkeypatch):
    """Every HazardChecker built while the test runs, in creation order."""
    made = []
    init = hazards.HazardChecker.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(hazards.HazardChecker, "__init__", recording_init)
    return made


def _with_dict_clock(monkeypatch, checkers, run):
    with monkeypatch.context() as m:
        m.setattr(hazards, "VectorClock", DictClock)
        m.setattr(hazards, "_StreamState", _DictStreamState)
        out = _record(checkers, run)
    assert all(type(c._host.strong) is DictClock for c in checkers)
    return out


def _record(checkers, run):
    """DAG JSON and hazards of every checker ``run`` built, or the
    message of the HazardError it raised."""
    del checkers[:]
    try:
        run()
        outcome = None
    except HazardError as exc:
        outcome = str(exc)
    assert checkers, "the run must be checked"
    return outcome, [(dag_to_json(c.dag), c.hazards, c.counts()) for c in checkers]


SMALL_HEAT = dict(shape=(48, 24, 24), steps=2, n_regions=8, n_slots=3,
                  device_memory_limit=310_000, functional=True)


def _limited_memory_heat():
    run_tida_heat(check="observe", **SMALL_HEAT)


def _multi_gpu_heat():
    run_multi_gpu_heat(shape=(32, 16, 16), steps=2, n_devices=2,
                       regions_per_device=2, check="observe", functional=True)


def _racy_mutant(mode):
    def run():
        # mutant 5 of tests/check/test_mutants.py: readiness deps dropped
        orig = TileAcc.device_ready_deps
        TileAcc.device_ready_deps = lambda self, rid: ()
        try:
            run_tida_heat(check=mode, **dict(SMALL_HEAT, steps=1))
        finally:
            TileAcc.device_ready_deps = orig
    return run


class TestCheckerWithDictClock:
    """The checker's DAG, hazards and errors do not depend on the clock
    representation: the dict clock, patched in, gives the same bytes."""

    @pytest.mark.parametrize("run", [
        _limited_memory_heat, _multi_gpu_heat, _racy_mutant("observe"),
        _racy_mutant("strict"),
    ], ids=["limited-memory-heat", "multi-gpu-peer", "racy-mutant-observe",
            "racy-mutant-strict"])
    def test_same_dag_hazards_and_errors(self, run, checkers, monkeypatch):
        dense = _record(checkers, run)
        ref = _with_dict_clock(monkeypatch, checkers, run)
        assert dense == ref

    def test_runs_exercise_what_they_claim(self, checkers):
        outcome, records = _record(checkers, _multi_gpu_heat)
        assert any(node["kind"] == "peer" for node in records[0][0])
        outcome, records = _record(checkers, _racy_mutant("observe"))
        assert records[0][2]["error"] > 0
        outcome, _ = _record(checkers, _racy_mutant("strict"))
        assert outcome is not None and "racy" in outcome
