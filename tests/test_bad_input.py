"""Bad input at four public entry points is a typed error naming the
argument, never a raw numpy error, a silent truncation, a NaN or a hang.

``TidaAcc.add_array`` raises a ``TidaError`` (or the decomposition's and
slot manager's own ``ReproError`` for ranges), ``Service.submit`` a
``ServiceError`` naming the workload knob, ``LoadGenerator`` /
``TrafficPattern`` a ``ServiceError`` naming the field, and
``FaultPlan.from_spec`` a ``FaultPlanError`` naming the key.  The regression
tests pin each defect; the hypothesis suites throw mixed valid and
invalid values at each entry point, run every call in a daemon thread
with a time limit, and require that it either returns (a submitted job
then runs to a result) or raises a ``ReproError`` naming an argument.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro import TidaAcc
from repro.errors import FaultPlanError, ReproError, ServiceError, TidaError
from repro.faults.plan import FaultPlan, FaultRule
from repro.service import LoadGenerator, Service, TrafficPattern
from repro.service.workloads import WORKLOADS

#: Seconds a single call may take before it counts as a hang.
TIME_LIMIT = 20.0


def within_limit(call):
    """Run ``call`` in a daemon thread; (returned value, raised error).
    A call still running after ``TIME_LIMIT`` fails the test (the thread
    is a daemon, so a hung call cannot keep the test process alive)."""
    out: list = []

    def run():
        try:
            out.append((call(), None))
        except Exception as exc:  # noqa: BLE001 - the caller asserts on it
            out.append((None, exc))

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(TIME_LIMIT)
    assert not t.is_alive(), "the call did not return within the time limit"
    return out[0]


def assert_names(exc, names):
    """``exc`` is a ReproError whose message names one of ``names``."""
    assert isinstance(exc, ReproError), f"raw {type(exc).__name__}: {exc}"
    assert any(n in str(exc) for n in names), str(exc)


# -- TidaAcc.add_array ------------------------------------------------------


def add_array(**kwargs):
    lib = TidaAcc(mode="timing")
    kwargs.setdefault("domain", (8, 8))
    if "region_shape" not in kwargs:
        kwargs.setdefault("n_regions", 2)
    return lib.add_array("u", **kwargs)


class TestAddArrayArguments:
    @pytest.mark.parametrize("arg, value", [
        ("dtype", "float33"),      # was a raw TypeError
        ("n_regions", 2.7),        # was a raw TypeError
        ("domain", (8.9, 8)),      # was truncated to (8, 8)
        ("n_slots", 2.5),          # was truncated, or a raw TypeError
        ("domain", "88"),          # was a 1-D domain of (8, 8)?
        ("halo", 1.5),
        ("axis", 0.5),
        ("region_shape", (3.5, 8)),
    ])
    def test_bad_argument_is_a_tida_error_naming_it(self, arg, value):
        with pytest.raises(TidaError, match=arg):
            add_array(**{arg: value})

    def test_integer_like_values_still_work(self):
        ta = add_array(domain=(np.int64(8), 8), n_regions=np.int32(2),
                       n_slots=np.int64(1), dtype="float32")
        assert ta.domain.shape == (8, 8)

    @pytest.mark.parametrize("mode", ["timing", "functional"])
    @pytest.mark.parametrize("fill", [
        "x",                       # a raw ValueError in functional mode, silent in timing
        [1, 2],                    # the same
        float("nan"),              # a field of NaN in both modes
        float("inf"),
        True,
    ])
    def test_bad_fill_is_named_in_both_modes(self, mode, fill):
        lib = TidaAcc(mode=mode)
        now = lib.now
        with pytest.raises(TidaError, match="fill"):
            lib.add_array("u", (8, 8), n_regions=2, fill=fill)
        # refused before the host allocation (an API call that costs time)
        assert lib.now == now and not lib.has_field("u")

    @pytest.mark.parametrize("fill", [None, 0, np.int32(3), 2.5, np.float32(-1.5)])
    def test_finite_real_fill_still_works(self, fill):
        lib = TidaAcc(mode="functional")
        ta = lib.add_array("u", (8, 8), n_regions=2, fill=fill)
        assert np.all(ta.to_global() == (0.0 if fill is None else float(fill)))


_ADD_ARRAY_NAMES = ("domain", "region_shape", "n_regions", "regions", "axis",
                    "halo", "ghost", "dtype", "fill", "n_slots", "slot", "extent")

_junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=True),
                  st.text(max_size=3), st.just(()), st.just([1.5]))


@st.composite
def add_array_calls(draw):
    """Valid-typed arguments (ranges may still be wrong), at most one of
    them replaced by junk."""
    ndim = draw(st.integers(1, 3))
    kw = {"domain": draw(st.tuples(*[st.integers(1, 12)] * ndim))}
    if draw(st.booleans()):
        kw["n_regions"] = draw(st.integers(-1, 14))
    else:
        kw["region_shape"] = draw(st.tuples(*[st.integers(0, 12)] * ndim))
    for arg, good in (("n_slots", st.integers(-1, 6)), ("axis", st.integers(-1, 3)),
                      ("halo", st.integers(-1, 2)),
                      ("dtype", st.sampled_from(["float64", "float32", "int32"])),
                      ("fill", st.floats(-5, 5) | st.integers(-5, 5))):
        if draw(st.booleans()):
            kw[arg] = draw(good)
    bad = draw(st.sampled_from([None, *kw]))
    if bad is not None:
        kw[bad] = draw(st.one_of(_junk, st.lists(st.floats(0, 12), min_size=1,
                                                 max_size=3).map(tuple)))
    return kw


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(add_array_calls(), st.sampled_from(["timing", "functional"]))
def test_add_array_returns_or_names_the_argument(kwargs, mode):
    def call():
        return TidaAcc(mode=mode).add_array("u", **kwargs)

    value, exc = within_limit(call)
    event("rejected" if exc is not None else "added")
    if exc is not None:
        assert_names(exc, _ADD_ARRAY_NAMES)


# -- Service.submit(workload_kwargs=...) ---------------------------------------


def _service():
    svc = Service(total_slots=16)
    svc.add_tenant("a", 1.0)
    svc.add_tenant("b", 1.0)
    return svc


SMALL = {"shape": (8, 8, 8), "steps": 1}


class TestSubmitKnobValues:
    @pytest.mark.parametrize("workload, knob, value", [
        ("heat", "seed", -1),             # numpy ValueError at admission
        ("heat", "seed", "x"),            # numpy TypeError at admission
        ("coeff-heat", "kappa_seed", -3),  # numpy ValueError at admission
        ("heat", "coef", float("nan")),   # ran to NaN fields
        ("wave", "c2", float("inf")),     # ran to NaN fields
        ("heat", "steps", 2.5),           # ran 2 steps
        ("heat", "shape", (32.7, 16, 16)),  # ran a 32-row domain
    ])
    def test_bad_value_is_a_service_error_naming_the_knob(self, workload, knob, value):
        svc = _service()
        with pytest.raises(ServiceError, match=knob) as info:
            svc.submit("b", workload=workload,
                       workload_kwargs={**SMALL, knob: value})
        assert info.value.tenant == "b"
        assert info.value.reason == "bad-submission"

    def test_co_tenant_job_still_runs(self):
        svc = _service()
        good = svc.submit("a", workload="heat", workload_kwargs=dict(SMALL, seed=1))
        with pytest.raises(ServiceError, match="seed"):
            svc.submit("b", workload="heat", workload_kwargs=dict(SMALL, seed=-1))
        report = svc.run()
        svc.close()
        assert list(report.jobs) == [good]

    def test_numpy_integers_and_lists_pass(self):
        svc = _service()
        job = svc.submit("a", workload="coeff-heat", workload_kwargs={
            "shape": [np.int64(8), 8, 8], "steps": np.int32(1),
            "seed": np.uint8(3), "kappa_seed": np.int64(7), "coef": np.float32(0.1)})
        report = svc.run()
        svc.close()
        assert report.jobs[job].iterations == 1


_KNOBS = {
    "shape": st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
    "steps": st.integers(0, 2),
    "seed": st.one_of(st.none(), st.integers(0, 2**40)),
    "kappa_seed": st.integers(0, 100),
    "coef": st.floats(-1, 1),
    "c2": st.floats(-1, 1),
    "kernel_iteration": st.integers(1, 3),
}

_bad_knob = st.one_of(
    st.none(), st.booleans(), st.integers(-5, -1), st.floats(allow_nan=True),
    st.text(max_size=3), st.just(()), st.just((4.5, 4)), st.just((0, 4)))


@st.composite
def submissions(draw):
    """Valid knobs, at most one of them replaced by junk."""
    knobs = {name: draw(good) for name, good in _KNOBS.items() if draw(st.booleans())}
    bad = draw(st.sampled_from([None, *_KNOBS]))
    if bad is not None:
        knobs[bad] = draw(_bad_knob)
    return draw(st.sampled_from(WORKLOADS)), knobs


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(submissions())
def test_submit_returns_or_names_the_knob(case):
    workload, knobs = case

    def call():
        svc = _service()
        try:
            job = svc.submit("a", workload=workload, workload_kwargs=knobs)
        except ReproError as exc:
            return exc
        report = svc.run()
        svc.close()
        return report.jobs[job]

    value, exc = within_limit(call)
    assert exc is None, f"raw {type(exc).__name__}: {exc}"
    if isinstance(value, ReproError):
        event("rejected at submit")
        assert_names(value, tuple(_KNOBS))
    else:
        event("ran")
        assert value.digests and value.finished >= value.admitted
        assert math.isfinite(value.latency)


# -- LoadGenerator and TrafficPattern -------------------------------------------


class TestLoadGeneratorInput:
    def test_zero_burst_size_does_not_hang(self):
        value, exc = within_limit(
            lambda: LoadGenerator(0, ["a"], pattern=TrafficPattern(burst_size=0))
            .arrivals(3))
        assert isinstance(exc, ServiceError) and "burst_size" in str(exc)

    @pytest.mark.parametrize("field, value", [
        ("mean_gap", -1.0),             # numpy ValueError
        ("mean_gap", float("nan")),     # NaN arrival times
        ("burst_gap", float("inf")),
        ("start", float("nan")),
        ("burst_size", 1.5),
    ])
    def test_bad_pattern_field_is_a_service_error_naming_it(self, field, value):
        with pytest.raises(ServiceError, match=field):
            TrafficPattern(**{field: value})

    def test_overflowing_gap_is_not_an_infinite_arrival(self):
        gen = LoadGenerator(0, ["a"], pattern=TrafficPattern(mean_gap=1e307))
        with pytest.raises(ServiceError, match="mean_gap"):
            gen.arrivals(30)

    @pytest.mark.parametrize("n_jobs", [2.5, 0, "3", True])
    def test_bad_job_count(self, n_jobs):
        with pytest.raises(ServiceError, match="n_jobs"):
            LoadGenerator(0, ["a"]).arrivals(n_jobs)

    @pytest.mark.parametrize("seed", [-1, 2.5, "7"])
    def test_bad_seed(self, seed):
        with pytest.raises(ServiceError, match="seed"):
            LoadGenerator(seed, ["a"])


_LOADGEN_NAMES = ("seed", "tenant", "pattern", "mean_gap", "burst_size", "burst_gap",
                  "start", "n_jobs", "workload")

_num_junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=True),
                      st.integers(-3, -1), st.text(max_size=2))


@st.composite
def load_calls(draw):
    """Valid arguments, at most one of them replaced by junk."""
    kw = {
        "seed": draw(st.integers(0, 2**40)),
        "tenants": draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3)),
        "workloads": ("heat", "compute"),
        "n_jobs": draw(st.integers(1, 40)),
        "mean_gap": draw(st.floats(0, 1e-2)),
        "burst_size": draw(st.integers(1, 4)),
        "burst_gap": draw(st.floats(0, 1e-4)),
        "start": draw(st.floats(0, 1.0)),
    }
    bad = draw(st.sampled_from([None, *kw]))
    if bad == "tenants":
        kw[bad] = draw(st.sampled_from([[], "ab", [1, "a"]]))
    elif bad == "workloads":
        kw[bad] = draw(st.sampled_from([("nope",), (), "heat"]))
    elif bad is not None:
        kw[bad] = draw(_num_junk)
    return kw


@settings(max_examples=200, deadline=None)
@given(load_calls())
def test_load_generator_returns_or_names_the_field(kw):
    def call():
        pattern = TrafficPattern(**{f: kw[f] for f in
                                    ("mean_gap", "burst_size", "burst_gap", "start")})
        gen = LoadGenerator(kw["seed"], kw["tenants"], workloads=kw["workloads"],
                            pattern=pattern)
        return gen.arrivals(kw["n_jobs"])

    value, exc = within_limit(call)
    event("rejected" if exc is not None else "generated")
    if exc is not None:
        assert_names(exc, _LOADGEN_NAMES)
    else:
        assert len(value) == kw["n_jobs"]
        assert all(math.isfinite(a.t) and a.t >= kw["start"] for a in value)


# -- FaultPlan.from_spec --------------------------------------------------------


class TestFaultPlanSpec:
    @pytest.mark.parametrize("spec, key", [
        ("h2d:after=nan", "after"),          # parsed into a rule that never fired
        ("h2d:after=inf", "after"),
        ("h2d:until=nan", "until"),
        ("h2d:hang=inf,nth=1", "hang"),      # parsed, then killed the run mid-way
        ("sync:hang=nan,nth=1", "hang"),
    ])
    def test_rule_it_cannot_honour_is_refused_at_parse_time(self, spec, key):
        with pytest.raises(FaultPlanError, match=key):
            FaultPlan.from_spec(spec)

    @pytest.mark.parametrize("spec", ["h2d:max_fires=-1", "h2d:max_fires=0",
                                      "copy:p=0.5,max_fires=0"])
    def test_a_rule_capped_below_one_fire_is_refused(self, spec):
        with pytest.raises(FaultPlanError, match="max_fires"):   # parsed, never fired
            FaultPlan.from_spec(spec)

    @pytest.mark.parametrize("kwargs, key", [
        ({"after_t": float("nan")}, "after_t"),
        ({"after_t": float("-inf")}, "after_t"),
        ({"until_t": float("nan")}, "until_t"),
        ({"kind": "hang", "hang_seconds": float("inf")}, "hang_seconds"),
        ({"max_fires": -1}, "max_fires"),          # accepted, never fired
        ({"max_fires": 0}, "max_fires"),
        ({"max_fires": 2.5}, "max_fires"),         # accepted as a count
        ({"max_fires": True}, "max_fires"),
        ({"after_t": "1"}, "after_t"),             # raw TypeError from math.isfinite
        ({"until_t": "2"}, "until_t"),
        ({"kind": "hang", "hang_seconds": "1"}, "hang_seconds"),
        ({"nth": "2"}, "nth"),                     # raw TypeError from a comparison
        ({"nth": 2.0}, "nth"),
        ({"p": "0.5"}, "p must"),
        ({"p": None, "oom_bytes": 1.5, "kind": "pressure", "op": "malloc"}, "oom_bytes"),
    ])
    def test_direct_construction_is_checked_too(self, kwargs, key):
        with pytest.raises(FaultPlanError, match=key):
            FaultRule(**{"op": "h2d", **kwargs})

    def test_numpy_numbers_are_numbers(self):
        rule = FaultRule(op="h2d", nth=np.int64(2), after_t=np.float64(0.5),
                         max_fires=np.int32(1))
        assert (rule.nth, rule.after_t, rule.max_fires) == (2, 0.5, 1)

    @pytest.mark.parametrize("spec", [5, None, b"h2d:nth=1", ["h2d:nth=1"]])
    def test_non_string_spec(self, spec):
        with pytest.raises(FaultPlanError, match="spec"):    # was a raw AttributeError
            FaultPlan.from_spec(spec)

    def test_open_ended_window_still_parses(self):
        (rule,) = FaultPlan.from_spec("h2d:after=0.5,until=inf,hang=0.002,nth=1").rules
        assert (rule.after_t, rule.until_t, rule.hang_seconds) == (0.5, math.inf, 0.002)


_FAULT_NAMES = ("op", "nth", "'p'", "p must", "after", "until", "error", "hang", "oom",
                "max_fires", "seed", "spec", "rule item", "rule key")
_SPEC_KEYS = ("field", "nth", "p", "after", "until", "error", "hang", "oom", "max_fires")
_spec_values = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0", "1", "-1", "0.5", "2.5e-3",
                     "u", "", "transfer", "ecc", "oom"]),
    st.integers(-3, 2**40).map(str), st.floats().map(repr), st.text(max_size=3))
#: values each key can take, drawn as often as junk so that whole specs
#: parse often enough to test what they parse into (``max_fires``, drawn
#: in every other clause, from just below its lower bound)
_spec_fits = {
    "field": st.sampled_from(["u", "kappa"]), "nth": st.integers(1, 3).map(str),
    "p": st.sampled_from(["0", "0.5", "1"]), "after": st.sampled_from(["0", "0.5"]),
    "until": st.sampled_from(["1", "inf"]), "error": st.sampled_from(["transfer", "ecc"]),
    "hang": st.just("0.002"), "oom": st.just("1024"),
    "max_fires": st.integers(-2, 3).map(str),
}


@st.composite
def fault_specs(draw):
    """Spec strings of valid and junk clauses, or a value that is not a
    string at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(st.none(), st.integers(), st.floats(), st.binary(max_size=4),
                              st.lists(st.text(max_size=3), max_size=2),
                              st.text(max_size=12)))
    clauses = []
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["h2d", "d2h", "copy", "launch", "malloc", "sync",
                                   "*", "gpu", ""]))
        keys = draw(st.lists(st.sampled_from(_SPEC_KEYS[:-1]), max_size=3, unique=True))
        if draw(st.booleans()):
            keys.append("max_fires")
        items = [f"{key}={draw(_spec_fits[key] | _spec_values)}" for key in keys]
        if draw(st.integers(0, 4)) == 0:
            items.append(draw(st.text(max_size=3)))
        clauses.append(op + (":" + ",".join(items) if items else ""))
    if draw(st.booleans()):
        clauses.append(f"seed={draw(_spec_values)}")
    return "; ".join(clauses)


@settings(max_examples=300, deadline=None)
@given(fault_specs())
def test_fault_spec_returns_or_names_the_key(spec):
    value, exc = within_limit(lambda: FaultPlan.from_spec(spec))
    event("rejected" if exc is not None else "parsed")
    if exc is not None:
        assert_names(exc, _FAULT_NAMES)
        return
    # every parsed rule can fire as written: a finite window start, a
    # window end that is a number, a finite hang, a cap of at least one
    assert isinstance(value, FaultPlan)
    for rule in value.rules:
        assert math.isfinite(rule.after_t) and not math.isnan(rule.until_t)
        assert math.isfinite(rule.hang_seconds)
        assert rule.max_fires is None or rule.max_fires >= 1


_RULE_FIELDS = ("nth", "p", "after_t", "until_t", "hang_seconds", "oom_bytes", "max_fires")
_rule_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(-1, 3),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 2.5, "1", "0.5", [1],
                     np.int64(2), np.float64(0.25)]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["h2d", "malloc", "sync"]), st.sampled_from(["error", "hang", "pressure"]),
       st.dictionaries(st.sampled_from(_RULE_FIELDS), _rule_values, max_size=4))
def test_fault_rule_builds_or_names_the_field(op, kind, kwargs):
    value, exc = within_limit(lambda: FaultRule(op=op, kind=kind, **kwargs))
    event("rejected" if exc is not None else "built")
    if exc is not None:
        assert isinstance(exc, FaultPlanError), f"raw {type(exc).__name__}: {exc}"
        assert_names(exc, _RULE_FIELDS + ("nth", "hang", "oom", "window", "pressure"))
        return
    # a counted field holds a count of at least one, every other field a
    # real number, and the rule can be drawn without a raw error
    for name in ("nth", "max_fires"):
        n = getattr(value, name)
        assert n is None or (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                             and n >= 1)
    assert value.p is None or 0.0 <= value.p <= 1.0
    assert math.isfinite(value.after_t) and math.isfinite(value.hang_seconds)
    assert not math.isnan(value.until_t)
    assert isinstance(value.oom_bytes, (int, np.integer)) and not isinstance(value.oom_bytes, bool)
    FaultPlan([value]).draw(op, "u", value.after_t)
