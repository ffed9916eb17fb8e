"""Differential test: trace busy and overlap time on the interval module.

:meth:`Trace.busy_time`, :meth:`Trace.overlap_time` and
:meth:`Trace.overlap_fraction` build on :mod:`repro.sim.intervals`.
The sort-and-merge code they replaced is kept below verbatim as the
reference, and every result must match it in value and type (compared
by ``repr``, so ``0`` vs ``0.0`` and a last-ulp difference both fail)
over random multi-lane traces with zero-length, touching, nested and
out-of-order spans.
"""

from __future__ import annotations

from typing import Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import Trace, TraceEvent

# -- the reference: the sort-and-merge implementation, verbatim --------------


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def ref_busy_time(events: list[TraceEvent], lane: str) -> float:
    merged = _merge_intervals(
        [(e.start, e.end) for e in events if e.lane == lane]
    )
    return sum(hi - lo for lo, hi in merged)


def ref_overlap_time(
    events: list[TraceEvent], lanes_a: Iterable[str], lanes_b: Iterable[str]
) -> float:
    set_a, set_b = set(lanes_a), set(lanes_b)
    ivs_a = _merge_intervals(
        [(e.start, e.end) for e in events if e.lane in set_a and e.duration > 0]
    )
    ivs_b = _merge_intervals(
        [(e.start, e.end) for e in events if e.lane in set_b and e.duration > 0]
    )
    total = 0.0
    i = j = 0
    while i < len(ivs_a) and j < len(ivs_b):
        lo = max(ivs_a[i][0], ivs_b[j][0])
        hi = min(ivs_a[i][1], ivs_b[j][1])
        if hi > lo:
            total += hi - lo
        if ivs_a[i][1] <= ivs_b[j][1]:
            i += 1
        else:
            j += 1
    return total


def ref_overlap_fraction(
    events: list[TraceEvent], transfer_lanes: Iterable[str],
    compute_lanes: Iterable[str],
) -> float:
    transfer_lanes = list(transfer_lanes)
    transfer = sum(ref_busy_time(events, lane) for lane in transfer_lanes)
    if transfer == 0.0:
        return 0.0
    return ref_overlap_time(events, transfer_lanes, compute_lanes) / transfer


# -- random traces -----------------------------------------------------------

LANES = ("compute", "h2d", "d2h", "host")

#: Quarter-grid times make touching and nested spans common; arbitrary
#: floats make the last-ulp rounding of every length and sum matter.
times = st.integers(0, 40).map(lambda k: k / 4) | st.floats(0.0, 10.0)
lengths = st.sampled_from((0.0, 0.25, 1.0, 2.5)) | st.floats(0.0, 4.0)


@st.composite
def traces(draw) -> Trace:
    """Events in draw order (hence out of time order) on random lanes;
    some are copies of an earlier span on another lane or nested inside
    one, so lanes share and contain each other's endpoints."""
    trace = Trace()
    spans: list[tuple[float, float]] = []
    for _ in range(draw(st.integers(0, 24))):
        shape = draw(st.sampled_from(("fresh", "copy", "nested", "touching")))
        if spans and shape == "copy":
            start, end = draw(st.sampled_from(spans))
        elif spans and shape == "nested":
            lo, hi = draw(st.sampled_from(spans))
            start = draw(st.floats(lo, hi))
            end = draw(st.floats(start, hi))
        elif spans and shape == "touching":
            start = draw(st.sampled_from(spans))[1]
            end = start + draw(lengths)
        else:
            start = draw(times)
            end = start + draw(lengths)
        spans.append((start, end))
        trace.record("op", "kernel", draw(st.sampled_from(LANES)), start, end)
    return trace


lane_sets = st.lists(st.sampled_from(LANES + ("absent",)), max_size=4)


def same(new: float, ref: float) -> bool:
    return repr(new) == repr(ref)


class TestTraceMatchesSortAndMerge:
    @settings(max_examples=400, deadline=None)
    @given(trace=traces(), lanes_a=lane_sets, lanes_b=lane_sets)
    def test_busy_overlap_and_fraction(self, trace, lanes_a, lanes_b):
        events = list(trace)
        for lane in LANES + ("absent",):
            assert same(trace.busy_time(lane), ref_busy_time(events, lane))
        assert same(trace.overlap_time(lanes_a, lanes_b),
                    ref_overlap_time(events, lanes_a, lanes_b))
        assert same(trace.overlap_fraction(lanes_a, lanes_b),
                    ref_overlap_fraction(events, lanes_a, lanes_b))
