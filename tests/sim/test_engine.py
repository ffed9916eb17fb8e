"""Unit tests for the virtual clock and FIFO engines."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import FifoEngine, HostClock


class TestHostClock:
    def test_starts_at_zero(self):
        assert HostClock().now == 0.0

    def test_custom_start(self):
        assert HostClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            HostClock(-1.0)

    def test_advance_accumulates(self):
        clock = HostClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_advance_returns_new_time(self):
        assert HostClock().advance(3.0) == 3.0

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            HostClock().advance(-0.1)

    def test_advance_to_future(self):
        clock = HostClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_past_is_noop(self):
        clock = HostClock(7.0)
        clock.advance_to(3.0)
        assert clock.now == 7.0

    def test_zero_advance_allowed(self):
        clock = HostClock(1.0)
        clock.advance(0.0)
        assert clock.now == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, bad):
        clock = HostClock(1.0)
        with pytest.raises(SimulationError, match="finite"):
            clock.advance(bad)
        with pytest.raises(SimulationError, match="finite"):
            clock.advance_to(bad)
        assert clock.now == 1.0


class TestFifoEngine:
    def test_first_op_starts_at_ready(self):
        eng = FifoEngine("e")
        start, end = eng.submit(ready=2.0, duration=1.0)
        assert (start, end) == (2.0, 3.0)

    def test_back_to_back_ops_queue(self):
        eng = FifoEngine("e")
        eng.submit(0.0, 5.0)
        start, end = eng.submit(0.0, 1.0)
        assert (start, end) == (5.0, 6.0)

    def test_late_ready_op_delays(self):
        eng = FifoEngine("e")
        eng.submit(0.0, 1.0)
        start, end = eng.submit(10.0, 1.0)
        assert (start, end) == (10.0, 11.0)

    def test_early_op_blocks_later_ready_op(self):
        """FIFO discipline: an op issued first but ready late still runs first."""
        eng = FifoEngine("e")
        s1, e1 = eng.submit(10.0, 1.0)   # issued first, ready at 10
        s2, e2 = eng.submit(0.0, 1.0)    # ready immediately but queued after
        assert s2 >= e1

    def test_zero_duration(self):
        eng = FifoEngine("e")
        start, end = eng.submit(1.0, 0.0)
        assert start == end == 1.0

    def test_busy_time_and_count(self):
        eng = FifoEngine("e")
        eng.submit(0.0, 2.0)
        eng.submit(0.0, 3.0)
        assert eng.busy_time == 5.0
        assert eng.op_count == 2

    def test_tail_tracks_last_end(self):
        eng = FifoEngine("e")
        eng.submit(0.0, 2.0)
        assert eng.tail == 2.0

    def test_negative_ready_rejected(self):
        with pytest.raises(SimulationError):
            FifoEngine("e").submit(-1.0, 1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            FifoEngine("e").submit(0.0, -1.0)

    def test_reset(self):
        eng = FifoEngine("e")
        eng.submit(0.0, 2.0)
        eng.reset()
        assert eng.tail == 0.0
        assert eng.busy_time == 0.0
        assert eng.op_count == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.floats(min_value=0, max_value=1e6),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_property_no_overlap_and_monotone(self, ops):
        """Scheduled intervals never overlap and starts respect ready times."""
        eng = FifoEngine("e")
        prev_end = 0.0
        for ready, duration in ops:
            start, end = eng.submit(ready, duration)
            assert start >= prev_end
            assert start >= ready
            assert end == start + duration
            prev_end = end

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e3),
                st.floats(min_value=0, max_value=1e3),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_property_busy_time_is_sum_of_durations(self, ops):
        eng = FifoEngine("e")
        for ready, duration in ops:
            eng.submit(ready, duration)
        assert eng.busy_time == pytest.approx(sum(d for _, d in ops))
