"""Unit tests for the event engine (repro.sim.engine)."""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_initial_clock_is_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]
        assert sim.now == 4.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(3.0, lambda: None)

    def test_nan_and_inf_times_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("inf"), lambda: None)

    @pytest.mark.parametrize("until", [math.nan, math.inf, -math.inf])
    def test_nan_and_inf_horizons_rejected(self, until):
        # A NaN horizon would let an event past it fire; an infinite
        # one would park the clock at inf, after which nothing could be
        # scheduled.
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError):
            sim.run(until=until)
        assert fired == []
        assert sim.now == 0.0
        assert sim.pending_count == 1

    def test_rejected_horizon_leaves_empty_simulator_usable(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run(until=math.inf)
        assert sim.now == 0.0
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run(until=None)
        assert fired == [1.0]

    def test_nan_and_inf_delays_rejected(self):
        # NaN fails every comparison, so it must not slip through the
        # relative-delay fast path either (math.isnan, not ``x != x``).
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-float("inf"), lambda: None)

    def test_zero_delay_event_fires_at_current_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count == 1

    def test_peek_skips_cancelled_head(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        assert sim.pending_count == 1

    def test_run_until_includes_events_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(until=3.0)
        assert fired == [3]

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        sim.run()
        assert fired == [1, 5]

    def test_clock_advances_to_until_past_last_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_resumed_run_never_moves_time_backwards(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 10.0

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        error = {}

        def inner():
            try:
                sim.run()
            except SimulationError as exc:
                error["raised"] = exc

        sim.schedule(1.0, inner)
        sim.run()
        assert "raised" in error

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestCascades:
    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(1.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_long_chain_runs_every_event(self):
        sim = Simulator()

        def tick():
            if sim.events_executed < 10_000:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        assert sim.events_executed == 10_000
        assert sim.now == 10_000.0
        assert sim.pending_count == 0

    def test_run_until_advances_clock_even_with_no_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0


class TestLiveCountMaintenance:
    """pending_count is now a maintained counter; these pin the
    bookkeeping against every path that could skew it."""

    def test_cancel_after_fire_is_a_counting_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        handle.cancel()
        assert sim.pending_count == 1

    def test_interleaved_cancel_schedule_run_exact(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_count == 5
        sim.run(until=4.0)  # fires the live events at 2.0 and 4.0
        assert sim.pending_count == 3
