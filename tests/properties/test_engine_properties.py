"""Property-based tests for the event engine and statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.stats import RunningStats


class TestEventOrdering:
    @settings(max_examples=60, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=50,
        )
    )
    def test_events_always_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=40, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30
        ),
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30),
    )
    def test_cancelled_events_never_fire(self, delays, cancel_mask):
        sim = Simulator()
        fired = []
        handles = []
        for i, delay in enumerate(delays):
            handles.append(sim.schedule(delay, lambda i=i: fired.append(i)))
        cancelled = set()
        for i, (handle, cancel) in enumerate(zip(handles, cancel_mask)):
            if cancel:
                handle.cancel()
                cancelled.add(i)
        sim.run()
        assert set(fired).isdisjoint(cancelled)
        assert len(fired) == len(delays) - len(cancelled & set(range(len(delays))))

    @settings(max_examples=40, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20
        ),
        horizon=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_run_until_respects_horizon(self, delays, horizon):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run(until=horizon)
        assert all(t <= horizon for t in fired)
        assert sim.now == max([horizon] + fired)


class TestRunningStatsProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    def test_matches_direct_computation(self, values):
        stats = RunningStats()
        for value in values:
            stats.record(value)
        n = len(values)
        mean = sum(values) / n
        assert stats.count == n
        assert abs(stats.mean - mean) < 1e-6 * max(1.0, abs(mean))
        if n > 1:
            variance = sum((v - mean) ** 2 for v in values) / (n - 1)
            assert abs(stats.variance - variance) <= 1e-5 * max(1.0, variance)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=50),
        right=st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=50),
    )
    def test_merge_equals_concatenation(self, left, right):
        merged = RunningStats()
        for value in left:
            merged.record(value)
        other = RunningStats()
        for value in right:
            other.record(value)
        merged.merge(other)
        combined = RunningStats()
        for value in left + right:
            combined.record(value)
        assert merged.count == combined.count
        assert abs(merged.mean - combined.mean) < 1e-9 * max(1.0, abs(combined.mean))
        assert abs(merged.variance - combined.variance) <= 1e-6 * max(
            1.0, combined.variance
        )


# ----------------------------------------------------------------------
# Dispatch-order oracle
# ----------------------------------------------------------------------
# Offsets mix exact ties (0.0 and a coarse grid) with continuous values
# so same-timestamp runs, and horizons that fall on them, are common.
_offsets = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)

# What an event does when it fires: nothing, schedule a child (which
# does nothing, so every cascade is finite), or cancel another event,
# counted back from the latest one scheduled.
_actions = st.one_of(
    st.none(),
    st.tuples(st.just("child"), _offsets),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=7)),
)

_schedule = st.tuples(st.just("schedule"), _offsets, _actions)
_cancel = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=7))

# one_of picks its branches evenly: scheduling and cancelling are
# listed more than once so that many events are pending when a run
# starts, and some of them cancelled.
_operations = st.lists(
    st.one_of(
        _schedule,
        _schedule,
        _schedule,
        st.tuples(st.just("schedule_at"), _offsets, _actions),
        _cancel,
        _cancel,
        st.tuples(st.just("run_until"), _offsets),
        st.tuples(st.just("run")),
    ),
    min_size=10,
    max_size=80,
)


class _Reference:
    """Test-local model of the engine: a dict of live events.

    The next event is always the live one with the smallest
    ``(time, insertion index)``; nothing else is modelled.
    """

    def __init__(self):
        self.now = 0.0
        self.live: dict[int, float] = {}

    def peek(self):
        return min(self.live.values(), default=None)

    def pop(self):
        index = min(self.live, key=lambda i: (self.live[i], i))
        self.now = self.live.pop(index)
        return index


class _Lockstep:
    """Applies each operation to a Simulator and to the reference."""

    def __init__(self, check):
        self.sim = Simulator(check_invariants=check)
        self.ref = _Reference()
        self.handles = []
        self.actions = {True: [], False: []}  # per side, by index
        self.fired = {True: [], False: []}
        self.ref_scheduled = 0

    # -- both sides --------------------------------------------------
    def _fire(self, real, index):
        self.fired[real].append(index)
        action = self.actions[real][index]
        if action is None:
            return
        if action[0] == "child":
            self._schedule(real, "schedule", action[1], None)
        else:
            self._cancel(real, action[1])

    def _schedule(self, real, how, offset, action):
        self.actions[real].append(action)
        if not real:
            self.ref.live[self.ref_scheduled] = self.ref.now + offset
            self.ref_scheduled += 1
            return
        index = len(self.handles)

        def callback():
            self._fire(True, index)

        if how == "schedule":
            handle = self.sim.schedule(offset, callback)
        else:
            handle = self.sim.schedule_at(self.sim.now + offset, callback)
        self.handles.append(handle)

    def _cancel(self, real, pick):
        # Count back from the latest event scheduled: recent events are
        # the ones most likely still pending.
        if real:
            if self.handles:
                self.handles[-1 - pick % len(self.handles)].cancel()
        elif self.ref_scheduled:
            self.ref.live.pop(self.ref_scheduled - 1 - pick % self.ref_scheduled, None)

    # -- the reference's event loop ----------------------------------
    def _ref_run(self, until=None):
        ref = self.ref
        while ref.live:
            if until is not None and ref.peek() > until:
                break
            self._fire(False, ref.pop())
        if until is not None and ref.now < until:
            ref.now = until

    # -- one operation ------------------------------------------------
    def apply(self, op):
        kind, sim, ref = op[0], self.sim, self.ref
        if kind in ("schedule", "schedule_at"):
            self._schedule(True, kind, op[1], op[2])
            self._schedule(False, kind, op[1], op[2])
        elif kind == "cancel":
            self._cancel(True, op[1])
            self._cancel(False, op[1])
        elif kind == "run_until":
            until = ref.now + op[1]
            sim.run(until=until)
            self._ref_run(until=until)
        else:
            sim.run()
            self._ref_run()
        assert self.fired[True] == self.fired[False]
        assert sim.now == ref.now
        assert sim.peek() == ref.peek()
        assert sim.pending_count == len(ref.live)
        assert sim.events_executed == len(self.fired[True])


class TestDispatchOrderOracle:
    """The engine fires live events in (time, insertion) order.

    Whatever the interleaving of scheduling, cancelling (also from
    inside callbacks), bounded and unbounded runs, the fired sequence
    and the observable clock and queue state match the reference, with
    the sanitizer on and off.
    """

    @pytest.mark.parametrize("check", [False, True])
    @settings(max_examples=200, deadline=None)
    @given(operations=_operations)
    def test_matches_reference(self, check, operations):
        lockstep = _Lockstep(check)
        for op in operations:
            lockstep.apply(op)
