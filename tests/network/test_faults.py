"""Unit tests for link faults (repro.network.faults)."""

import math

import pytest

from repro.network.faults import (
    FaultAwareReservationEngine,
    FaultInjector,
    FaultState,
)
from repro.network.routing import Route
from repro.network.topologies import line, mci_backbone
from repro.sim.engine import Simulator
from repro.sim.random_streams import StreamFactory


@pytest.fixture
def network():
    return line(4, capacity_bps=10 * 64_000.0)


class TestFaultState:
    def test_fail_and_repair_cycle(self, network):
        faults = FaultState(network)
        assert not faults.is_down(1, 2)
        faults.fail(1, 2)
        assert faults.is_down(1, 2)
        assert faults.is_down(2, 1)  # cables fail in both directions
        faults.repair(1, 2)
        assert not faults.is_down(1, 2)

    def test_fail_releases_crossing_reservations(self, network):
        faults = FaultState(network)
        network.link(1, 2).reserve("f1", 64_000.0)
        network.link(2, 1).reserve("f2", 64_000.0)
        network.link(0, 1).reserve("f1", 64_000.0)  # other hop of f1
        killed = faults.fail(1, 2)
        assert set(killed) == {"f1", "f2"}
        assert network.link(1, 2).flow_count == 0
        assert network.link(2, 1).flow_count == 0
        # Reservations elsewhere survive until the caller cleans up.
        assert network.link(0, 1).holds("f1")

    def test_double_fail_is_idempotent(self, network):
        faults = FaultState(network)
        faults.fail(1, 2)
        assert faults.fail(1, 2) == []
        assert len([e for e in faults.events if e.failed]) == 1

    def test_repair_unfailed_is_noop(self, network):
        faults = FaultState(network)
        faults.repair(1, 2)
        assert faults.events == []

    def test_unknown_cable_rejected(self, network):
        faults = FaultState(network)
        with pytest.raises(ValueError):
            faults.fail(0, 3)

    def test_path_is_up(self, network):
        faults = FaultState(network)
        assert faults.path_is_up((0, 1, 2, 3))
        faults.fail(2, 3)
        assert not faults.path_is_up((0, 1, 2, 3))
        assert faults.path_is_up((0, 1, 2))

    def test_down_cables_listing(self, network):
        faults = FaultState(network)
        faults.fail(2, 3)
        faults.fail(0, 1)
        assert faults.down_cables() == [(0, 1), (2, 3)]

    def test_events_trace(self, network):
        faults = FaultState(network)
        faults.fail(1, 2, now=5.0)
        faults.repair(1, 2, now=9.0)
        assert [(e.time, e.failed) for e in faults.events] == [
            (5.0, True),
            (9.0, False),
        ]


class TestFaultAwareReservation:
    ROUTE = Route(source=0, destination=3, path=(0, 1, 2, 3))

    def test_refuses_failed_routes(self, network):
        faults = FaultState(network)
        engine = FaultAwareReservationEngine(network, faults)
        faults.fail(1, 2)
        assert not engine.try_reserve(self.ROUTE, "f", 64_000.0)
        assert (engine.attempts, engine.failures) == (1, 1)
        assert network.total_reserved_bps() == 0.0

    def test_reserves_healthy_routes(self, network):
        faults = FaultState(network)
        engine = FaultAwareReservationEngine(network, faults)
        assert engine.try_reserve(self.ROUTE, "f", 64_000.0)
        assert network.link(1, 2).holds("f")

    def test_release_tolerates_partially_dropped_flows(self, network):
        faults = FaultState(network)
        engine = FaultAwareReservationEngine(network, faults)
        engine.try_reserve(self.ROUTE, "f", 64_000.0)
        faults.fail(1, 2)  # drops the (1,2) leg of the flow
        engine.release(self.ROUTE.path, "f")  # must not raise
        assert network.total_reserved_bps() == 0.0


class TestFaultInjector:
    def test_injects_and_repairs(self):
        network = mci_backbone()
        faults = FaultState(network)
        simulator = Simulator()
        injector = FaultInjector(
            simulator,
            faults,
            StreamFactory(1).stream("faults"),
            mean_time_to_failure_s=50.0,
            mean_time_to_repair_s=10.0,
        )
        injector.start()
        simulator.run(until=500.0)
        assert injector.failures_injected > 0
        fails = [e for e in faults.events if e.failed]
        repairs = [e for e in faults.events if not e.failed]
        assert len(fails) >= len(repairs) >= 1

    def test_on_fail_callback_receives_killed_flows(self):
        network = line(3, capacity_bps=64_000.0)
        network.link(0, 1).reserve("victim", 64_000.0)
        faults = FaultState(network)
        simulator = Simulator()
        observed = []
        injector = FaultInjector(
            simulator,
            faults,
            StreamFactory(2).stream("faults"),
            mean_time_to_failure_s=1.0,
            mean_time_to_repair_s=1000.0,
            cables=[(0, 1)],
            on_fail=lambda cable, killed: observed.append((cable, killed)),
        )
        injector.start()
        simulator.run(until=50.0)
        assert observed
        cable, killed = observed[0]
        assert cable == (0, 1)
        assert killed == ["victim"]

    def test_parameter_validation(self):
        network = line(3)
        with pytest.raises(ValueError):
            FaultInjector(
                Simulator(),
                FaultState(network),
                StreamFactory(0).stream("f"),
                mean_time_to_failure_s=0.0,
                mean_time_to_repair_s=1.0,
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_means_rejected(self, value):
        network = line(3)
        for mttf, mttr in ((value, 1.0), (1.0, value)):
            with pytest.raises(ValueError, match="finite"):
                FaultInjector(
                    Simulator(),
                    FaultState(network),
                    StreamFactory(0).stream("f"),
                    mean_time_to_failure_s=mttf,
                    mean_time_to_repair_s=mttr,
                )

    def test_unknown_cable_rejected(self):
        network = line(3)
        with pytest.raises(ValueError, match="no cable"):
            FaultInjector(
                Simulator(),
                FaultState(network),
                StreamFactory(0).stream("f"),
                mean_time_to_failure_s=1.0,
                mean_time_to_repair_s=1.0,
                cables=[(0, 1), (0, 2)],
            )


class TestInjectorStop:
    def test_stop_lets_calendar_drain(self):
        network = mci_backbone()
        faults = FaultState(network)
        simulator = Simulator()
        injector = FaultInjector(
            simulator,
            faults,
            StreamFactory(3).stream("faults"),
            mean_time_to_failure_s=10.0,
            mean_time_to_repair_s=5.0,
        )
        injector.start()
        simulator.run(until=100.0)
        injector.stop()
        simulator.run()  # must terminate: timers are now no-ops
        assert simulator.peek() is None

    def test_no_failures_after_stop(self):
        network = mci_backbone()
        faults = FaultState(network)
        simulator = Simulator()
        injector = FaultInjector(
            simulator,
            faults,
            StreamFactory(4).stream("faults"),
            mean_time_to_failure_s=10.0,
            mean_time_to_repair_s=5.0,
        )
        injector.start()
        simulator.run(until=50.0)
        injector.stop()
        before = injector.failures_injected
        simulator.run()
        assert injector.failures_injected == before


class TestIdempotentRelease:
    """Regression: fail -> repair -> late release must be a no-op replay.

    A flow killed by a fault has already lost its reservations on the
    failed cable (and, via the kill callback, everywhere else).  The
    flow's departure timer still fires later and calls release again;
    that late release must not raise and must not disturb bandwidth
    reserved since (e.g. by flows admitted after the repair).
    """

    ROUTE = Route(source=0, destination=3, path=(0, 1, 2, 3))

    def test_fail_repair_then_late_release(self, network):
        faults = FaultState(network)
        engine = FaultAwareReservationEngine(network, faults)
        assert engine.try_reserve(self.ROUTE, "victim", 64_000.0)

        killed = faults.fail(1, 2)
        assert killed == ["victim"]
        # The kill callback's end-to-end teardown (idempotent by path).
        engine.release(self.ROUTE.path, "victim")
        faults.repair(1, 2)

        # A new flow reuses the capacity after the repair.
        assert engine.try_reserve(self.ROUTE, "survivor", 64_000.0)
        reserved_before = network.total_reserved_bps()

        # The victim's departure fires long after fail/repair: both the
        # second and an accidental third release must be no-ops.
        engine.release(self.ROUTE.path, "victim")
        engine.release(self.ROUTE.path, "victim")
        assert network.total_reserved_bps() == reserved_before
        for u, v in zip(self.ROUTE.path, self.ROUTE.path[1:]):
            assert network.link(u, v).holds("survivor")
            assert not network.link(u, v).holds("victim")

    def test_release_after_partial_fault_teardown(self, network):
        faults = FaultState(network)
        engine = FaultAwareReservationEngine(network, faults)
        assert engine.try_reserve(self.ROUTE, "f", 64_000.0)
        # The fault only strips the failed cable's own reservations...
        faults.fail(2, 3)
        assert network.link(0, 1).holds("f")
        # ...so release must clean the survivors and skip the rest.
        engine.release(self.ROUTE.path, "f")
        engine.release(self.ROUTE.path, "f")  # idempotent replay
        assert network.total_reserved_bps() == 0.0


class TestInjectorStopCancels:
    def _injector(self, seed):
        network = mci_backbone()
        faults = FaultState(network)
        simulator = Simulator()
        injector = FaultInjector(
            simulator,
            faults,
            StreamFactory(seed).stream("faults"),
            mean_time_to_failure_s=10.0,
            mean_time_to_repair_s=5.0,
        )
        return simulator, injector

    def test_stop_cancels_pending_timers(self):
        simulator, injector = self._injector(5)
        injector.start()
        simulator.run(until=30.0)
        assert simulator.pending_count > 0
        injector.stop()
        # Cancellation empties the calendar immediately -- no need to
        # run the clock forward through dead timers.
        assert simulator.pending_count == 0
        assert simulator.peek() is None

    def test_stop_freezes_fault_state(self):
        simulator, injector = self._injector(6)
        injector.start()
        simulator.run(until=50.0)
        injector.stop()
        down_before = injector.faults.down_cables()
        transitions_before = len(injector.faults.events)
        simulator.run()
        assert injector.faults.down_cables() == down_before
        assert len(injector.faults.events) == transitions_before

    def test_restart_after_stop(self):
        simulator, injector = self._injector(7)
        injector.start()
        simulator.run(until=50.0)
        injector.stop()
        injector.start()  # re-arm: injection resumes
        before = injector.failures_injected
        simulator.run(until=200.0)
        assert injector.failures_injected > before
        injector.stop()
        simulator.run()
        assert simulator.peek() is None
