"""Unit tests for link faults (repro.network.faults)."""

import math

import pytest

from repro.core.reservation import AtomicReservationEngine
from repro.core.system import SystemSpec, build_system
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.flows.traffic import WorkloadSpec
from repro.network.faults import DOWN_CAPACITY_BPS, FaultInjector, FaultState
from repro.network.routing import Route, RouteTable
from repro.network.topologies import grid, line, mci_backbone
from repro.sim.engine import Simulator
from repro.sim.random_streams import StreamFactory
from repro.sim.simulation import AnycastSimulation, FaultConfig


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

    def test_fail_and_repair_advance_the_write_counter(self, network):
        # An idle cable: its fail writes the capacity column only, with
        # no release to advance the counter for it.
        faults = FaultState(network)
        state = network.link_state
        before = state.writes
        faults.fail(1, 2)
        assert state.writes > before
        before = state.writes
        faults.repair(1, 2)
        assert state.writes > before

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

    def test_down_cable_reads_down_capacity(self, network):
        faults = FaultState(network)
        faults.fail(2, 3)
        for u, v in ((2, 3), (3, 2)):
            assert network.link(u, v).capacity_bps == DOWN_CAPACITY_BPS
        assert network.link(1, 2).capacity_bps == 10 * 64_000.0

        def bottleneck(path):
            return min(link.available_bps for link in network.path_links(path))

        assert bottleneck((0, 1, 2)) > 0.0
        assert bottleneck((0, 1, 2, 3)) < 0.0

    def test_repair_restores_the_exact_nominal_capacity(self):
        network = line(3, capacity_bps=1e6 / 3)
        nominal = network.link(0, 1).capacity_bps
        faults = FaultState(network)
        faults.fail(0, 1)
        faults.repair(0, 1)
        assert network.link(0, 1).capacity_bps == nominal
        assert network.link(1, 0).capacity_bps == nominal

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


class TestDownLinkRefusal:
    """The plain atomic engine refuses a down hop as it refuses a full one."""

    ROUTE = Route(source=0, destination=3, path=(0, 1, 2, 3))

    def test_refuses_failed_routes(self, network):
        faults = FaultState(network)
        engine = AtomicReservationEngine(network)
        faults.fail(1, 2)
        assert not engine.try_reserve(self.ROUTE, "f", 64_000.0)
        assert (engine.attempts, engine.failures) == (1, 1)
        assert network.total_reserved_bps() == 0.0
        # The refusal is the down link's, like any saturated link's.
        assert network.link(1, 2).rejections == 1

    def test_reserves_healthy_and_repaired_routes(self, network):
        faults = FaultState(network)
        engine = AtomicReservationEngine(network)
        assert engine.try_reserve(self.ROUTE, "f", 64_000.0)
        assert network.link(1, 2).holds("f")
        faults.fail(2, 3)
        faults.repair(2, 3)
        assert engine.try_reserve(self.ROUTE, "g", 64_000.0)

    def test_release_stays_strict_for_normal_departures(self, network):
        faults = FaultState(network)
        engine = AtomicReservationEngine(network)
        assert engine.try_reserve(self.ROUTE, "f", 64_000.0)
        faults.fail(1, 2)  # drops the (1,2) leg of the flow
        with pytest.raises(KeyError):
            engine.release(self.ROUTE, "f")
        # The strict sweep still freed every leg that held the flow.
        assert network.total_reserved_bps() == 0.0


class TestBandwidthSelectorsSeeFaults:
    """WD/D+B and WD/D+H+B read a down cable as no bandwidth.

    While a member's route is up, a member whose route crosses a failed
    cable is never drawn: up routes here never fill, so every request
    is admitted at its first draw.  Both the live columns and a snapshot
    taken after the failure see the fault.
    """

    TOPOLOGIES = {
        "line": (lambda: line(5), 2, (0, 4)),
        "grid": (lambda: grid(3, 3), 4, (0, 2, 6, 8)),
    }

    @pytest.mark.parametrize("refresh_s", [0.0, 1.0], ids=["live", "snapshot"])
    @pytest.mark.parametrize("retrials", [1, 2])
    @pytest.mark.parametrize("algorithm", ["WD/D+B", "WD/D+H+B"])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_never_draws_a_down_member_while_an_up_one_remains(
        self, topology, algorithm, retrials, refresh_s
    ):
        factory, source, members = self.TOPOLOGIES[topology]
        network = factory()
        group = AnycastGroup("A", members)
        down = members[0]
        path = RouteTable(network, source, members).route_to(down).path
        FaultState(network).fail(path[-2], path[-1])
        system = build_system(
            SystemSpec(algorithm, retrials=retrials, bandwidth_refresh_s=refresh_s),
            network,
            (source,),
            group,
            StreamFactory(8),
            clock=lambda: 0.0,
        )
        up = set(members) - {down}
        for flow_id in range(200):
            request = FlowRequest(flow_id, source, group, QoSRequirement(64_000.0))
            system.admit(request, now=0.0)
            assert request.admitted
            if down in request.tried:
                assert up <= set(request.tried[: request.tried.index(down)])
            system.release(request)


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

    A flow killed by a fault is torn down by key, exactly once: the
    driver releases the killed flow's surviving legs with
    ``release_if_held``, cancels its departure and marks the record
    ``released``, so any later release of it is a no-op that cannot
    disturb bandwidth reserved since (e.g. by flows admitted after the
    repair).
    """

    PATH = (0, 1, 2, 3)

    @staticmethod
    def _simulation():
        # Cable faults on (1, 2) and (2, 3) with a mean up-time far past
        # these tests: every fail and repair below is made by hand.
        return AnycastSimulation(
            network_factory=lambda: line(4, capacity_bps=10 * 64_000.0),
            system_spec=SystemSpec("ED", retrials=1),
            workload=WorkloadSpec(
                arrival_rate=1.0, sources=(0,), group=AnycastGroup("A", (3,))
            ),
            warmup_s=0.0,
            measure_s=10.0,
            fault_config=FaultConfig(1e9, 1.0, cables=((1, 2), (2, 3))),
        )

    @staticmethod
    def _admit(simulation, flow_id):
        request = FlowRequest(
            flow_id,
            0,
            simulation.workload.group,
            QoSRequirement(64_000.0),
            lifetime_s=100.0,
        )
        request.driver = simulation
        simulation.on_arrival(request)
        assert request.admitted
        return request

    def _fail(self, simulation, u, v):
        simulation._handle_fault((u, v), simulation.fault_state.fail(u, v))

    def test_fault_runs_share_the_plain_engine(self):
        simulation = self._simulation()
        engine = simulation.system.controller_for(0).reservation
        assert type(engine) is AtomicReservationEngine

    def test_fail_repair_then_late_release(self):
        simulation = self._simulation()
        network = simulation.network
        victim = self._admit(simulation, "victim")

        self._fail(simulation, 1, 2)
        assert victim.released and victim.departure is None
        assert simulation.flows_dropped_by_faults == 1
        assert network.total_reserved_bps() == 0.0
        simulation.fault_state.repair(1, 2)

        # A new flow reuses the capacity after the repair.
        self._admit(simulation, "survivor")
        reserved_before = network.total_reserved_bps()

        # Both a second and an accidental third release are no-ops.
        simulation.system.release(victim)
        simulation.system.release(victim)
        assert network.total_reserved_bps() == reserved_before
        for link in network.path_links(self.PATH):
            assert link.holds("survivor")
            assert not link.holds("victim")

    def test_release_after_partial_fault_teardown(self):
        simulation = self._simulation()
        network = simulation.network
        flow = self._admit(simulation, "f")
        # The fault only strips the failed cable's own reservations;
        # the driver releases the surviving legs by key.
        self._fail(simulation, 2, 3)
        assert network.total_reserved_bps() == 0.0
        simulation.system.release(flow)  # idempotent replay
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
