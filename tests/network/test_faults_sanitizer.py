"""Bandwidth conservation under link faults, with the sanitizer armed.

A cable failure kills the flows crossing it (both directions fail
together — a fiber cut), their reservations must be released along
their *whole* route, and repairs must restore full capacity.  These
tests run with the runtime sanitizer enabled, so every reserve/release
on the way is also checked against the link-accounting invariants.
"""

import pytest

from repro import invariants
from repro.core.reservation import AtomicReservationEngine
from repro.core.system import SystemSpec
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.flows.traffic import WorkloadSpec
from repro.network.faults import FaultState
from repro.network.link import ADMIT_EPSILON_BPS, InsufficientBandwidthError, Link
from repro.network.routing import Route
from repro.network.topologies import (
    MCI_GROUP_MEMBERS,
    MCI_SOURCES,
    line,
    mci_backbone,
)
from repro.sim.simulation import AnycastSimulation, FaultConfig


@pytest.fixture
def sanitizer():
    """Arm the sanitizer for one test, restoring the prior state."""
    previous = invariants.is_enabled()
    invariants.set_enabled(True)
    yield
    invariants.set_enabled(previous)


class TestFailRepairConservation:
    def test_fail_releases_both_directions_and_conserves(self, sanitizer):
        network = line(4)
        assert network.reserve_links(network.path_links([0, 1, 2, 3]), "f1", 100.0)
        assert network.reserve_links(network.path_links([3, 2, 1, 0]), "f2", 50.0)
        before = network.total_reserved_bps()
        assert before == pytest.approx(300.0 + 150.0)

        faults = FaultState(network)
        killed = faults.fail(1, 2, now=5.0)
        # Both flows crossed the failed cable, one per direction.
        assert sorted(killed, key=repr) == ["f1", "f2"]
        assert faults.is_down(1, 2) and faults.is_down(2, 1)
        # The failed cable's two directed links hold nothing now.
        assert network.link(1, 2).reserved_bps == 0.0
        assert network.link(2, 1).reserved_bps == 0.0

        # Finish the teardown along the rest of each route, as the
        # owning simulation would, then nothing may remain reserved.
        for path, flow_id in (([0, 1, 2, 3], "f1"), ([3, 2, 1, 0], "f2")):
            for link in network.path_links(path):
                link.release_if_held(flow_id)
        invariants.check_network(network)
        assert network.total_reserved_bps() == 0.0

    def test_repair_restores_service(self, sanitizer):
        network = line(3)
        faults = FaultState(network)
        faults.fail(0, 1)
        assert faults.is_down(0, 1)
        faults.repair(0, 1)
        assert not faults.is_down(0, 1)
        assert network.reserve_links(network.path_links([0, 1, 2]), "f1", 100.0)
        invariants.check_network(network)
        # Fail/repair transitions were both recorded for tracing.
        assert [event.failed for event in faults.events] == [True, False]

    def test_fail_is_idempotent(self, sanitizer):
        network = line(3)
        faults = FaultState(network)
        first = faults.fail(0, 1)
        second = faults.fail(0, 1)
        assert first == [] and second == []
        assert len(faults.events) == 1


class TestDownValueEpsilonEdge:
    """A down link refuses even a request inside the admission slack."""

    @pytest.mark.parametrize(
        "bandwidth", [ADMIT_EPSILON_BPS, ADMIT_EPSILON_BPS / 2, 5e-324]
    )
    def test_down_link_refuses_every_positive_request(self, sanitizer, bandwidth):
        QoSRequirement(bandwidth)  # a valid request asks for this much
        network = line(4)
        FaultState(network).fail(1, 2)
        link = network.link(1, 2)
        assert not link.can_admit(bandwidth)
        with pytest.raises(InsufficientBandwidthError):
            link.reserve("f", bandwidth)
        path = (0, 1, 2, 3)
        assert not network.reserve_links(network.path_links(path), "f", bandwidth)
        engine = AtomicReservationEngine(network)
        assert not engine.try_reserve(Route(0, 3, path), "f", bandwidth)
        invariants.check_network(network)
        assert network.total_reserved_bps() == 0.0

    def test_zero_capacity_admits_inside_the_slack(self):
        # Why a down link does not read 0.0: the slack would let a
        # positive request at or below it through.
        assert Link(0, 1, capacity_bps=0.0).can_admit(ADMIT_EPSILON_BPS)


class TestFaultySimulationConservation:
    @pytest.mark.slow
    def test_faulty_run_conserves_bandwidth(self, sanitizer):
        """A full fault-injected run, sanitizer on: after every flow
        departs or is killed, no bandwidth may remain reserved."""
        simulation = AnycastSimulation(
            network_factory=mci_backbone,
            system_spec=SystemSpec("WD/D+H", retrials=2),
            workload=WorkloadSpec(
                arrival_rate=25.0,
                sources=MCI_SOURCES,
                group=AnycastGroup("A", MCI_GROUP_MEMBERS),
            ),
            warmup_s=10.0,
            measure_s=120.0,
            seed=11,
            fault_config=FaultConfig(
                mean_time_to_failure_s=20.0,
                mean_time_to_repair_s=5.0,
            ),
        )
        result = simulation.run()
        assert result.requests > 0
        # Faults must actually have fired for this test to mean much.
        assert simulation.fault_state is not None
        assert simulation.fault_state.events
        assert simulation.flows_dropped_by_faults > 0
        # Drain the departures that outlive the measurement horizon
        # (the injector is stopped, so the calendar empties).
        simulation.simulator.run()
        invariants.check_network(simulation.network)
        assert simulation.network.total_reserved_bps() == 0.0
