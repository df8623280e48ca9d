"""The one reservation address, on every plane.

An admitted record's ``route`` and ``reservation_key`` name exactly the
legs it holds, a refused record names none, and releasing is a no-op
for a refused record and for a second release.  Checked for the atomic
AC-router, the signalled AC-router (whose release is a TEAR sweep) and
the GDI controller.
"""

import pytest

from repro.baselines.gdi import GDIController
from repro.core.admission import ACRouter
from repro.core.retrial import CounterRetrialPolicy
from repro.core.selection import EvenDistribution, SelectionContext
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.routing import RouteTable
from repro.network.topologies import line
from repro.signaling.admission import SignalledACRouter
from repro.signaling.rsvp import SignalledReservationEngine
from repro.sim.engine import Simulator
from repro.sim.random_streams import StreamFactory

SOURCE = 1
MEMBERS = (0, 3)
BANDWIDTH = 64_000.0
PLANES = ("atomic", "signalled", "GDI")


class Plane:
    """One controller and a way to drive its decisions to completion."""

    def __init__(self, kind, network):
        group = AnycastGroup("G", MEMBERS)
        self.simulator = None
        if kind == "GDI":
            self.controller = GDIController(network, group)
            return
        context = SelectionContext(
            network=network, routes=RouteTable(network, SOURCE, MEMBERS), group=group
        )
        arguments = dict(
            network=network,
            source=SOURCE,
            group=group,
            selector=EvenDistribution(context),
            retrial_policy=CounterRetrialPolicy(2),
            rng=StreamFactory(7).stream("router"),
        )
        if kind == "atomic":
            self.controller = ACRouter(**arguments)
            return
        self.simulator = Simulator()
        self.controller = SignalledACRouter(
            **arguments, engine=SignalledReservationEngine(self.simulator, network)
        )

    def admit(self, flow_id):
        request = FlowRequest(
            flow_id=flow_id,
            source=SOURCE,
            group=AnycastGroup("G", MEMBERS),
            qos=QoSRequirement(bandwidth_bps=BANDWIDTH),
        )
        if self.simulator is None:
            return self.controller.admit(request)
        decided = []
        self.controller.admit(request, decided.append)
        self.simulator.run()
        assert decided == [request]
        return request

    def release(self, record):
        self.controller.release(record)
        if self.simulator is not None:
            self.simulator.run()  # deliver the TEAR sweep

    def messages(self):
        reservation = getattr(self.controller, "reservation", None)
        return getattr(reservation, "total_messages", 0)


def ledgers(network):
    return {
        (link.source, link.target): {
            key: link.reservation_of(key) for key in link.flows()
        }
        for link in network.links()
    }


@pytest.mark.parametrize("kind", PLANES)
class TestOneReleaseContract:
    def test_admitted_record_names_exactly_the_legs_held(self, kind):
        network = line(4, capacity_bps=4 * BANDWIDTH)
        # The one-hop route to 0 is full: flows go to 3, some after a
        # refused attempt whose partial legs must not linger.
        network.link(1, 0).reserve("blocker", 4 * BANDWIDTH)
        plane = Plane(kind, network)
        admitted = [plane.admit(flow_id) for flow_id in range(3)]
        assert all(record.admitted for record in admitted)
        expected = {key: {} for key in ledgers(network)}
        expected[(1, 0)]["blocker"] = 4 * BANDWIDTH
        for record in admitted:
            assert record.route.destination == record.destination
            assert record.reservation_key is not None
            for link in record.route.resolve_links(network):
                assert link.holds(record.reservation_key)
                expected[(link.source, link.target)][record.reservation_key] = (
                    BANDWIDTH
                )
        assert ledgers(network) == expected

    def test_refused_record_names_nothing(self, kind):
        network = line(4, capacity_bps=BANDWIDTH)
        network.link(1, 0).reserve("b1", BANDWIDTH)
        network.link(1, 2).reserve("b2", BANDWIDTH)
        record = Plane(kind, network).admit(0)
        assert not record.admitted
        assert record.route is None
        assert record.reservation_key is None

    def test_releasing_a_refused_record_does_nothing(self, kind):
        network = line(4, capacity_bps=BANDWIDTH)
        network.link(1, 0).reserve("b1", BANDWIDTH)
        network.link(1, 2).reserve("b2", BANDWIDTH)
        plane = Plane(kind, network)
        record = plane.admit(0)
        before = (ledgers(network), plane.messages())
        plane.release(record)
        assert (ledgers(network), plane.messages()) == before
        assert not record.released

    def test_second_release_changes_nothing(self, kind):
        network = line(4, capacity_bps=BANDWIDTH)
        plane = Plane(kind, network)
        record = plane.admit(0)
        assert record.admitted
        plane.release(record)
        assert record.released
        assert network.total_reserved_bps() == 0.0
        after_first = (ledgers(network), plane.messages())
        plane.release(record)
        assert (ledgers(network), plane.messages()) == after_first
