"""Tests for the signalling-driven DAC loop (repro.signaling.admission)."""

import pytest

from repro.core.admission import ACRouter
from repro.core.retrial import CounterRetrialPolicy
from repro.core.selection import EvenDistribution, SelectionContext
from repro.core.system import ALGORITHM_NAMES, SystemSpec, build_selector
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.routing import RouteTable
from repro.network.topologies import line, mci_backbone
from repro.signaling.admission import SignalledACRouter
from repro.signaling.rsvp import SignalledReservationEngine
from repro.sim.engine import Simulator
from repro.sim.random_streams import StreamFactory

DISTRIBUTED_ALGORITHMS = tuple(a for a in ALGORITHM_NAMES if a != "GDI")


def make_router(network, simulator, source=1, members=(0, 3), retrials=2, seed=7):
    group = AnycastGroup("G", members)
    routes = RouteTable(network, source, members)
    context = SelectionContext(network=network, routes=routes, group=group)
    return SignalledACRouter(
        network=network,
        source=source,
        group=group,
        selector=EvenDistribution(context),
        retrial_policy=CounterRetrialPolicy(retrials),
        rng=StreamFactory(seed).stream("router"),
        engine=SignalledReservationEngine(simulator, network),
    )


def make_request(flow_id=0, source=1, members=(0, 3)):
    return FlowRequest(
        flow_id=flow_id,
        source=source,
        group=AnycastGroup("G", members),
        qos=QoSRequirement(bandwidth_bps=64_000.0),
    )


def admit_sync(router, simulator, request):
    """Drive one admission to completion and return the outcome."""
    outcomes = []
    router.admit(request, outcomes.append)
    simulator.run()
    assert len(outcomes) == 1
    return outcomes[0]


class TestDecisions:
    def test_admission_with_latency_and_messages(self):
        network = line(4, capacity_bps=64_000.0, propagation_delay_s=0.001)
        simulator = Simulator()
        router = make_router(network, simulator)
        outcome = admit_sync(router, simulator, make_request())
        assert outcome.admitted
        assert outcome.latency_s > 0.0
        assert outcome.decided_at == simulator.now
        assert outcome.reservation_key == (0, 1)

    def test_retrial_costs_extra_round_trip(self):
        network = line(4, capacity_bps=64_000.0, propagation_delay_s=0.001)
        simulator = Simulator()
        # Block the short route (toward 0) so a retrial is forced when
        # the first draw lands there.
        network.link(1, 0).reserve("blocker", 64_000.0)
        router = make_router(network, simulator, retrials=2, seed=3)
        latencies = []
        for flow_id in range(12):
            outcome = admit_sync(
                router, simulator, make_request(flow_id=flow_id)
            )
            if outcome.admitted:
                latencies.append((outcome.attempts, outcome.latency_s))
            router.release(outcome) if outcome.admitted else None
        one_try = [lat for attempts, lat in latencies if attempts == 1]
        two_tries = [lat for attempts, lat in latencies if attempts == 2]
        assert one_try and two_tries
        assert min(two_tries) > max(one_try) * 0.9  # extra round trip

    def test_rejection_after_exhausting_retrials(self):
        network = line(4, capacity_bps=64_000.0)
        simulator = Simulator()
        network.link(1, 0).reserve("b1", 64_000.0)
        network.link(1, 2).reserve("b2", 64_000.0)
        router = make_router(network, simulator, retrials=2)
        outcome = admit_sync(router, simulator, make_request())
        assert not outcome.admitted
        assert outcome.attempts == 2
        assert set(outcome.tried) == {0, 3}
        assert outcome.reservation_key is None
        router.release(outcome)  # a refused record holds nothing
        simulator.run()
        assert network.total_reserved_bps() == 2 * 64_000.0

    def test_source_and_group_validation(self):
        network = line(4)
        simulator = Simulator()
        router = make_router(network, simulator)
        with pytest.raises(ValueError):
            router.admit(make_request(source=2), lambda o: None)
        with pytest.raises(ValueError):
            router.admit(make_request(members=(0,)), lambda o: None)

    def test_release_is_idempotent(self):
        network = line(4, capacity_bps=64_000.0)
        simulator = Simulator()
        router = make_router(network, simulator)
        outcome = admit_sync(router, simulator, make_request())
        router.release(outcome)
        router.release(outcome)
        simulator.run()  # the TEAR sweeps hop by hop
        assert network.total_reserved_bps() == 0.0

    def test_record_is_admitted_once(self):
        network = line(4, capacity_bps=64_000.0)
        simulator = Simulator()
        router = make_router(network, simulator)
        request = make_request()
        admit_sync(router, simulator, request)
        decided = (request.destination, request.route, list(request.tried))
        with pytest.raises(ValueError, match="already submitted"):
            router.admit(request, lambda o: None)
        simulator.run()
        assert (request.destination, request.route, request.tried) == decided
        assert router.requests_seen == 1
        assert network.total_reserved_bps() == 64_000.0


class TestEquivalenceWithAtomicRouter:
    @pytest.mark.parametrize("resample_failed", [False, True])
    @pytest.mark.parametrize("retrials", [1, 2, 5])
    @pytest.mark.parametrize("algorithm", DISTRIBUTED_ALGORITHMS)
    def test_sequential_decisions_match_atomic_router(
        self, algorithm, retrials, resample_failed
    ):
        """With no signalling concurrency, decisions equal ACRouter's.

        Every third request releases the oldest held flow on both
        routers first; the TEAR drains before the next request.
        """
        members = (0, 4, 8, 12, 16)
        group = AnycastGroup("G", members)
        spec = SystemSpec(algorithm, retrials=retrials)

        def loop_parts(network):
            routes = RouteTable(network, 9, members)
            context = SelectionContext(
                network=network, routes=routes, group=group
            )
            return dict(
                network=network,
                source=9,
                group=group,
                selector=build_selector(spec, context),
                retrial_policy=CounterRetrialPolicy(retrials),
                rng=StreamFactory(42).stream("router"),
                resample_failed=resample_failed,
            )

        atomic_network = mci_backbone(capacity_bps=3 * 64_000.0)
        signalled_network = mci_backbone(capacity_bps=3 * 64_000.0)
        atomic = ACRouter(**loop_parts(atomic_network))
        simulator = Simulator()
        signalled = SignalledACRouter(
            **loop_parts(signalled_network),
            engine=SignalledReservationEngine(simulator, signalled_network),
        )
        held = []
        for flow_id in range(120):
            if flow_id % 3 == 2 and held:
                atomic_flow, signalled_flow = held.pop(0)
                atomic.release(atomic_flow)
                signalled.release(signalled_flow)
                simulator.run()
            # One record per router: each writes its decision into it.
            atomic_result, signalled_result = (
                FlowRequest(
                    flow_id=flow_id,
                    source=9,
                    group=group,
                    qos=QoSRequirement(bandwidth_bps=64_000.0),
                )
                for _ in range(2)
            )
            atomic.admit(atomic_result)
            admit_sync(signalled, simulator, signalled_result)
            assert signalled_result.admitted == atomic_result.admitted
            assert signalled_result.tried == atomic_result.tried
            if atomic_result.admitted:
                assert signalled_result.destination == atomic_result.destination
                held.append((atomic_result, signalled_result))
        assert signalled.requests_seen == atomic.requests_seen
        assert signalled.reservation.attempts == atomic.reservation.attempts
        assert signalled.reservation.failures == atomic.reservation.failures
        assert (
            signalled_network.total_reserved_bps()
            == atomic_network.total_reserved_bps()
        )
