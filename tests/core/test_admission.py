"""Unit tests for the AC-router DAC loop (repro.core.admission)."""

import pytest

from repro.core.admission import ACRouter
from repro.core.retrial import CounterRetrialPolicy
from repro.core.selection import EvenDistribution, SelectionContext
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.routing import RouteTable
from repro.network.topologies import line
from repro.network.topology import Network
from repro.sim.random_streams import StreamFactory


def make_router(
    network: Network,
    source=1,
    members=(0, 3),
    retrials: int = 2,
    selector_class=EvenDistribution,
    resample_failed: bool = False,
    seed: int = 7,
) -> ACRouter:
    group = AnycastGroup("G", members)
    routes = RouteTable(network, source, members)
    context = SelectionContext(network=network, routes=routes, group=group)
    return ACRouter(
        network=network,
        source=source,
        group=group,
        selector=selector_class(context),
        retrial_policy=CounterRetrialPolicy(retrials),
        rng=StreamFactory(seed).stream("router"),
        resample_failed=resample_failed,
    )


def make_request(flow_id=0, source=1, members=(0, 3), bandwidth=64_000.0):
    return FlowRequest(
        flow_id=flow_id,
        source=source,
        group=AnycastGroup("G", members),
        qos=QoSRequirement(bandwidth_bps=bandwidth),
        arrival_time=0.0,
        lifetime_s=10.0,
    )


@pytest.fixture
def network():
    # Line 0-1-2-3 with one 64 kbit/s slot per link.
    return line(4, capacity_bps=64_000.0)


class TestAdmission:
    def test_admits_when_bandwidth_available(self, network):
        router = make_router(network)
        result = router.admit(make_request())
        assert result.admitted
        assert result.attempts == 1
        assert result.destination in (0, 3)
        assert result.route.path[0] == 1

    def test_reservation_held_after_admission(self, network):
        router = make_router(network)
        result = router.admit(make_request())
        for link in result.route.resolve_links(network):
            assert link.holds(0)

    def test_retries_alternative_destination(self, network):
        # Saturate the route toward node 0; every request must end at 3.
        network.link(1, 0).reserve("blocker", 64_000.0)
        router = make_router(network, retrials=2)
        result = router.admit(make_request())
        assert result.admitted
        assert result.destination == 3
        assert result.attempts <= 2

    def test_rejected_when_all_routes_full(self, network):
        network.link(1, 0).reserve("b1", 64_000.0)
        network.link(1, 2).reserve("b2", 64_000.0)
        router = make_router(network, retrials=2)
        result = router.admit(make_request())
        assert not result.admitted
        assert result.route is None
        assert result.reservation_key is None
        assert result.attempts == 2
        assert set(result.tried) == {0, 3}
        router.release(result)  # a refused record holds nothing
        assert network.total_reserved_bps() == 2 * 64_000.0

    def test_r1_gives_single_attempt(self, network):
        network.link(1, 0).reserve("b1", 64_000.0)
        network.link(1, 2).reserve("b2", 64_000.0)
        router = make_router(network, retrials=1)
        result = router.admit(make_request())
        assert not result.admitted
        assert result.attempts == 1

    def test_without_replacement_never_retries_same_destination(self, network):
        network.link(1, 0).reserve("b1", 64_000.0)
        network.link(1, 2).reserve("b2", 64_000.0)
        router = make_router(network, retrials=2)
        for flow_id in range(20):
            result = router.admit(make_request(flow_id=flow_id))
            assert len(set(result.tried)) == len(result.tried)

    def test_resample_ablation_may_repeat_destination(self, network):
        network.link(1, 0).reserve("b1", 64_000.0)
        network.link(1, 2).reserve("b2", 64_000.0)
        router = make_router(network, retrials=5, resample_failed=True)
        repeats = 0
        for flow_id in range(50):
            result = router.admit(make_request(flow_id=flow_id))
            if len(set(result.tried)) < len(result.tried):
                repeats += 1
        assert repeats > 0

    def test_rejection_frees_all_bandwidth(self, network):
        network.link(1, 0).reserve("b1", 64_000.0)
        network.link(1, 2).reserve("b2", 64_000.0)
        before = network.total_reserved_bps()
        router = make_router(network, retrials=2)
        router.admit(make_request())
        assert network.total_reserved_bps() == before

    def test_wrong_source_rejected(self, network):
        router = make_router(network, source=1)
        with pytest.raises(ValueError):
            router.admit(make_request(source=2))

    def test_wrong_group_rejected(self, network):
        router = make_router(network, members=(0, 3))
        with pytest.raises(ValueError):
            router.admit(make_request(members=(0,)))

    def test_selector_routes_from_another_source_rejected(self, network):
        group = AnycastGroup("G", (0, 3))
        routes = RouteTable(network, 2, (0, 3))
        context = SelectionContext(network=network, routes=routes, group=group)
        with pytest.raises(ValueError, match="router source"):
            ACRouter(
                network=network,
                source=1,
                group=group,
                selector=EvenDistribution(context),
                retrial_policy=CounterRetrialPolicy(2),
                rng=StreamFactory(7).stream("router"),
            )

    def test_record_is_admitted_once(self, network):
        router = make_router(network)
        request = make_request()
        router.admit(request)
        decided = (request.destination, request.route, list(request.tried))
        with pytest.raises(ValueError, match="already submitted"):
            router.admit(request)
        assert (request.destination, request.route, request.tried) == decided
        assert router.requests_seen == 1

    def test_decided_at_defaults_to_arrival(self, network):
        router = make_router(network)
        request = make_request()
        result = router.admit(request)
        assert result.decided_at == request.arrival_time

    def test_decided_at_override(self, network):
        router = make_router(network)
        result = router.admit(make_request(), now=42.0)
        assert result.decided_at == 42.0


class TestRelease:
    def test_release_frees_route(self, network):
        router = make_router(network)
        result = router.admit(make_request())
        router.release(result)
        assert network.total_reserved_bps() == 0.0
        assert result.released

    def test_release_is_idempotent(self, network):
        router = make_router(network)
        result = router.admit(make_request())
        router.release(result)
        router.release(result)
        assert network.total_reserved_bps() == 0.0

    def test_capacity_reusable_after_release(self, network):
        router = make_router(network, members=(0,), retrials=1)
        first = router.admit(make_request(flow_id=1, members=(0,)))
        assert first.admitted
        second = router.admit(make_request(flow_id=2, members=(0,)))
        assert not second.admitted
        router.release(first)
        third = router.admit(make_request(flow_id=3, members=(0,)))
        assert third.admitted


class TestCounters:
    def test_router_statistics(self, network):
        router = make_router(network, members=(0,), retrials=1)
        first = router.admit(make_request(flow_id=1, members=(0,)))
        second = router.admit(make_request(flow_id=2, members=(0,)))  # rejected
        assert router.requests_seen == 2
        assert first.admitted and not second.admitted
        assert first.attempts == second.attempts == 1
        assert router.reservation.attempts == 2
        assert router.reservation.failures == 1


class TestHistoryIntegration:
    def test_failures_feed_selector_history(self, network):
        from repro.core.selection import DistanceHistoryWeighted

        network.link(1, 0).reserve("blocker", 64_000.0)
        router = make_router(
            network, retrials=2, selector_class=DistanceHistoryWeighted
        )
        router.admit(make_request(flow_id=1))
        history = router.selector.history
        assert history.failures_of(0) >= 1 or history.failures_of(3) >= 1
