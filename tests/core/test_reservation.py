"""Unit tests for atomic reservation (repro.core.reservation)."""

import math

import pytest

from repro.core.reservation import AtomicReservationEngine
from repro.network.routing import Route
from repro.network.topologies import line
from repro.network.topology import Network


@pytest.fixture
def network():
    return line(4, capacity_bps=100.0)


@pytest.fixture
def engine(network):
    return AtomicReservationEngine(network)


ROUTE = Route(source=0, destination=3, path=(0, 1, 2, 3))


class TestTryReserve:
    def test_success_holds_all_links(self, network, engine):
        assert engine.try_reserve(ROUTE, "f1", 40.0)
        for u, v in ((0, 1), (1, 2), (2, 3)):
            assert network.link(u, v).reservation_of("f1") == 40.0
        assert engine.attempts == 1
        assert engine.failures == 0

    def test_failure_leaves_network_untouched(self, network, engine):
        network.link(1, 2).reserve("blocker", 100.0)
        assert not engine.try_reserve(ROUTE, "f1", 40.0)
        assert network.link(0, 1).available_bps == 100.0
        assert engine.failures == 1

    def test_failure_at_first_hop(self, network, engine):
        network.link(0, 1).reserve("blocker", 100.0)
        assert not engine.try_reserve(ROUTE, "f1", 1.0)
        assert network.total_reserved_bps() == 100.0

    def test_negative_bandwidth_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.try_reserve(ROUTE, "f1", -1.0)

    def test_nan_bandwidth_rejected(self, network, engine):
        with pytest.raises(ValueError):
            engine.try_reserve(ROUTE, "f1", math.nan)
        assert network.total_reserved_bps() == 0.0

    def test_zero_hop_route_always_succeeds(self, network, engine):
        degenerate = Route(source=0, destination=0, path=(0,))
        assert engine.try_reserve(degenerate, "f1", 40.0)
        assert network.total_reserved_bps() == 0.0

    def test_capacity_shared_between_flows(self, engine):
        assert engine.try_reserve(ROUTE, "f1", 60.0)
        assert not engine.try_reserve(ROUTE, "f2", 60.0)
        assert engine.try_reserve(ROUTE, "f3", 40.0)


class TestRelease:
    def test_release_frees_all_links(self, network, engine):
        engine.try_reserve(ROUTE, "f1", 40.0)
        engine.release(ROUTE, "f1")
        assert network.total_reserved_bps() == 0.0

    def test_release_then_reserve_again(self, engine):
        engine.try_reserve(ROUTE, "f1", 100.0)
        engine.release(ROUTE, "f1")
        assert engine.try_reserve(ROUTE, "f2", 100.0)

    def test_release_resolves_no_hop(self, network, engine, monkeypatch):
        # The route's links were resolved once, when it was reserved;
        # the release walks those same links and looks up no hop again.
        assert engine.try_reserve(ROUTE, "f1", 40.0)

        def no_lookup(*args, **kwargs):
            raise AssertionError("release resolved a hop again")

        monkeypatch.setattr(Network, "link", no_lookup)
        monkeypatch.setattr(Network, "path_links", no_lookup)
        engine.release(ROUTE, "f1")
        for link in ROUTE.resolve_links(network):
            assert not link.holds("f1")
        assert network.total_reserved_bps() == 0.0


class TestCounters:
    def test_failure_rate(self, network, engine):
        engine.try_reserve(ROUTE, "f1", 100.0)
        engine.try_reserve(ROUTE, "f2", 100.0)  # fails
        assert (engine.attempts, engine.failures) == (2, 1)

    def test_refused_requests_are_not_attempts(self, network, engine):
        # A request refused with ValueError never ran: only the one
        # reservation that did is counted.
        assert engine.try_reserve(ROUTE, "f1", 40.0)
        for key, bandwidth in (("f2", -1.0), ("f2", math.nan), ("f1", 40.0)):
            with pytest.raises(ValueError):
                engine.try_reserve(ROUTE, key, bandwidth)
        assert (engine.attempts, engine.failures) == (1, 0)
        assert network.total_reserved_bps() == 3 * 40.0
