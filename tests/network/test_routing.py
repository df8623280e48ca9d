"""Unit tests for routing (repro.network.routing)."""

import networkx as nx
import pytest

from repro.network.routing import (
    Route,
    RouteTable,
    feasible_path,
    shortest_path,
)
from repro.network.topologies import line, mci_backbone
from repro.network.topology import Network, NetworkError


def build_diamond() -> Network:
    """0 -> {1, 2} -> 3, all links 100 bps."""
    net = Network("diamond")
    net.add_link(0, 1, capacity_bps=100.0)
    net.add_link(0, 2, capacity_bps=100.0)
    net.add_link(1, 3, capacity_bps=100.0)
    net.add_link(2, 3, capacity_bps=100.0)
    return net


class TestShortestPath:
    def test_trivial_self_path(self):
        net = build_diamond()
        assert shortest_path(net, 0, 0) == [0]

    def test_line_path(self):
        net = line(5)
        assert shortest_path(net, 0, 4) == [0, 1, 2, 3, 4]

    def test_deterministic_tie_break(self):
        net = build_diamond()
        # Both 0-1-3 and 0-2-3 are two hops; BFS over sorted neighbors
        # must always return 0-1-3.
        for _ in range(5):
            assert shortest_path(net, 0, 3) == [0, 1, 3]

    def test_unknown_nodes_raise(self):
        net = build_diamond()
        with pytest.raises(NetworkError):
            shortest_path(net, 99, 0)
        with pytest.raises(NetworkError):
            shortest_path(net, 0, 99)

    def test_unreachable_returns_none(self):
        net = Network()
        net.add_link(0, 1, capacity_bps=1.0)
        net.add_node("island")
        assert shortest_path(net, 0, "island") is None

    def test_matches_networkx_hop_counts(self):
        net = mci_backbone()
        graph = net.to_networkx()
        for source in (1, 7, 13):
            for target in (0, 4, 8, 12, 16):
                ours = shortest_path(net, source, target)
                reference = nx.shortest_path_length(graph, source, target)
                assert len(ours) - 1 == reference

    def test_min_available_filters_links(self):
        net = build_diamond()
        net.link(0, 1).reserve("blocker", 100.0)
        assert shortest_path(net, 0, 3, min_available_bps=50.0) == [0, 2, 3]

    def test_min_available_unreachable(self):
        net = line(3)
        net.link(1, 2).reserve("blocker", net.link(1, 2).capacity_bps)
        assert shortest_path(net, 0, 2, min_available_bps=1.0) is None


class TestFeasiblePath:
    def test_respects_bandwidth(self):
        net = build_diamond()
        net.link(0, 1).reserve("f", 60.0)
        assert feasible_path(net, 0, 3, bandwidth_bps=50.0) == [0, 2, 3]
        assert feasible_path(net, 0, 3, bandwidth_bps=30.0) == [0, 1, 3]

    def test_none_when_saturated(self):
        net = line(3)
        net.link(0, 1).reserve("f", 100.0 * 64_000 // 320)  # partial
        net.link(0, 1).release("f")
        net.link(0, 1).reserve("f", net.link(0, 1).capacity_bps)
        assert feasible_path(net, 0, 2, bandwidth_bps=1.0) is None


class TestRoute:
    def test_distance_counts_hops(self):
        route = Route(source=0, destination=3, path=(0, 1, 3))
        assert route.distance == 2

    def test_degenerate_distance_zero(self):
        route = Route(source=0, destination=0, path=(0,))
        assert route.distance == 0

    def test_bottleneck(self):
        # The route's link ids index its links' slots in the columns.
        net = build_diamond()
        net.link(1, 3).reserve("f", 75.0)
        route = Route(source=0, destination=3, path=(0, 1, 3))
        indices = route.resolve_link_indices(net)
        assert indices == (net.link(0, 1).index, net.link(1, 3).index)
        state = net.link_state
        assert min(state.capacity[i] - state.reserved[i] for i in indices) == 25.0

    def test_str(self):
        route = Route(source=0, destination=3, path=(0, 1, 3))
        assert str(route) == "0->1->3"


class TestRouteTable:
    def test_routes_in_member_order(self):
        net = mci_backbone()
        table = RouteTable(net, 1, (0, 4, 8, 12, 16))
        assert table.members == (0, 4, 8, 12, 16)
        for member, route in zip(table.members, table.routes()):
            assert route.destination == member
            assert route.path[0] == 1

    def test_distances_consistent(self):
        net = mci_backbone()
        table = RouteTable(net, 1, (0, 4, 8, 12, 16))
        assert table.distances() == [r.distance for r in table.routes()]

    def test_shortest_member(self):
        net = line(5)
        table = RouteTable(net, 1, (0, 4))
        assert table.shortest_member() == 0  # 1 hop vs 3 hops

    def test_shortest_member_tie_prefers_first(self):
        net = line(5)
        table = RouteTable(net, 2, (0, 4))
        assert table.shortest_member() == 0  # both 2 hops; first in order

    def test_route_to_unknown_member_raises(self):
        net = line(5)
        table = RouteTable(net, 1, (0, 4))
        with pytest.raises(NetworkError):
            table.route_to(2)

    def test_empty_group_rejected(self):
        net = line(3)
        with pytest.raises(NetworkError):
            RouteTable(net, 0, ())

    def test_unreachable_member_rejected(self):
        net = Network()
        net.add_link(0, 1, capacity_bps=1.0)
        net.add_node("island")
        with pytest.raises(NetworkError):
            RouteTable(net, 0, (1, "island"))

    def test_source_in_group_gets_zero_hop_route(self):
        net = line(3)
        table = RouteTable(net, 0, (0, 2))
        assert table.route_to(0).distance == 0
        assert table.route_to(0).path == (0,)

    def test_len(self):
        net = line(5)
        assert len(RouteTable(net, 1, (0, 4))) == 2
