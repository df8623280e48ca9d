"""Unit tests for the network graph (repro.network.topology)."""

import pytest

from repro.network.topology import Network, NetworkError


def build_triangle() -> Network:
    net = Network("triangle")
    net.add_link(0, 1, capacity_bps=100.0)
    net.add_link(1, 2, capacity_bps=100.0)
    net.add_link(0, 2, capacity_bps=100.0)
    return net


class TestConstruction:
    def test_bidirectional_links_create_two_directions(self):
        net = Network()
        net.add_link(0, 1, capacity_bps=10.0)
        assert net.has_link(0, 1)
        assert net.has_link(1, 0)
        assert net.link_count == 2

    def test_unidirectional_link(self):
        net = Network()
        net.add_link(0, 1, capacity_bps=10.0, bidirectional=False)
        assert net.has_link(0, 1)
        assert not net.has_link(1, 0)

    def test_directions_have_independent_state(self):
        net = Network()
        net.add_link(0, 1, capacity_bps=10.0)
        net.link(0, 1).reserve("f", 10.0)
        assert net.link(0, 1).available_bps == 0.0
        assert net.link(1, 0).available_bps == 10.0

    def test_implicit_node_creation(self):
        net = Network()
        net.add_link("a", "b", capacity_bps=1.0)
        assert net.has_node("a")
        assert net.has_node("b")
        assert net.node_count == 2

    def test_self_loop_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.add_link(0, 0, capacity_bps=1.0)

    def test_duplicate_link_rejected(self):
        net = Network()
        net.add_link(0, 1, capacity_bps=1.0)
        with pytest.raises(NetworkError):
            net.add_link(0, 1, capacity_bps=2.0)

    def test_duplicate_reverse_link_rejected(self):
        net = Network()
        net.add_link(0, 1, capacity_bps=1.0)
        with pytest.raises(NetworkError):
            net.add_link(1, 0, capacity_bps=2.0)

    def test_duplicate_check_is_atomic(self):
        # A conflicting bidirectional add must not leave a half-added pair.
        net = Network()
        net.add_link(0, 1, capacity_bps=1.0, bidirectional=False)
        with pytest.raises(NetworkError):
            net.add_link(1, 0, capacity_bps=2.0, bidirectional=True)
        assert not net.has_link(1, 0)

    def test_node_attributes(self):
        net = Network()
        net.add_node("r1", kind="router")
        assert net.node_attributes("r1")["kind"] == "router"
        net.add_node("r1", region="west")
        assert net.node_attributes("r1") == {"kind": "router", "region": "west"}

    def test_unknown_node_queries_raise(self):
        net = Network()
        with pytest.raises(NetworkError):
            net.node_attributes("ghost")
        with pytest.raises(NetworkError):
            net.neighbors("ghost")
        with pytest.raises(NetworkError):
            net.link("a", "b")


class TestTopologyQueries:
    def test_neighbors(self):
        net = build_triangle()
        assert set(net.neighbors(0)) == {1, 2}
        assert net.degree(0) == 2

    def test_nodes_in_insertion_order(self):
        net = Network()
        net.add_link(2, 0, capacity_bps=1.0)
        net.add_link(0, 1, capacity_bps=1.0)
        assert net.nodes() == [2, 0, 1]

    def test_links_iteration(self):
        net = build_triangle()
        assert len(list(net.links())) == 6


class TestPathOperations:
    def test_path_links_resolution(self):
        net = build_triangle()
        links = net.path_links([0, 1, 2])
        assert [(l.source, l.target) for l in links] == [(0, 1), (1, 2)]

    def test_path_links_empty_for_degenerate(self):
        net = build_triangle()
        assert net.path_links([0]) == []
        assert net.path_links([]) == []

    def test_reserve_path_all_or_nothing(self):
        net = build_triangle()
        net.link(1, 2).reserve("blocker", 100.0)
        assert not net.reserve_links(net.path_links([0, 1, 2]), "f", 50.0)
        # The refusal at the second hop wrote nothing on the first.
        assert net.link(0, 1).available_bps == 100.0

    def test_reserve_and_release_path(self):
        net = build_triangle()
        assert net.reserve_links(net.path_links([0, 1, 2]), "f", 40.0)
        assert net.link(0, 1).reservation_of("f") == 40.0
        assert net.link(1, 2).reservation_of("f") == 40.0
        net.release_path(net.path_links([0, 1, 2]), "f")
        assert net.total_reserved_bps() == 0.0

    def test_release_path_releases_survivors_before_raising(self):
        # A fault (or lease GC) already collected the first leg; the
        # sweep must still free the second leg, then report the hole —
        # a strict hop-by-hop release would strand it (R5 regression).
        net = build_triangle()
        assert net.reserve_links(net.path_links([0, 1, 2]), "f", 40.0)
        net.link(0, 1).release("f")
        with pytest.raises(KeyError):
            net.release_path(net.path_links([0, 1, 2]), "f")
        assert net.total_reserved_bps() == 0.0

    def test_reserve_degenerate_path_succeeds(self):
        net = build_triangle()
        assert net.reserve_links(net.path_links([0]), "f", 40.0)
        assert net.total_reserved_bps() == 0.0


class TestNetworkXExport:
    def test_export_preserves_structure(self):
        net = build_triangle()
        graph = net.to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 6
        assert graph.edges[0, 1]["capacity_bps"] == 100.0

    def test_export_reflects_reservations(self):
        net = build_triangle()
        net.link(0, 1).reserve("f", 60.0)
        graph = net.to_networkx()
        assert graph.edges[0, 1]["available_bps"] == 40.0
