"""Unit tests for canned topologies (repro.network.topologies)."""

import networkx as nx
import pytest

from repro.network.routing import RouteTable
from repro.network.topologies import (
    ANYCAST_CAPACITY_BPS,
    FLOW_BANDWIDTH_BPS,
    MCI_EDGES,
    MCI_GROUP_MEMBERS,
    MCI_SOURCES,
    TRUNKS_PER_LINK,
    grid,
    line,
    mci_backbone,
    nsfnet,
    star,
    waxman_random,
)


def is_connected(network) -> bool:
    graph = network.to_networkx().to_undirected()
    return nx.is_connected(graph)


class TestPaperConstants:
    def test_anycast_share_of_link(self):
        # 20 % of 100 Mbit/s.
        assert ANYCAST_CAPACITY_BPS == 20_000_000

    def test_trunk_count(self):
        assert TRUNKS_PER_LINK == 312
        assert TRUNKS_PER_LINK == int(ANYCAST_CAPACITY_BPS // FLOW_BANDWIDTH_BPS)

    def test_sources_are_odd_routers(self):
        assert MCI_SOURCES == (1, 3, 5, 7, 9, 11, 13, 15, 17)

    def test_group_members_match_paper(self):
        assert MCI_GROUP_MEMBERS == (0, 4, 8, 12, 16)


class TestMciBackbone:
    def test_nineteen_nodes(self):
        net = mci_backbone()
        assert net.node_count == 19
        assert sorted(net.nodes()) == list(range(19))

    def test_edge_count(self):
        net = mci_backbone()
        assert net.link_count == 2 * len(MCI_EDGES)

    def test_connected(self):
        assert is_connected(mci_backbone())

    def test_default_capacity_is_anycast_share(self):
        net = mci_backbone()
        for link in net.links():
            assert link.capacity_bps == ANYCAST_CAPACITY_BPS

    def test_custom_capacity(self):
        net = mci_backbone(capacity_bps=1_000.0)
        assert next(iter(net.links())).capacity_bps == 1_000.0

    def test_no_duplicate_edges(self):
        assert len(set(map(frozenset, MCI_EDGES))) == len(MCI_EDGES)

    def test_all_sources_and_members_present(self):
        net = mci_backbone()
        for node in MCI_SOURCES + MCI_GROUP_MEMBERS:
            assert net.has_node(node)

    def test_reasonable_degrees(self):
        net = mci_backbone()
        degrees = [net.degree(node) for node in net.nodes()]
        assert min(degrees) >= 2
        assert max(degrees) <= 6

    def test_reserve_release_cycle_on_longest_route(self):
        # 100 flows reserved along source 9's longest route to the
        # group, then all released: every hop grants each flow and the
        # backbone ends with nothing reserved.
        net = mci_backbone()
        table = RouteTable(net, 9, MCI_GROUP_MEMBERS)
        route = max(table.routes(), key=lambda r: r.distance)
        assert len(route.path) > 2
        links = route.resolve_links(net)
        for flow in range(100):
            assert net.reserve_links(links, flow, FLOW_BANDWIDTH_BPS)
        assert net.total_reserved_bps() == 100 * FLOW_BANDWIDTH_BPS * (
            len(route.path) - 1
        )
        for flow in range(100):
            net.release_path(links, flow)
        assert net.total_reserved_bps() == 0.0


class TestNsfnet:
    def test_fourteen_nodes(self):
        assert nsfnet().node_count == 14

    def test_connected(self):
        assert is_connected(nsfnet())


class TestGenerators:
    def test_line_structure(self):
        net = line(4)
        assert net.node_count == 4
        assert net.link_count == 6
        assert net.has_link(0, 1) and net.has_link(2, 3)

    def test_line_too_short_rejected(self):
        with pytest.raises(ValueError):
            line(1)

    def test_star_structure(self):
        net = star(5)
        assert net.node_count == 6
        assert net.degree(0) == 5
        for leaf in range(1, 6):
            assert net.degree(leaf) == 1

    def test_star_needs_leaf(self):
        with pytest.raises(ValueError):
            star(0)

    def test_grid_structure(self):
        net = grid(3, 4)
        assert net.node_count == 12
        # 3*3 horizontal + 2*4 vertical = 17 physical edges.
        assert net.link_count == 2 * 17
        assert is_connected(net)

    def test_grid_invalid_dimensions(self):
        with pytest.raises(ValueError):
            grid(0, 4)

    def test_waxman_connected_and_deterministic(self):
        a = waxman_random(15, seed=3)
        b = waxman_random(15, seed=3)
        assert is_connected(a)
        assert sorted(
            (l.source, l.target) for l in a.links()
        ) == sorted((l.source, l.target) for l in b.links())

    def test_waxman_seeds_differ(self):
        a = waxman_random(15, seed=3)
        b = waxman_random(15, seed=4)
        edges_a = sorted((l.source, l.target) for l in a.links())
        edges_b = sorted((l.source, l.target) for l in b.links())
        assert edges_a != edges_b

    def test_waxman_stores_positions(self):
        net = waxman_random(5, seed=0)
        x, y = net.node_attributes(0)["pos"]
        assert 0.0 <= x < 1.0 and 0.0 <= y < 1.0

    def test_waxman_parameter_validation(self):
        with pytest.raises(ValueError):
            waxman_random(1)
        with pytest.raises(ValueError):
            waxman_random(5, alpha=0.0)
        with pytest.raises(ValueError):
            waxman_random(5, beta=1.5)

    def test_waxman_density_grows_with_alpha(self):
        sparse = waxman_random(25, alpha=0.1, seed=5)
        dense = waxman_random(25, alpha=0.9, seed=5)
        assert dense.link_count > sparse.link_count
