"""Unit tests for the additional canned topologies."""

import networkx as nx
import pytest

from repro.network.topologies import dumbbell, ring


def undirected(network):
    return network.to_networkx().to_undirected()


class TestRing:
    def test_structure(self):
        net = ring(6)
        assert net.node_count == 6
        assert net.link_count == 12
        for node in net.nodes():
            assert net.degree(node) == 2

    def test_two_disjoint_paths_between_any_pair(self):
        graph = undirected(ring(8))
        assert nx.edge_connectivity(graph) == 2

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ring(2)


class TestDumbbell:
    def test_structure(self):
        net = dumbbell(3, bottleneck_capacity_bps=128_000.0)
        assert net.node_count == 8
        assert net.link(0, 1).capacity_bps == 128_000.0
        assert net.link(0, 10).capacity_bps > 128_000.0

    def test_bottleneck_limits_cross_traffic(self):
        """Only the bottleneck constrains left->right flows."""
        net = dumbbell(2, bottleneck_capacity_bps=64_000.0)
        assert net.reserve_links(net.path_links((10, 0, 1, 100)), "f1", 64_000.0)
        assert not net.reserve_links(net.path_links((11, 0, 1, 101)), "f2", 64_000.0)
        # Local traffic is unaffected.
        assert net.reserve_links(net.path_links((10, 0)), "f3", 64_000.0)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            dumbbell(0, bottleneck_capacity_bps=1.0)


class TestDumbbellAdmissionScenario:
    def test_anycast_spares_the_bottleneck(self):
        """A member on each side: selection should avoid the thin core.

        With GDI (which minimizes hops) left clients use the left
        member and never cross the bottleneck; SP from a right client
        to a left-listed-first group would cross it.  This is the
        canonical 'why destination selection matters' scenario.
        """
        from repro.baselines.gdi import GDIController
        from repro.flows.flow import FlowRequest
        from repro.flows.group import AnycastGroup
        from repro.flows.qos import QoSRequirement

        net = dumbbell(2, bottleneck_capacity_bps=64_000.0)
        group = AnycastGroup("A", (10, 100))  # one member per side
        gdi = GDIController(net, group)
        # Left clients (11) and right clients (101) each admit locally.
        for flow_id, source in enumerate((11, 101, 11, 101)):
            request = FlowRequest(
                flow_id=flow_id,
                source=source,
                group=group,
                qos=QoSRequirement(bandwidth_bps=64_000.0),
            )
            result = gdi.admit(request)
            assert result.admitted
        # The bottleneck never carried a flow.
        assert net.link(0, 1).flow_count == 0
        assert net.link(1, 0).flow_count == 0
