"""Property-based tests for network invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.link import InsufficientBandwidthError, Link
from repro.network.routing import RouteTable, shortest_path
from repro.network.topologies import waxman_random
from repro.network.topology import Network


class TestLinkConservation:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.floats(min_value=1.0, max_value=1e9),
        amounts=st.lists(
            st.floats(min_value=0.0, max_value=1e8), min_size=0, max_size=30
        ),
    )
    def test_reserved_never_exceeds_capacity(self, capacity, amounts):
        link = Link(0, 1, capacity_bps=capacity)
        for i, amount in enumerate(amounts):
            try:
                link.reserve(i, amount)
            except InsufficientBandwidthError:
                pass
        assert link.reserved_bps <= link.capacity_bps + 1e-6
        assert link.available_bps >= -1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        amounts=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20
        )
    )
    def test_release_all_restores_capacity(self, amounts):
        link = Link(0, 1, capacity_bps=1e6)
        reserved = []
        for i, amount in enumerate(amounts):
            try:
                link.reserve(i, amount)
                reserved.append(i)
            except InsufficientBandwidthError:
                pass
        for flow_id in reserved:
            link.release(flow_id)
        assert link.reserved_bps == 0.0
        assert link.flow_count == 0


class TestPathAtomicity:
    @settings(max_examples=40, deadline=None)
    @given(
        pre_reserved=st.lists(
            st.tuples(st.integers(0, 3), st.floats(min_value=0.0, max_value=100.0)),
            max_size=8,
        ),
        bandwidth=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_reserve_path_is_all_or_nothing(self, pre_reserved, bandwidth):
        net = Network()
        for i in range(4):
            net.add_link(i, i + 1, capacity_bps=100.0)
        path = [0, 1, 2, 3, 4]
        for i, (hop, amount) in enumerate(pre_reserved):
            link = net.link(path[hop], path[hop + 1])
            if link.can_admit(amount):
                link.reserve(f"pre{i}", amount)
        def ledgers():
            return {
                (l.source, l.target): {f: l.reservation_of(f) for f in l.flows()}
                for l in net.links()
            }

        before = ledgers()
        success = net.reserve_links(net.path_links(path), "flow", bandwidth)
        after = ledgers()
        if success:
            for u, v in zip(path, path[1:]):
                assert after[(u, v)].pop("flow") == bandwidth
            assert after == before
        else:
            # Rollback restores the per-flow ledgers exactly.
            assert after == before


class TestRoutingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=20),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_shortest_paths_match_networkx(self, n, seed):
        import networkx as nx

        net = waxman_random(n, seed=seed)
        graph = net.to_networkx()
        source, target = 0, n - 1
        ours = shortest_path(net, source, target)
        assert ours is not None  # generator guarantees connectivity
        assert len(ours) - 1 == nx.shortest_path_length(graph, source, target)
        # Every consecutive pair is an actual link.
        for u, v in zip(ours, ours[1:]):
            assert net.has_link(u, v)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=15),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_route_table_paths_start_and_end_correctly(self, n, seed):
        net = waxman_random(n, seed=seed)
        members = tuple(range(min(3, n)))
        table = RouteTable(net, n - 1, members)
        for member in members:
            route = table.route_to(member)
            assert route.path[0] == n - 1
            assert route.path[-1] == member
            assert route.distance == len(route.path) - 1
