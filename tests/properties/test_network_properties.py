"""Property-based tests for network invariants (hypothesis)."""

import pytest
from hypothesis import example, given, settings
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

        links = net.path_links(path)
        before = ledgers()
        reserved_before = [link.reserved_bps for link in links]
        success = net.reserve_links(links, "flow", bandwidth)
        after = ledgers()
        if success:
            for u, v in zip(path, path[1:]):
                assert after[(u, v)].pop("flow") == bandwidth
            assert after == before
            # Every hop's column took the grant, the last one included.
            assert [link.reserved_bps for link in links] == [
                reserved + bandwidth for reserved in reserved_before
            ]
        else:
            # A refusal writes no ledger.
            assert after == before


def _snapshot(net):
    """Both link-state columns as bytes, and every ledger."""
    columns = (net.link_state.capacity.tobytes(), net.link_state.reserved.tobytes())
    ledgers = {
        (link.source, link.target): {f: link.reservation_of(f) for f in link.flows()}
        for link in net.links()
    }
    return columns, ledgers


class TestRefusalWritesNothing:
    @settings(max_examples=80, deadline=None)
    @given(
        existing=st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=4),
            min_size=1,
            max_size=5,
        ),
        excess=st.floats(min_value=1e-3, max_value=1e6),
        refusing=st.integers(min_value=0, max_value=4),
        duplicate=st.booleans(),
    )
    # 0.1 reserved on hop 1, 0.7 refused on hop 2: a grant rolled back
    # by subtraction would leave 0.1 + 0.7 - 0.7 != 0.1 on hop 1.
    @example(existing=[[0.1], []], excess=0.7, refusing=1, duplicate=False)
    def test_refused_attempt_leaves_state_bit_identical(
        self, existing, excess, refusing, duplicate
    ):
        hops = len(existing)
        refusing %= hops
        net = Network()
        for hop, amounts in enumerate(existing):
            # The refusing hop is full with its own reservations; every
            # other hop has room for any attempt drawn here.
            capacity = sum(amounts) if hop == refusing else 1e9
            net.add_link(hop, hop + 1, capacity_bps=capacity, bidirectional=False)
        links = net.path_links(list(range(hops + 1)))
        for hop, amounts in enumerate(existing):
            for n, amount in enumerate(amounts):
                if links[hop].can_admit(amount):
                    links[hop].reserve(f"pre{hop}-{n}", amount)
        if duplicate:
            links[refusing].reserve("flow", 0.0)
            bandwidth = excess
        else:
            bandwidth = links[refusing].available_bps + excess
        before = _snapshot(net)
        if duplicate:
            with pytest.raises(ValueError):
                net.reserve_links(links, "flow", bandwidth)
        else:
            assert not net.reserve_links(links, "flow", bandwidth)
        assert _snapshot(net) == before


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
