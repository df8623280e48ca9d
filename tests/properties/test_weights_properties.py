"""Property-based tests for weight assignment (hypothesis).

The weight constraint of eq. 1 — weights form a probability vector —
must hold for every selector under every reachable history/network
state; these tests drive the selectors through arbitrary observation
sequences.
"""

from bisect import bisect_right

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.selection import (
    DistanceBandwidthWeighted,
    DistanceHistoryWeighted,
    DistanceWeighted,
    EvenDistribution,
    SelectionContext,
    cumulative_table,
    distance_weights,
)
from repro.flows.group import AnycastGroup
from repro.network.faults import FaultState
from repro.network.routing import RouteTable
from repro.network.state import SnapshotBandwidthView
from repro.network.topologies import (
    MCI_GROUP_MEMBERS,
    MCI_SOURCES,
    mci_backbone,
    star,
)
from repro.sim.random_streams import StreamFactory


def make_star_context(members_count: int):
    """Hub 0 with `members_count` spokes; group at all leaves."""
    network = star(members_count, capacity_bps=3 * 64_000.0)
    members = tuple(range(1, members_count + 1))
    group = AnycastGroup("A", members)
    routes = RouteTable(network, 0, members)
    return network, SelectionContext(network=network, routes=routes, group=group)


def make_mci_context(source):
    """The MCI backbone with the paper's group, routed from ``source``."""
    network = mci_backbone()
    group = AnycastGroup("A", MCI_GROUP_MEMBERS)
    routes = RouteTable(network, source, MCI_GROUP_MEMBERS)
    return network, SelectionContext(network=network, routes=routes, group=group)


def assert_probability_vector(weights, size):
    assert len(weights) == size
    assert all(w >= -1e-12 for w in weights)
    assert abs(sum(weights) - 1.0) < 1e-9


class TestDistanceWeightsFunction:
    @given(
        distances=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=10,
        )
    )
    def test_always_a_probability_vector(self, distances):
        weights = distance_weights(distances)
        assert_probability_vector(weights, len(distances))

    @given(
        distances=st.lists(
            st.floats(min_value=0.5, max_value=100.0), min_size=2, max_size=8
        )
    )
    def test_shorter_distance_never_weighs_less(self, distances):
        weights = distance_weights(distances)
        for i in range(len(distances)):
            for j in range(len(distances)):
                if distances[i] < distances[j]:
                    assert weights[i] >= weights[j] - 1e-12


class TestHistoryWeightedInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=6),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        outcomes=st.lists(st.booleans(), min_size=0, max_size=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_weights_stay_probability_vector(self, size, alpha, outcomes, seed):
        _, context = make_star_context(size)
        selector = DistanceHistoryWeighted(context, alpha=alpha)
        rng = StreamFactory(seed).stream("prop")
        for success in outcomes:
            weights = selector.weights()
            assert_probability_vector(weights, size)
            member = selector.select(rng)
            selector.observe(member, success)
        assert_probability_vector(selector.weights(), size)

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=6),
        failures=st.integers(min_value=1, max_value=10),
    )
    def test_failing_member_loses_weight(self, size, failures):
        _, context = make_star_context(size)
        selector = DistanceHistoryWeighted(context, alpha=0.5)
        target = context.group.members[0]
        baseline = selector.weights()[0]
        for _ in range(failures):
            selector.observe(target, success=False)
        weights = selector.weights()
        assert weights[0] < baseline + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(min_value=2, max_value=6))
    def test_success_after_failures_restores_eligibility(self, size):
        _, context = make_star_context(size)
        selector = DistanceHistoryWeighted(context, alpha=0.0)
        target = context.group.members[0]
        selector.observe(target, success=False)
        assert selector.weights()[0] == 0.0
        selector.observe(target, success=True)
        assert selector.weights()[0] > 0.0


class TestBandwidthWeightedInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=5),
        reservations=st.lists(
            st.integers(min_value=0, max_value=3), min_size=2, max_size=5
        ),
    )
    def test_weights_follow_available_bandwidth(self, size, reservations):
        network, context = make_star_context(size)
        selector = DistanceBandwidthWeighted(context)
        for leaf, slots in zip(range(1, size + 1), reservations):
            for slot in range(slots):
                network.link(0, leaf).reserve(f"f{leaf}.{slot}", 64_000.0)
        weights = selector.weights()
        assert_probability_vector(weights, size)
        # Equal distances on a star: weight order == bandwidth order.
        bandwidths = [
            network.link(0, leaf).available_bps for leaf in range(1, size + 1)
        ]
        for i in range(size):
            for j in range(size):
                if bandwidths[i] > bandwidths[j]:
                    assert weights[i] >= weights[j] - 1e-12


class TestSelectionRespectsExclusion:
    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(min_value=3, max_value=6),
        excluded_index=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_excluded_members_never_selected(self, size, excluded_index, seed):
        _, context = make_star_context(size)
        member = context.group.members[excluded_index % size]
        rng = StreamFactory(seed).stream("excl")
        for selector in (
            EvenDistribution(context),
            DistanceWeighted(context),
            DistanceHistoryWeighted(context),
            DistanceBandwidthWeighted(context),
        ):
            for _ in range(10):
                assert selector.select(rng, exclude=frozenset({member})) != member


def renormalized_choice(rng, members, weights, exclude):
    """``weighted_choice`` over the members not in ``exclude``, renormalized."""
    if not exclude:
        return rng.weighted_choice(members, weights)
    candidates = [m for m in members if m not in exclude]
    kept = [w for m, w in zip(members, weights) if m not in exclude]
    total = sum(kept)
    if total <= 0:
        return rng.weighted_choice(candidates, [1.0 / len(kept)] * len(kept))
    return rng.weighted_choice(candidates, [w / total for w in kept])


@st.composite
def weights_and_exclusions(draw):
    """A weight vector with zeros, and a refused set leaving one member."""
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 1e3)), min_size=1, max_size=8
        )
    )
    excluded = draw(
        st.sets(st.integers(1, len(weights)), max_size=len(weights) - 1)
    )
    assume(excluded or sum(weights) > 0)
    return weights, frozenset(excluded)


class TestTableDrawMatchesWeightedChoice:
    """A selector's table draw is ``weighted_choice`` over the renormalized
    candidates: same member, same variate, same stream state after."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=weights_and_exclusions(),
        seed=st.integers(min_value=0, max_value=2**31),
        selector_class=st.sampled_from([DistanceWeighted, DistanceHistoryWeighted]),
    )
    def test_same_member_and_stream_state(self, case, seed, selector_class):
        weights, excluded = case
        _, context = make_star_context(len(weights))
        selector = selector_class(context)
        # Static (cached) and per-draw tables of these weights.
        selector.weights = lambda: list(weights)
        table_rng = StreamFactory(seed).stream("table")
        chain_rng = StreamFactory(seed).stream("table")
        for _ in range(25):
            assert selector.select(table_rng, exclude=excluded) == renormalized_choice(
                chain_rng, context.group.members, weights, excluded
            )
        assert table_rng.draws == chain_rng.draws
        assert table_rng.uniform() == chain_rng.uniform()


def load_routes(network, context, loads, saturate_all):
    """Reserve ``loads[n]`` of the n-th link (by id) on the context's routes.

    With ``saturate_all`` every first hop is reserved in full instead,
    so every route's bottleneck is exactly zero.
    """
    routes = context.routes.routes()
    first_hops = {route.resolve_links(network)[0] for route in routes}
    if saturate_all:
        for n, link in enumerate(sorted(first_hops, key=lambda link: link.index)):
            assert network.reserve_links([link], f"full{n}", link.capacity_bps)
    links = sorted(
        {link for route in routes for link in route.resolve_links(network)},
        key=lambda link: link.index,
    )
    if saturate_all:
        links = [link for link in links if link not in first_hops]
    for n, (link, fraction) in enumerate(zip(links, loads)):
        assert network.reserve_links([link], f"load{n}", fraction * link.capacity_bps)


class FixedPoint:
    """A stand-in stream whose ``uniform`` always returns ``point``."""

    def __init__(self, point):
        self.point = point

    def uniform(self, low, high):
        assert low <= self.point <= high
        return self.point


link_loads = st.lists(
    st.one_of(st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=30
)
refused_sets = st.frozensets(st.sampled_from(MCI_GROUP_MEMBERS), max_size=4)


class TestOnePassDrawMatchesWeightedChoice:
    """WD/D+B's draw from its one-pass table over the live columns is
    ``weighted_choice`` over its renormalized weights: same member, same
    variate, same stream state after."""

    @settings(max_examples=150, deadline=None)
    @given(
        source=st.sampled_from(MCI_SOURCES),
        loads=link_loads,
        saturate_all=st.booleans(),
        refusals=st.lists(refused_sets, min_size=1, max_size=10),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_same_member_and_stream_state(
        self, source, loads, saturate_all, refusals, seed
    ):
        network, context = make_mci_context(source)
        load_routes(network, context, loads, saturate_all)
        selector = DistanceBandwidthWeighted(context)
        members = context.group.members
        draw_rng = StreamFactory(seed).stream("draw")
        chain_rng = StreamFactory(seed).stream("draw")
        for refused in refusals:
            assert selector.select(draw_rng, exclude=refused) == renormalized_choice(
                chain_rng, members, selector.weights(), refused
            )
        assert draw_rng.draws == chain_rng.draws
        assert draw_rng.uniform() == chain_rng.uniform()

    @settings(max_examples=100, deadline=None)
    @given(
        source=st.sampled_from(MCI_SOURCES),
        loads=link_loads,
        saturate_all=st.booleans(),
        refused=refused_sets,
    )
    def test_running_sums_match_the_table(self, source, loads, saturate_all, refused):
        # Drawing each running sum of cumulative_table as the variate
        # tells apart running sums that differ in the last bit.
        network, context = make_mci_context(source)
        load_routes(network, context, loads, saturate_all)
        selector = DistanceBandwidthWeighted(context)
        candidates, cumulative = cumulative_table(
            context.group.members, selector.weights(), refused
        )
        for point in [0.0, *cumulative]:
            index = min(bisect_right(cumulative, point), len(cumulative) - 1)
            assert selector.select(FixedPoint(point), refused) == candidates[index]

    def test_snapshot_view_draws_from_the_snapshot(self):
        network, context = make_mci_context(1)
        routes = context.routes.routes()
        for n, route in enumerate(routes):
            links = route.resolve_links(network)
            load = n * 0.2 * links[0].capacity_bps
            assert network.reserve_links(links, f"load{n}", load)
        snapshot = SnapshotBandwidthView(
            network, clock=lambda: 0.0, refresh_period_s=10.0
        )
        selector = DistanceBandwidthWeighted(context, snapshot=snapshot)
        before = selector.weights()
        # The live network moves on; the snapshot (and every draw) does not.
        links = routes[0].resolve_links(network)
        assert network.reserve_links(links, "late", links[0].available_bps)
        assert selector.weights() == before
        members = context.group.members
        draw_rng = StreamFactory(5).stream("draw")
        chain_rng = StreamFactory(5).stream("draw")
        for refused in [frozenset(), frozenset({4}), frozenset({4, 12})] * 20:
            assert selector.select(draw_rng, exclude=refused) == renormalized_choice(
                chain_rng, members, before, refused
            )
        assert snapshot.refreshes == 1
        assert draw_rng.uniform() == chain_rng.uniform()

    def test_zero_hop_route_takes_every_draw(self):
        # Source 4 is a member: its zero-hop route holds all the weight.
        _, context = make_mci_context(4)
        selector = DistanceBandwidthWeighted(context)
        assert selector.weights() == [0.0, 1.0, 0.0, 0.0, 0.0]
        members = context.group.members
        draw_rng = StreamFactory(8).stream("draw")
        chain_rng = StreamFactory(8).stream("draw")
        for refused in [frozenset(), frozenset({4}), frozenset({4, 16})] * 10:
            pick = selector.select(draw_rng, exclude=refused)
            assert pick == renormalized_choice(
                chain_rng, members, selector.weights(), refused
            )
            assert (pick == 4) == (not refused)
        assert draw_rng.draws == chain_rng.draws == 30
        assert draw_rng.uniform() == chain_rng.uniform()


def bits(table):
    """A draw table with every float as its exact bit pattern."""
    candidates, cumulative = table
    return list(candidates), [value.hex() for value in cumulative]


#: A spoke of the star: free (with a load fraction), full or down.
spoke_states = st.one_of(st.floats(0.0, 1.0), st.just("full"), st.just("down"))


class TestRetryTableMatchesCumulativeTable:
    """WD/D+B's table over its kept scan is ``cumulative_table`` over
    ``weights()``, bit for bit, for every refused set of a decision."""

    @staticmethod
    def star_selector(states):
        network, context = make_star_context(len(states))
        faults = FaultState(network)
        for leaf, state in enumerate(states, start=1):
            link = network.link(0, leaf)
            if state == "down":  # reads DOWN_CAPACITY_BPS, below zero
                faults.fail(0, leaf)
            else:
                fraction = 1.0 if state == "full" else state
                load = fraction * link.capacity_bps
                assert network.reserve_links([link], f"load{leaf}", load)
        return DistanceBandwidthWeighted(context)

    def assert_tables_match(self, selector, refusals):
        members = selector.context.group.members
        for refused in refusals:
            if set(members) <= refused:
                with pytest.raises(ValueError, match="all group members"):
                    selector._table(refused)
                continue
            assert bits(selector._table(refused)) == bits(
                cumulative_table(members, selector.weights(), refused)
            )

    @settings(max_examples=200, deadline=None)
    @given(
        states=st.lists(spoke_states, min_size=2, max_size=6),
        refusals=st.lists(
            st.frozensets(st.integers(1, 6), max_size=6), min_size=1, max_size=6
        ),
    )
    def test_star_states(self, states, refusals):
        self.assert_tables_match(self.star_selector(states), refusals)

    @settings(max_examples=100, deadline=None)
    @given(
        source=st.sampled_from(MCI_SOURCES),
        loads=link_loads,
        saturate_all=st.booleans(),
        failed=st.lists(st.integers(0, 40), max_size=3),
        refusals=st.lists(refused_sets, min_size=1, max_size=6),
    )
    def test_mci_states(self, source, loads, saturate_all, failed, refusals):
        network, context = make_mci_context(source)
        load_routes(network, context, loads, saturate_all)
        route_links = sorted(
            {
                link
                for route in context.routes.routes()
                for link in route.resolve_links(network)
            },
            key=lambda link: link.index,
        )
        faults = FaultState(network)
        for n in failed:
            link = route_links[n % len(route_links)]
            faults.fail(link.source, link.target)
        self.assert_tables_match(DistanceBandwidthWeighted(context), refusals)

    def test_only_zero_scores_left_draw_uniformly(self):
        # Member 1 has bandwidth, the others none (one full, two down),
        # so the scores sum above zero; once member 1 is refused only
        # zero scores remain and the table falls back to uniform
        # weights, as _renormalize does.
        selector = self.star_selector([0.5, "full", "down", "down"])
        assert selector.weights() == [1.0, 0.0, 0.0, 0.0]
        self.assert_tables_match(selector, [frozenset({1}), frozenset({1, 3})])
        assert selector._table(frozenset({1})) == (
            [2, 3, 4],
            cumulative_table([2, 3, 4], [1 / 3] * 3)[1],
        )
