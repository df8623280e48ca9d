"""Property-based tests for weight assignment (hypothesis).

The weight constraint of eq. 1 — weights form a probability vector —
must hold for every selector under every reachable history/network
state; these tests drive the selectors through arbitrary observation
sequences.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.selection import (
    DistanceBandwidthWeighted,
    DistanceHistoryWeighted,
    DistanceWeighted,
    EvenDistribution,
    SelectionContext,
    distance_weights,
)
from repro.flows.group import AnycastGroup
from repro.network.routing import RouteTable
from repro.network.topologies import star
from repro.sim.random_streams import StreamFactory


def make_star_context(members_count: int):
    """Hub 0 with `members_count` spokes; group at all leaves."""
    network = star(members_count, capacity_bps=3 * 64_000.0)
    members = tuple(range(1, members_count + 1))
    group = AnycastGroup("A", members)
    routes = RouteTable(network, 0, members)
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
        selector_class=st.sampled_from([DistanceWeighted, DistanceBandwidthWeighted]),
    )
    def test_same_member_and_stream_state(self, case, seed, selector_class):
        weights, excluded = case
        _, context = make_star_context(len(weights))
        selector = selector_class(context)
        # Static (cached) and live (per-draw) tables of these weights.
        selector.weights = lambda: list(weights)
        table_rng = StreamFactory(seed).stream("table")
        chain_rng = StreamFactory(seed).stream("table")
        for _ in range(25):
            assert selector.select(table_rng, exclude=excluded) == renormalized_choice(
                chain_rng, context.group.members, weights, excluded
            )
        assert table_rng.draws == chain_rng.draws
        assert table_rng.uniform() == chain_rng.uniform()
