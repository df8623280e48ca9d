"""Unit tests for destination selection (repro.core.selection)."""

import pytest

from repro.core.selection import (
    DistanceBandwidthWeighted,
    DistanceHistoryWeighted,
    DistanceWeighted,
    EvenDistribution,
    SelectionContext,
    ShortestPathSelector,
    cumulative_table,
    distance_weights,
)
from repro.flows.group import AnycastGroup
from repro.network.routing import RouteTable
from repro.network.topologies import line, mci_backbone
from repro.sim.random_streams import StreamFactory


def make_context(network=None, source=1, members=(0, 4)):
    network = network if network is not None else line(5)
    group = AnycastGroup("A", members)
    routes = RouteTable(network, source, members)
    return SelectionContext(network=network, routes=routes, group=group)


@pytest.fixture
def rng():
    return StreamFactory(77).stream("test-select")


class TestDistanceWeightsFunction:
    def test_inverse_distance_normalized(self):
        weights = distance_weights([1.0, 2.0, 4.0])
        assert sum(weights) == pytest.approx(1.0)
        # 1 : 1/2 : 1/4 normalized.
        assert weights[0] == pytest.approx(4.0 / 7.0)
        assert weights[1] == pytest.approx(2.0 / 7.0)
        assert weights[2] == pytest.approx(1.0 / 7.0)

    def test_equal_distances_give_uniform(self):
        weights = distance_weights([3.0, 3.0, 3.0])
        assert weights == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_zero_distance_dominates(self):
        weights = distance_weights([0.0, 2.0, 5.0])
        assert weights == [1.0, 0.0, 0.0]

    def test_multiple_zero_distances_share(self):
        weights = distance_weights([0.0, 0.0, 5.0])
        assert weights == [0.5, 0.5, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_weights([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            distance_weights([1.0, -2.0])


class TestSelectionContext:
    def test_mismatched_members_rejected(self):
        network = line(5)
        group = AnycastGroup("A", (0, 4))
        routes = RouteTable(network, 1, (4, 0))
        with pytest.raises(ValueError):
            SelectionContext(network=network, routes=routes, group=group)


class TestEvenDistribution:
    def test_uniform_weights(self):
        selector = EvenDistribution(make_context())
        assert selector.weights() == [0.5, 0.5]

    def test_selection_frequency_uniform(self, rng):
        selector = EvenDistribution(make_context())
        counts = {0: 0, 4: 0}
        for _ in range(4000):
            counts[selector.select(rng)] += 1
        assert counts[0] == pytest.approx(2000, rel=0.1)

    def test_exclusion_forces_other_member(self, rng):
        selector = EvenDistribution(make_context())
        for _ in range(50):
            assert selector.select(rng, exclude=frozenset({0})) == 4

    def test_all_excluded_raises(self, rng):
        selector = EvenDistribution(make_context())
        with pytest.raises(ValueError):
            selector.select(rng, exclude=frozenset({0, 4}))

    def test_observe_is_noop(self):
        selector = EvenDistribution(make_context())
        selector.observe(0, success=False)
        assert selector.weights() == [0.5, 0.5]


class TestDistanceWeighted:
    def test_closer_member_weighs_more(self):
        # From node 1 on a 5-line: distance 1 to node 0, 3 to node 4.
        selector = DistanceWeighted(make_context())
        weights = selector.weights()
        assert weights[0] == pytest.approx(0.75)
        assert weights[1] == pytest.approx(0.25)

    def test_weights_static_across_observations(self):
        selector = DistanceWeighted(make_context())
        before = selector.weights()
        selector.observe(0, success=False)
        assert selector.weights() == before


class FixedPoint:
    """A stand-in stream whose ``uniform`` always returns ``point``."""

    def __init__(self, point):
        self.point = point

    def uniform(self, low, high):
        assert low <= self.point <= high
        return self.point


class TestCumulativeTable:
    def test_running_sums_of_renormalized_candidates(self):
        members, cumulative = cumulative_table("abc", [1.0, 2.0, 1.0], {"b"})
        assert list(members) == ["a", "c"]
        assert cumulative == [0.5, 1.0]

    def test_all_zero_candidates_are_uniform(self):
        _, cumulative = cumulative_table("abc", [0.0, 2.0, 0.0], {"b"})
        assert cumulative == [0.5, 1.0]

    @pytest.mark.parametrize(
        "weights", [[1.0, -0.5], [0.0, 0.0], [1.0, float("nan")], [1e308, 1e308]]
    )
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            cumulative_table("ab", weights)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cumulative_table("ab", [1.0])

    @pytest.mark.parametrize(
        "point, expected", [(0.0, 4), (0.5, 4), (1.0, 12), (2.0, 16)]
    )
    def test_boundary_points_pick_like_weighted_choice(self, point, expected):
        # weighted_choice picks the first item whose running sum exceeds
        # the point, and the last item when none does.
        members = (0, 4, 8, 12, 16)
        selector = DistanceHistoryWeighted(make_context(mci_backbone(), 1, members))
        selector.weights = lambda: [0.0, 1.0, 0.0, 1.0, 0.0]
        assert selector.select(FixedPoint(point)) == expected


class TestStaticTables:
    """ED and WD/D build one draw table per refused set and keep it."""

    @pytest.mark.parametrize("selector_class", [EvenDistribution, DistanceWeighted])
    def test_one_table_per_refused_set(self, selector_class, rng):
        members = (0, 4, 8, 12, 16)
        selector = selector_class(make_context(mci_backbone(), 1, members))
        weights = selector.weights
        calls = []
        selector.weights = lambda: calls.append(1) or weights()
        refused_sets = [set(), {0}, {0, 8}, {4, 8, 12, 16}]
        for _ in range(20):
            for refused in refused_sets:
                assert selector.select(rng, exclude=refused) not in refused
        assert len(calls) == len(refused_sets)

    @pytest.mark.parametrize("selector_class", [EvenDistribution, DistanceWeighted])
    def test_cached_table_draws_like_a_fresh_selector(self, selector_class):
        members = (0, 4, 8, 12, 16)
        context = make_context(mci_backbone(), 1, members)
        warm = selector_class(context)
        refused = {4, 12}
        warm.select(StreamFactory(1).stream("warm-up"), exclude=refused)
        warm_rng = StreamFactory(3).stream("s")
        fresh_rng = StreamFactory(3).stream("s")
        for _ in range(200):
            fresh = selector_class(context)
            assert warm.select(warm_rng, exclude=refused) == fresh.select(
                fresh_rng, exclude=refused
            )


class TestDistanceHistoryWeighted:
    def test_initial_weights_are_distance_weights(self):
        selector = DistanceHistoryWeighted(make_context(), alpha=0.5)
        assert selector.weights() == pytest.approx([0.75, 0.25])

    def test_failure_decays_weight(self):
        selector = DistanceHistoryWeighted(make_context(), alpha=0.5)
        selector.observe(0, success=False)
        weights = selector.weights()
        # W0 decays by alpha, its loss moves to member 4, then normalize.
        assert weights[0] == pytest.approx(0.375)
        assert weights[1] == pytest.approx(0.625)

    def test_success_restores_growth(self):
        selector = DistanceHistoryWeighted(make_context(), alpha=0.5)
        selector.observe(0, success=False)
        selector.weights()
        selector.observe(0, success=True)
        weights = selector.weights()
        assert weights[0] > 0.3  # no longer decayed

    def test_alpha_one_never_decays(self):
        selector = DistanceHistoryWeighted(make_context(), alpha=1.0)
        for _ in range(5):
            selector.observe(0, success=False)
        assert selector.weights() == pytest.approx([0.75, 0.25])

    def test_alpha_zero_removes_failed_destination(self):
        selector = DistanceHistoryWeighted(make_context(), alpha=0.0)
        selector.observe(0, success=False)
        weights = selector.weights()
        assert weights[0] == 0.0
        assert weights[1] == pytest.approx(1.0)

    def test_all_failing_keeps_relative_discrimination(self):
        selector = DistanceHistoryWeighted(make_context(), alpha=0.5)
        selector.observe(0, success=False)
        selector.observe(4, success=False)
        selector.observe(4, success=False)
        weights = selector.weights()
        assert sum(weights) == pytest.approx(1.0)
        # Member 0 failed once, member 4 twice: 0 keeps more weight.
        assert weights[0] > weights[1]

    def test_alpha_zero_all_failing_falls_back_to_seed(self):
        selector = DistanceHistoryWeighted(make_context(), alpha=0.0)
        selector.observe(0, success=False)
        selector.observe(4, success=False)
        assert selector.weights() == pytest.approx([0.75, 0.25])

    def test_weights_always_sum_to_one(self):
        selector = DistanceHistoryWeighted(make_context(), alpha=0.3)
        rng = StreamFactory(5).stream("w")
        for i in range(50):
            member = selector.select(rng)
            selector.observe(member, success=(i % 3 == 0))
            assert sum(selector.weights()) == pytest.approx(1.0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            DistanceHistoryWeighted(make_context(), alpha=1.5)
        with pytest.raises(ValueError):
            DistanceHistoryWeighted(make_context(), alpha=-0.1)


class TestDistanceBandwidthWeighted:
    def test_prefers_wider_route(self):
        network = line(5)
        context = make_context(network=network, source=2, members=(0, 4))
        selector = DistanceBandwidthWeighted(context)
        # Symmetric distances; saturate one side partially.
        network.link(2, 1).reserve("f", network.link(2, 1).capacity_bps / 2)
        weights = selector.weights()
        # Route to 0 (via link 2->1) has half the bandwidth of route to 4.
        assert weights[1] == pytest.approx(2.0 / 3.0)
        assert weights[0] == pytest.approx(1.0 / 3.0)

    def test_tracks_dynamic_state(self):
        network = line(5)
        context = make_context(network=network, source=2, members=(0, 4))
        selector = DistanceBandwidthWeighted(context)
        assert selector.weights() == pytest.approx([0.5, 0.5])
        network.link(2, 3).reserve("f", network.link(2, 3).capacity_bps)
        assert selector.weights() == pytest.approx([1.0, 0.0])
        network.link(2, 3).release("f")
        assert selector.weights() == pytest.approx([0.5, 0.5])

    def test_all_saturated_falls_back_to_distance(self):
        network = line(5)
        context = make_context(network=network, source=1, members=(0, 4))
        selector = DistanceBandwidthWeighted(context)
        for link in network.links():
            link.reserve("f", link.capacity_bps)
        assert selector.weights() == pytest.approx([0.75, 0.25])

    def test_distance_divides_bandwidth(self):
        network = line(5)
        context = make_context(network=network, source=1, members=(0, 4))
        selector = DistanceBandwidthWeighted(context)
        # Equal bandwidth everywhere: weights ~ 1/D as in eq. 12.
        assert selector.weights() == pytest.approx([0.75, 0.25])


class TestShortestPathSelector:
    def test_always_selects_nearest(self, rng):
        selector = ShortestPathSelector(make_context())
        for _ in range(20):
            assert selector.select(rng) == 0

    def test_weights_are_degenerate(self):
        selector = ShortestPathSelector(make_context())
        assert selector.weights() == [1.0, 0.0]

    def test_excluded_falls_back_to_next_nearest(self, rng):
        network = mci_backbone()
        context = make_context(network=network, source=1, members=(0, 4, 8))
        selector = ShortestPathSelector(context)
        first = selector.select(rng)
        second = selector.select(rng, exclude=frozenset({first}))
        assert second != first
        assert second in (0, 4, 8)

    def test_all_excluded_raises(self, rng):
        selector = ShortestPathSelector(make_context())
        with pytest.raises(ValueError):
            selector.select(rng, exclude=frozenset({0, 4}))
