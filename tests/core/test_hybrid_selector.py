"""Tests for the hybrid WD/D+H+B selector."""

import pytest

from repro.core.selection import (
    DistanceBandwidthWeighted,
    HybridWeighted,
    SelectionContext,
)
from repro.flows.group import AnycastGroup
from repro.network.routing import RouteTable
from repro.network.state import SnapshotBandwidthView
from repro.network.topologies import MCI_GROUP_MEMBERS, line, mci_backbone


def make_context(network=None, source=2, members=(0, 4)):
    network = network if network is not None else line(5)
    group = AnycastGroup("A", members)
    routes = RouteTable(network, source, members)
    return network, SelectionContext(network=network, routes=routes, group=group)


class TestWeights:
    def test_initial_weights_match_bandwidth_selector(self):
        network, context = make_context()
        hybrid = HybridWeighted(context)
        parent = DistanceBandwidthWeighted(context)
        assert hybrid.weights() == pytest.approx(parent.weights())

    def test_history_decays_failing_member(self):
        network, context = make_context()
        hybrid = HybridWeighted(context, alpha=0.5)
        hybrid.observe(0, success=False)
        weights = hybrid.weights()
        # Symmetric bandwidth/distance; the failure halves member 0.
        assert weights[0] == pytest.approx(1.0 / 3.0)
        assert weights[1] == pytest.approx(2.0 / 3.0)

    def test_bandwidth_still_steers(self):
        network, context = make_context()
        hybrid = HybridWeighted(context)
        network.link(2, 3).reserve("f", network.link(2, 3).capacity_bps)
        assert hybrid.weights() == pytest.approx([1.0, 0.0])

    def test_success_resets_history(self):
        network, context = make_context()
        hybrid = HybridWeighted(context, alpha=0.0)
        hybrid.observe(0, success=False)
        assert hybrid.weights()[0] == 0.0
        hybrid.observe(0, success=True)
        assert hybrid.weights()[0] == pytest.approx(0.5)

    def test_all_saturated_falls_back_to_distance(self):
        network, context = make_context()
        for link in network.links():
            link.reserve("f", link.capacity_bps)
        hybrid = HybridWeighted(context)
        assert hybrid.weights() == pytest.approx([0.5, 0.5])

    def test_weights_sum_to_one_through_updates(self):
        from repro.sim.random_streams import StreamFactory

        network, context = make_context()
        hybrid = HybridWeighted(context, alpha=0.3)
        rng = StreamFactory(4).stream("h")
        for i in range(40):
            member = hybrid.select(rng)
            hybrid.observe(member, success=(i % 2 == 0))
            assert sum(hybrid.weights()) == pytest.approx(1.0)

    @pytest.mark.parametrize("snapshot", [False, True])
    def test_weights_equal_view_scores_on_loaded_network(self, snapshot):
        network = mci_backbone()
        group = AnycastGroup("A", MCI_GROUP_MEMBERS)
        routes = RouteTable(network, 1, MCI_GROUP_MEMBERS)
        context = SelectionContext(network=network, routes=routes, group=group)
        # Load each member's last hop; the route to member 8 is full.
        for n, (route, load) in enumerate(
            zip(routes.routes(), [0.0, 0.5, 1.0, 0.25, 0.9])
        ):
            last = route.resolve_links(network)[-1]
            assert network.reserve_links([last], f"f{n}", load * last.capacity_bps)
        view = (
            SnapshotBandwidthView(network, clock=lambda: 0.0, refresh_period_s=1.0)
            if snapshot
            else None
        )
        hybrid = HybridWeighted(context, alpha=0.5, snapshot=view)
        for member, success in [(8, False), (8, False), (12, False), (0, True)]:
            hybrid.observe(member, success)
        bottlenecks = [
            min(link.available_bps for link in route.resolve_links(network))
            for route in routes.routes()
        ]
        scores = [
            (max(0.0, bottleneck) / route.distance) * 0.5**h
            for bottleneck, route, h in zip(
                bottlenecks, routes.routes(), hybrid.history.counters()
            )
        ]
        assert 0.0 in scores and len(set(scores)) == len(scores)
        total = sum(scores)
        assert hybrid.weights() == [score / total for score in scores]

    def test_invalid_alpha(self):
        _, context = make_context()
        with pytest.raises(ValueError):
            HybridWeighted(context, alpha=-0.1)


class TestSystemIntegration:
    def test_spec_label(self):
        from repro.core.system import SystemSpec

        assert SystemSpec("WD/D+H+B", retrials=2).label == "<WD/D+H+B,2>"

    def test_build_and_run(self):
        import repro

        result = repro.quick_run(
            "WD/D+H+B", retrials=2, arrival_rate=30.0,
            warmup_s=50.0, measure_s=150.0, seed=2,
        )
        assert 0.0 < result.admission_probability <= 1.0

    def test_staleness_applies_to_hybrid(self):
        from repro.core.system import SystemSpec
        from repro.flows.group import AnycastGroup
        from repro.flows.traffic import WorkloadSpec
        from repro.network.topologies import (
            MCI_GROUP_MEMBERS,
            MCI_SOURCES,
            mci_backbone,
        )
        from repro.sim.simulation import run_simulation

        workload = WorkloadSpec(
            arrival_rate=30.0,
            sources=MCI_SOURCES,
            group=AnycastGroup("A", MCI_GROUP_MEMBERS),
            mean_lifetime_s=20.0,
        )
        result = run_simulation(
            network_factory=mci_backbone,
            system_spec=SystemSpec(
                "WD/D+H+B", retrials=2, bandwidth_refresh_s=5.0
            ),
            workload=workload,
            warmup_s=30.0,
            measure_s=120.0,
            seed=3,
        )
        assert 0.0 < result.admission_probability <= 1.0

    def test_hybrid_competitive_with_parents(self):
        """At heavy load the hybrid is at least as good as its parents."""
        import repro

        aps = {}
        for algorithm in ("WD/D+H", "WD/D+B", "WD/D+H+B"):
            aps[algorithm] = repro.quick_run(
                algorithm, retrials=2, arrival_rate=35.0,
                warmup_s=150.0, measure_s=500.0, seed=8,
            ).admission_probability
        assert aps["WD/D+H+B"] >= min(aps["WD/D+H"], aps["WD/D+B"]) - 0.03
