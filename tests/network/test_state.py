"""Unit tests for bandwidth views (repro.network.state)."""

import math

import pytest

from repro.network.routing import RouteTable
from repro.network.state import LiveBandwidthView, SnapshotBandwidthView
from repro.network.topologies import MCI_GROUP_MEMBERS, line, mci_backbone


@pytest.fixture
def network():
    return line(4, capacity_bps=10 * 64_000.0)


PATH = (0, 1, 2, 3)


class TestLiveView:
    def test_reflects_current_state(self, network):
        view = LiveBandwidthView(network)
        assert view.path_available_bps(PATH) == 10 * 64_000.0
        network.link(1, 2).reserve("f", 64_000.0)
        assert view.path_available_bps(PATH) == 9 * 64_000.0

    def test_route_scan_is_the_path_bottleneck(self):
        # WD/D+B's per-request scan reads each route through its cached
        # link ids; it must agree with the path walk on the MCI backbone.
        network = mci_backbone()
        view = LiveBandwidthView(network)
        routes = RouteTable(network, 9, MCI_GROUP_MEMBERS).routes()
        network.reserve_path(routes[0].path, "f", 64_000.0)
        for route in routes:
            assert view.route_available_bps(route) == view.path_available_bps(
                route.path
            )
        assert view.route_available_bps(routes[0]) == (
            network.link(*routes[0].path[:2]).capacity_bps - 64_000.0
        )


class TestSnapshotView:
    def test_serves_stale_values_within_period(self, network):
        clock = {"t": 0.0}
        view = SnapshotBandwidthView(network, lambda: clock["t"], 10.0)
        assert view.path_available_bps(PATH) == 10 * 64_000.0
        network.link(1, 2).reserve("f", 64_000.0)
        clock["t"] = 5.0  # still inside the snapshot lifetime
        assert view.path_available_bps(PATH) == 10 * 64_000.0
        assert view.refreshes == 1

    def test_refreshes_after_period(self, network):
        clock = {"t": 0.0}
        view = SnapshotBandwidthView(network, lambda: clock["t"], 10.0)
        view.path_available_bps(PATH)
        network.link(1, 2).reserve("f", 64_000.0)
        clock["t"] = 10.0
        assert view.path_available_bps(PATH) == 9 * 64_000.0
        assert view.refreshes == 2

    def test_zero_period_is_always_fresh(self, network):
        clock = {"t": 0.0}
        view = SnapshotBandwidthView(network, lambda: clock["t"], 0.0)
        view.path_available_bps(PATH)
        network.link(1, 2).reserve("f", 64_000.0)
        assert view.path_available_bps(PATH) == 9 * 64_000.0

    def test_age_tracking(self, network):
        clock = {"t": 0.0}
        view = SnapshotBandwidthView(network, lambda: clock["t"], 100.0)
        assert view.age_s == float("inf")
        view.path_available_bps(PATH)
        clock["t"] = 7.0
        assert view.age_s == 7.0

    def test_degenerate_path_is_infinite(self, network):
        clock = {"t": 0.0}
        view = SnapshotBandwidthView(network, lambda: clock["t"], 10.0)
        assert view.path_available_bps((0,)) == float("inf")

    def test_negative_period_rejected(self, network):
        with pytest.raises(ValueError):
            SnapshotBandwidthView(network, lambda: 0.0, -1.0)

    @pytest.mark.parametrize("period", [math.nan, math.inf])
    def test_non_finite_period_rejected(self, network, period):
        # A NaN period would refresh on every query, silently serving
        # live information.
        with pytest.raises(ValueError, match="refresh period"):
            SnapshotBandwidthView(network, lambda: 0.0, period)


class TestSelectorIntegration:
    def test_wddb_with_stale_view_ignores_recent_load(self):
        from repro.core.selection import (
            DistanceBandwidthWeighted,
            SelectionContext,
        )
        from repro.flows.group import AnycastGroup
        from repro.network.routing import RouteTable

        # Symmetric geometry: node 2 sits two hops from both members.
        network = line(5, capacity_bps=10 * 64_000.0)
        clock = {"t": 0.0}
        group = AnycastGroup("A", (0, 4))
        routes = RouteTable(network, 2, (0, 4))
        context = SelectionContext(network=network, routes=routes, group=group)
        stale = DistanceBandwidthWeighted(
            context,
            view=SnapshotBandwidthView(network, lambda: clock["t"], 60.0),
        )
        fresh = DistanceBandwidthWeighted(context)
        assert stale.weights() == pytest.approx([0.5, 0.5])
        # Saturate the route toward node 4 after the snapshot.
        network.link(2, 3).reserve("f", 10 * 64_000.0)
        clock["t"] = 1.0
        assert fresh.weights() == pytest.approx([1.0, 0.0])
        assert stale.weights() == pytest.approx([0.5, 0.5])  # stale!

    def test_build_system_requires_clock_for_staleness(self):
        from repro.core.system import SystemSpec, build_system
        from repro.flows.group import AnycastGroup
        from repro.network.topologies import mci_backbone
        from repro.sim.random_streams import StreamFactory

        with pytest.raises(ValueError):
            build_system(
                SystemSpec("WD/D+B", retrials=2, bandwidth_refresh_s=5.0),
                mci_backbone(),
                (1, 3),
                AnycastGroup("A", (0, 4)),
                StreamFactory(0),
            )

    def test_simulation_runs_with_staleness(self):
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
            mean_lifetime_s=30.0,
        )
        result = run_simulation(
            network_factory=mci_backbone,
            system_spec=SystemSpec("WD/D+B", retrials=2, bandwidth_refresh_s=5.0),
            workload=workload,
            warmup_s=50.0,
            measure_s=150.0,
            seed=8,
        )
        assert 0.0 < result.admission_probability <= 1.0
