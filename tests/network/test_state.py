"""Unit tests for the bandwidth a selector reads: live columns or a
snapshot copy (repro.network.state)."""

import math

import pytest

from repro import invariants
from repro.core.selection import (
    DistanceBandwidthWeighted,
    HybridWeighted,
    SelectionContext,
)
from repro.flows.group import AnycastGroup
from repro.network.faults import FaultState
from repro.network.routing import Route, RouteTable
from repro.network.state import SnapshotBandwidthView
from repro.network.topologies import MCI_GROUP_MEMBERS, line, mci_backbone
from repro.sim.random_streams import StreamFactory


@pytest.fixture
def network():
    return line(4, capacity_bps=10 * 64_000.0)


ROUTE = Route(source=0, destination=3, path=(0, 1, 2, 3))


def bottleneck(columns, route, network):
    """``B_i`` of ``route`` in ``columns``, read link by link."""
    return min(
        columns.capacity[link.index] - columns.reserved[link.index]
        for link in route.resolve_links(network)
    )


def bandwidth_selector(
    network, source, members, snapshot=None, selector=DistanceBandwidthWeighted
):
    group = AnycastGroup("A", members)
    routes = RouteTable(network, source, members)
    context = SelectionContext(network=network, routes=routes, group=group)
    return selector(context, snapshot=snapshot)


class TestLiveView:
    """With no snapshot, a selector scans the network's live columns."""

    def test_reflects_current_state(self):
        # Node 2 sits two hops from both members.
        network = line(5, capacity_bps=10 * 64_000.0)
        selector = bandwidth_selector(network, 2, (0, 4))
        assert selector.weights() == [0.5, 0.5]
        network.link(2, 3).reserve("f", 64_000.0)
        assert selector.weights() == [10 / 19, 9 / 19]

    def test_route_scan_is_the_path_bottleneck(self):
        # WD/D+B's per-request scan reads each route through its cached
        # link ids; it must agree with the path walk on the MCI backbone.
        network = mci_backbone()
        selector = bandwidth_selector(network, 9, MCI_GROUP_MEMBERS)
        routes = selector.context.routes.routes()
        network.reserve_links(routes[0].resolve_links(network), "f", 64_000.0)
        assert selector._column_scores()[0] == [
            min(link.available_bps for link in network.path_links(route.path))
            / route.distance
            for route in routes
        ]
        assert bottleneck(network.link_state, routes[0], network) == (
            network.link(*routes[0].path[:2]).capacity_bps - 64_000.0
        )


class TestKeptScan:
    """A bandwidth selector reuses its last scan until the columns it
    reads are another object or their write counter has moved."""

    @pytest.mark.parametrize("selector", [DistanceBandwidthWeighted, HybridWeighted])
    def test_reused_until_a_write(self, selector):
        network = line(5, capacity_bps=10 * 64_000.0)
        chooser = bandwidth_selector(network, 2, (0, 4), selector=selector)
        scores, total = chooser._column_scores()
        assert chooser._column_scores()[0] is scores
        # A refused reservation writes nothing: the scan is kept.
        assert not network.reserve_links(
            network.path_links((2, 3, 4)), "big", 11 * 64_000.0
        )
        assert chooser._column_scores()[0] is scores
        network.link(2, 3).reserve("f", 64_000.0)
        assert chooser._column_scores() == ([320_000.0, 288_000.0], 608_000.0)

    def test_a_repair_alone_forces_a_new_scan(self):
        # The repair writes the capacity column and nothing else: no
        # reservation, release or refresh moves the counter for it.
        network = line(5, capacity_bps=10 * 64_000.0)
        chooser = bandwidth_selector(network, 2, (0, 4))
        faults = FaultState(network)
        faults.fail(3, 4)
        assert chooser.weights() == [1.0, 0.0]
        faults.repair(3, 4)
        assert chooser.weights() == [0.5, 0.5]

    def test_a_snapshot_refresh_forces_a_new_scan(self, network):
        clock = {"t": 0.0}
        snapshot = SnapshotBandwidthView(network, lambda: clock["t"], 10.0)
        chooser = bandwidth_selector(network, 0, (2, 3), snapshot)
        scores, _ = chooser._column_scores()
        network.link(0, 1).reserve("f", 64_000.0)
        assert chooser._column_scores()[0] is scores  # the copy is unchanged
        clock["t"] = 10.0
        assert chooser._column_scores()[0] == [288_000.0, 192_000.0]

    def test_sanitizer_catches_a_write_that_skips_the_counter(self):
        network = line(5, capacity_bps=10 * 64_000.0)
        chooser = bandwidth_selector(network, 2, (0, 4))
        chooser.weights()
        link = network.link(2, 3)
        network.link_state.reserved[link.index] = 64_000.0  # counter not moved
        previous = invariants.is_enabled()
        invariants.set_enabled(True)
        try:
            with pytest.raises(invariants.InvariantViolation, match="new scan"):
                chooser.weights()
        finally:
            invariants.set_enabled(previous)


class TestSnapshotView:
    def test_serves_stale_values_within_period(self, network):
        clock = {"t": 0.0}
        view = SnapshotBandwidthView(network, lambda: clock["t"], 10.0)
        assert bottleneck(view.columns(), ROUTE, network) == 10 * 64_000.0
        network.link(1, 2).reserve("f", 64_000.0)
        clock["t"] = 5.0  # still inside the snapshot lifetime
        assert bottleneck(view.columns(), ROUTE, network) == 10 * 64_000.0
        assert view.refreshes == 1

    def test_refreshes_after_period(self, network):
        clock = {"t": 0.0}
        view = SnapshotBandwidthView(network, lambda: clock["t"], 10.0)
        view.columns()
        network.link(1, 2).reserve("f", 64_000.0)
        clock["t"] = 10.0
        assert bottleneck(view.columns(), ROUTE, network) == 9 * 64_000.0
        assert view.refreshes == 2

    def test_zero_period_is_always_fresh(self, network):
        clock = {"t": 0.0}
        view = SnapshotBandwidthView(network, lambda: clock["t"], 0.0)
        view.columns()
        network.link(1, 2).reserve("f", 64_000.0)
        assert bottleneck(view.columns(), ROUTE, network) == 9 * 64_000.0

    def test_snapshot_is_a_copy_of_both_columns(self, network):
        # A fault lowers capacity, a flow raises reserved: the snapshot
        # keeps both as they were when it was taken.
        view = SnapshotBandwidthView(network, lambda: 0.0, 10.0)
        columns = view.columns()
        assert columns is not network.link_state
        assert list(columns.capacity) == list(network.link_state.capacity)
        network.link(0, 1).reserve("f", 64_000.0)
        FaultState(network).fail(2, 3)
        assert set(columns.reserved) == {0.0}
        assert set(columns.capacity) == {10 * 64_000.0}
        assert view.columns() is columns

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
        # Symmetric geometry: node 2 sits two hops from both members.
        network = line(5, capacity_bps=10 * 64_000.0)
        clock = {"t": 0.0}
        group = AnycastGroup("A", (0, 4))
        routes = RouteTable(network, 2, (0, 4))
        context = SelectionContext(network=network, routes=routes, group=group)
        stale = DistanceBandwidthWeighted(
            context,
            snapshot=SnapshotBandwidthView(network, lambda: clock["t"], 60.0),
        )
        fresh = DistanceBandwidthWeighted(context)
        assert stale.weights() == pytest.approx([0.5, 0.5])
        # Saturate the route toward node 4 after the snapshot.
        network.link(2, 3).reserve("f", 10 * 64_000.0)
        clock["t"] = 1.0
        assert fresh.weights() == pytest.approx([1.0, 0.0])
        assert stale.weights() == pytest.approx([0.5, 0.5])  # stale!

    @pytest.mark.parametrize("selector", [DistanceBandwidthWeighted, HybridWeighted])
    def test_only_routers_that_read_bandwidth_refresh(self, selector):
        # A router whose source is a member gives its zero-hop route all
        # the weight without reading bandwidth, so it never refreshes
        # the shared snapshot; any other router refreshes once per
        # elapsed period, however often it draws.
        network = line(5, capacity_bps=10 * 64_000.0)
        clock = {"t": 0.0}
        snapshot = SnapshotBandwidthView(network, lambda: clock["t"], 5.0)
        # The zero-hop member comes last, after a route with hops.
        member = bandwidth_selector(network, 0, (4, 0), snapshot, selector)
        other = bandwidth_selector(network, 2, (4, 0), snapshot, selector)
        rng = StreamFactory(1).stream("draw")
        for step in range(40):
            clock["t"] = step * 0.5
            assert member.select(rng) == 0
        assert snapshot.refreshes == 0
        for step in range(40):
            clock["t"] = 20.0 + step * 0.5
            other.select(rng)
        assert snapshot.refreshes == 4  # at 20, 25, 30 and 35 s

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
