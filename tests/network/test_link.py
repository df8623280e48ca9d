"""Unit tests for capacitated links (repro.network.link)."""

import math

import pytest

from repro.network.link import InsufficientBandwidthError, Link
from repro.network.topologies import mci_backbone
from repro.network.topology import Network


class TestConstruction:
    def test_attributes(self):
        link = Link(0, 1, capacity_bps=1000.0, propagation_delay_s=0.01)
        assert link.source == 0
        assert link.target == 1
        assert link.capacity_bps == 1000.0
        assert link.propagation_delay_s == 0.01

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Link(0, 1, capacity_bps=-1.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Link(0, 1, capacity_bps=1.0, propagation_delay_s=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_capacity_rejected(self, value):
        # A link with a NaN capacity would refuse every flow.
        with pytest.raises(ValueError, match="capacity"):
            Link(0, 1, capacity_bps=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(self, value):
        # A NaN delay would surface only mid-run, as a SimulationError
        # from the first signalling message scheduled over the link.
        with pytest.raises(ValueError, match="propagation delay"):
            Link(0, 1, capacity_bps=1.0, propagation_delay_s=value)

    @pytest.mark.parametrize(
        "options",
        [{"capacity_bps": math.nan}, {"propagation_delay_s": math.nan}],
    )
    def test_network_builders_refuse_non_finite_links(self, options):
        with pytest.raises(ValueError):
            Network().add_link(0, 1, **{"capacity_bps": 1.0, **options})
        with pytest.raises(ValueError):
            mci_backbone(**options)

    def test_initially_empty(self):
        link = Link(0, 1, capacity_bps=1000.0)
        assert link.reserved_bps == 0.0
        assert link.available_bps == 1000.0
        assert link.flow_count == 0
        assert link.utilization == 0.0


class TestReservation:
    def test_reserve_reduces_available(self):
        link = Link(0, 1, capacity_bps=1000.0)
        link.reserve("f1", 300.0)
        assert link.reserved_bps == 300.0
        assert link.available_bps == 700.0
        assert link.holds("f1")
        assert link.reservation_of("f1") == 300.0

    def test_reserve_over_capacity_raises(self):
        link = Link(0, 1, capacity_bps=100.0)
        link.reserve("f1", 80.0)
        with pytest.raises(InsufficientBandwidthError):
            link.reserve("f2", 30.0)
        assert link.rejections == 1
        assert not link.holds("f2")

    def test_exact_fill_allowed(self):
        link = Link(0, 1, capacity_bps=100.0)
        link.reserve("f1", 100.0)
        assert link.available_bps == pytest.approx(0.0)

    def test_double_reservation_same_flow_rejected(self):
        link = Link(0, 1, capacity_bps=100.0)
        link.reserve("f1", 10.0)
        with pytest.raises(ValueError):
            link.reserve("f1", 10.0)

    def test_negative_bandwidth_rejected(self):
        link = Link(0, 1, capacity_bps=100.0)
        with pytest.raises(ValueError):
            link.reserve("f1", -5.0)

    def test_nan_bandwidth_rejected(self):
        link = Link(0, 1, capacity_bps=100.0)
        with pytest.raises(ValueError):
            link.reserve("f1", math.nan)
        assert not link.holds("f1")

    def test_zero_bandwidth_reservation_allowed(self):
        link = Link(0, 1, capacity_bps=100.0)
        link.reserve("f1", 0.0)
        assert link.holds("f1")
        assert link.available_bps == 100.0

    def test_grants_counter(self):
        link = Link(0, 1, capacity_bps=100.0)
        link.reserve("f1", 10.0)
        link.reserve("f2", 10.0)
        assert link.grants == 2

    def test_refused_attempt_counts_one_probe_per_tested_hop(self):
        # Refused at hop 3: hops 1 and 2 passed the test (one grant
        # each, nothing written), hop 3 counts the rejection.
        network = Network()
        for node, capacity in enumerate((100.0, 100.0, 10.0)):
            network.add_link(node, node + 1, capacity_bps=capacity)
        links = network.path_links([0, 1, 2, 3])
        assert not network.reserve_links(links, "f", 50.0)
        assert [link.grants for link in links] == [1, 1, 0]
        assert [link.rejections for link in links] == [0, 0, 1]
        assert not any(link.holds("f") for link in links)

    def test_many_flows_sum(self):
        link = Link(0, 1, capacity_bps=640.0)
        for i in range(10):
            link.reserve(i, 64.0)
        assert link.flow_count == 10
        assert link.available_bps == pytest.approx(0.0)
        assert set(link.flows()) == set(range(10))


class TestRelease:
    def test_release_returns_bandwidth(self):
        link = Link(0, 1, capacity_bps=100.0)
        link.reserve("f1", 40.0)
        released = link.release("f1")
        assert released == 40.0
        assert link.available_bps == 100.0
        assert not link.holds("f1")

    def test_release_unknown_flow_raises(self):
        link = Link(0, 1, capacity_bps=100.0)
        with pytest.raises(KeyError):
            link.release("ghost")

    def test_release_if_held(self):
        link = Link(0, 1, capacity_bps=100.0)
        link.reserve("f1", 40.0)
        assert link.release_if_held("f1") == 40.0
        assert link.release_if_held("f1") == 0.0

    def test_reserve_after_release_succeeds(self):
        link = Link(0, 1, capacity_bps=100.0)
        link.reserve("f1", 100.0)
        link.release("f1")
        link.reserve("f2", 100.0)
        assert link.holds("f2")


class TestCanAdmit:
    def test_can_admit_respects_available(self):
        link = Link(0, 1, capacity_bps=100.0)
        link.reserve("f1", 60.0)
        assert link.can_admit(40.0)
        assert not link.can_admit(41.0)

    def test_float_tolerance_on_exact_boundary(self):
        link = Link(0, 1, capacity_bps=0.3)
        link.reserve("a", 0.1)
        link.reserve("b", 0.1)
        # 0.3 - 0.1 - 0.1 may be 0.09999...; tolerance must accept 0.1.
        assert link.can_admit(0.1)


class TestReservedDriftRegression:
    """Long reserve/release churn must not accumulate float drift.

    The running reserved total is maintained incrementally on the hot
    path; amounts whose sums are inexact in binary (0.1-style) would
    drift it away from zero over ~1e5 cycles, leaving an idle link
    that cannot admit a capacity-filling flow.  The ledger snaps the
    total back to the exact sum whenever it empties (or dips
    negative), so churn of any length leaves no residue.
    """

    CAPACITY = 20_000_000.0
    # Sums of these are inexact in binary floating point.
    AMOUNTS = (64_000.1, 33_333.333, 0.001, 123_456.789)

    def test_churn_cycles_leave_idle_link_exact(self):
        link = Link(0, 1, capacity_bps=self.CAPACITY)
        # 25k cycles x 4 flows = 1e5 reserve/release pairs.
        for cycle in range(25_000):
            for j, amount in enumerate(self.AMOUNTS):
                link.reserve((cycle, j), amount)
            for j in range(len(self.AMOUNTS)):
                link.release((cycle, j))
            # Exact zero — not approximately zero — every time the
            # ledger empties.
            assert link.reserved_bps == 0.0
        assert link.available_bps == self.CAPACITY
        # The acid test: a flow wanting every last bit still fits.
        link.reserve("full", self.CAPACITY)
        assert link.available_bps == 0.0

    def test_interleaved_churn_snaps_on_empty(self):
        """Out-of-order releases with overlapping holders."""
        link = Link(0, 1, capacity_bps=self.CAPACITY)
        for cycle in range(10_000):
            for j, amount in enumerate(self.AMOUNTS):
                link.reserve((cycle, j), amount)
            # Release in a different order than reserved.
            for j in (2, 0, 3, 1):
                link.release((cycle, j))
            assert link.reserved_bps == 0.0
        assert link.available_bps == self.CAPACITY

    def test_reserved_total_never_negative_during_churn(self):
        link = Link(0, 1, capacity_bps=self.CAPACITY)
        for cycle in range(5_000):
            link.reserve((cycle, "big"), 1e7 + 0.1)
            link.reserve((cycle, "small"), 0.3)
            link.release((cycle, "big"))
            # Ledger still holds the small flow; no negative total.
            assert link.reserved_bps >= 0.0
            link.release((cycle, "small"))
            assert link.reserved_bps == 0.0
