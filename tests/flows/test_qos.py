"""Unit tests for QoS and the WFQ delay mapping (repro.flows.qos)."""

import math

import pytest

from repro.flows.qos import (
    QoSRequirement,
    delay_bound_to_bandwidth_wfq,
    wfq_delay_bound,
)


class TestQoSRequirement:
    def test_effective_bandwidth_defaults_to_throughput(self):
        qos = QoSRequirement(bandwidth_bps=64_000.0)
        assert qos.effective_bandwidth_bps == 64_000.0

    def test_positive_bandwidth_required(self):
        with pytest.raises(ValueError):
            QoSRequirement(bandwidth_bps=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_finite_bandwidth_required(self, value):
        # A NaN flow would otherwise be refused as if the network were
        # full; an infinite one could never be admitted.
        with pytest.raises(ValueError):
            QoSRequirement(bandwidth_bps=value)

    def test_positive_delay_required(self):
        with pytest.raises(ValueError):
            QoSRequirement(bandwidth_bps=1.0, delay_bound_s=0.0)

    def test_with_route_noop_without_delay_bound(self):
        qos = QoSRequirement(bandwidth_bps=64_000.0)
        assert qos.with_route(3, [1e8, 1e8, 1e8]) is qos

    def test_with_route_raises_effective_bandwidth(self):
        qos = QoSRequirement(bandwidth_bps=64_000.0, delay_bound_s=0.05)
        resolved = qos.with_route(3, [1e8, 1e8, 1e8])
        assert resolved.effective_bandwidth_bps > 64_000.0

    def test_loose_delay_keeps_throughput_rate(self):
        qos = QoSRequirement(bandwidth_bps=64_000.0, delay_bound_s=100.0)
        resolved = qos.with_route(2, [1e8, 1e8])
        assert resolved.effective_bandwidth_bps == 64_000.0

    def test_tighter_delay_needs_more_bandwidth(self):
        loose = QoSRequirement(bandwidth_bps=1.0, delay_bound_s=0.5)
        tight = QoSRequirement(bandwidth_bps=1.0, delay_bound_s=0.05)
        speeds = [1e8, 1e8]
        assert (
            tight.with_route(2, speeds).effective_bandwidth_bps
            > loose.with_route(2, speeds).effective_bandwidth_bps
        )


class TestWfqDelayBound:
    def test_bound_decreases_with_rate(self):
        kwargs = dict(
            burst_bits=12_000.0,
            max_packet_bits=12_000.0,
            hop_count=3,
            link_speeds_bps=[1e8] * 3,
        )
        assert wfq_delay_bound(1e5, **kwargs) > wfq_delay_bound(1e6, **kwargs)

    def test_bound_grows_with_hops(self):
        low = wfq_delay_bound(1e6, 12_000.0, 12_000.0, 2, [1e8] * 2)
        high = wfq_delay_bound(1e6, 12_000.0, 12_000.0, 5, [1e8] * 5)
        assert high > low

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            wfq_delay_bound(0.0, 1.0, 1.0, 1, [1e8])
        with pytest.raises(ValueError):
            wfq_delay_bound(1.0, 1.0, 1.0, 0, [])
        with pytest.raises(ValueError):
            wfq_delay_bound(1.0, 1.0, 1.0, 2, [1e8])  # speeds mismatch


class TestDelayToBandwidth:
    def test_round_trip_consistency(self):
        # Rate computed for a target bound must achieve exactly that bound.
        target = 0.05
        speeds = [1e8, 1e8, 1e8]
        rate = delay_bound_to_bandwidth_wfq(target, 12_000.0, 12_000.0, 3, speeds)
        achieved = wfq_delay_bound(rate, 12_000.0, 12_000.0, 3, speeds)
        assert achieved == pytest.approx(target, rel=1e-9)

    def test_infeasible_bound_raises(self):
        # Store-and-forward alone takes 3 * 12000/1e6 = 0.036 s.
        with pytest.raises(ValueError):
            delay_bound_to_bandwidth_wfq(0.01, 12_000.0, 12_000.0, 3, [1e6] * 3)

    def test_fluid_single_hop_flow_needs_no_rate(self):
        rate = delay_bound_to_bandwidth_wfq(1.0, 0.0, 12_000.0, 1, [1e8])
        assert rate == 0.0

    def test_fluid_flow_with_impossible_bound_raises(self):
        with pytest.raises(ValueError):
            delay_bound_to_bandwidth_wfq(1e-9, 0.0, 12_000.0, 1, [1e6])

    def test_tighter_bound_needs_more_rate(self):
        speeds = [1e8, 1e8]
        loose = delay_bound_to_bandwidth_wfq(0.5, 12_000.0, 12_000.0, 2, speeds)
        tight = delay_bound_to_bandwidth_wfq(0.05, 12_000.0, 12_000.0, 2, speeds)
        assert tight > loose

    def test_validation(self):
        with pytest.raises(ValueError):
            delay_bound_to_bandwidth_wfq(-1.0, 1.0, 1.0, 1, [1e8])
        with pytest.raises(ValueError):
            delay_bound_to_bandwidth_wfq(1.0, 1.0, 1.0, 0, [])
        with pytest.raises(ValueError):
            delay_bound_to_bandwidth_wfq(1.0, 1.0, 1.0, 2, [1e8])
