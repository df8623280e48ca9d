"""Tests for per-source fairness metrics."""

import pytest

from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.routing import Route
from repro.sim.metrics import MetricsCollector

GROUP = AnycastGroup("A", (0, 4))


def make_result(source, admitted, flow_id=0):
    request = FlowRequest(
        flow_id=flow_id,
        source=source,
        group=GROUP,
        qos=QoSRequirement(bandwidth_bps=64_000.0),
    )
    request.tried = [0]
    request.attempts = 1
    request.decided_at = 0.0
    if admitted:
        request.destination = 0
        request.route = Route(source, 0, (source, 0))
    return request


@pytest.fixture
def collector():
    return MetricsCollector(clock=lambda: 0.0)


class TestPerSourceAp:
    def test_per_source_breakdown(self, collector):
        collector.record_decision(make_result(1, True))
        collector.record_decision(make_result(1, False))
        collector.record_decision(make_result(3, True))
        assert collector.per_source_ap() == {1: 0.5, 3: 1.0}

    def test_empty(self, collector):
        assert collector.per_source_ap() == {}


class TestJainIndex:
    def test_perfect_fairness(self, collector):
        for source in (1, 3, 5):
            collector.record_decision(make_result(source, True))
        assert collector.fairness_index() == pytest.approx(1.0)

    def test_total_unfairness(self, collector):
        collector.record_decision(make_result(1, True))
        collector.record_decision(make_result(3, False))
        collector.record_decision(make_result(5, False))
        # APs are (1, 0, 0): Jain index = 1/3.
        assert collector.fairness_index() == pytest.approx(1.0 / 3.0)

    def test_intermediate_value(self, collector):
        collector.record_decision(make_result(1, True))
        collector.record_decision(make_result(1, True))
        collector.record_decision(make_result(3, True))
        collector.record_decision(make_result(3, False))
        # APs (1, 0.5): Jain = (1.5^2) / (2 * 1.25) = 0.9.
        assert collector.fairness_index() == pytest.approx(0.9)

    def test_empty_is_one(self, collector):
        assert collector.fairness_index() == 1.0

    def test_all_zero_is_one(self, collector):
        collector.record_decision(make_result(1, False))
        assert collector.fairness_index() == 1.0


class TestSimulationIntegration:
    def test_result_carries_fairness(self):
        import repro

        result = repro.quick_run(
            "ED", retrials=2, arrival_rate=30.0,
            warmup_s=50.0, measure_s=200.0, seed=4,
        )
        assert set(result.per_source_ap) <= set(repro.MCI_SOURCES)
        assert 0.0 < result.fairness_index <= 1.0

    def test_light_load_is_perfectly_fair(self):
        import repro

        result = repro.quick_run(
            "ED", retrials=1, arrival_rate=5.0,
            warmup_s=50.0, measure_s=200.0, seed=4,
        )
        assert result.fairness_index == pytest.approx(1.0, abs=0.01)
