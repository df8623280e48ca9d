"""Unit tests for metric collection (repro.sim.metrics)."""

import pytest

from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.routing import Route
from repro.sim.metrics import MetricsCollector, SimulationResult


GROUP = AnycastGroup("A", (0, 4))


def make_result(admitted: bool, attempts: int = 1, destination=0, flow_id=0):
    request = FlowRequest(
        flow_id=flow_id,
        source=1,
        group=GROUP,
        qos=QoSRequirement(bandwidth_bps=64_000.0),
    )
    request.tried = [destination]
    request.attempts = attempts
    request.decided_at = 0.0
    if admitted:
        request.destination = destination
        request.route = Route(1, destination, (1, destination))
    return request


@pytest.fixture
def collector():
    clock = {"t": 0.0}
    collector = MetricsCollector(clock=lambda: clock["t"], batch_size=2)
    collector._test_clock = clock
    return collector


class TestRecording:
    def test_admission_probability(self, collector):
        collector.record_decision(make_result(True))
        collector.record_decision(make_result(True))
        collector.record_decision(make_result(False))
        assert collector.requests == 3
        assert collector.admitted == 2
        assert collector.admission_probability == pytest.approx(2 / 3)

    def test_empty_collector(self, collector):
        assert collector.admission_probability == 0.0
        assert collector.mean_attempts == 0.0
        assert collector.mean_retrials == 0.0

    def test_attempts_and_retrials(self, collector):
        collector.record_decision(make_result(True, attempts=1))
        collector.record_decision(make_result(True, attempts=3))
        assert collector.mean_attempts == pytest.approx(2.0)
        assert collector.mean_retrials == pytest.approx(1.0)

    def test_destination_counts_only_admitted(self, collector):
        collector.record_decision(make_result(True, destination=0))
        collector.record_decision(make_result(True, destination=4))
        collector.record_decision(make_result(False, destination=4))
        assert collector.destination_counts == {0: 1, 4: 1}

    def test_attempt_histogram(self, collector):
        collector.record_decision(make_result(True, attempts=1))
        collector.record_decision(make_result(True, attempts=1))
        collector.record_decision(make_result(False, attempts=2))
        assert collector.attempt_histogram == {1: 2, 2: 1}

    def test_active_flow_tracking(self, collector):
        clock = collector._test_clock
        collector.record_flow_start()
        clock["t"] = 10.0
        collector.record_flow_end()
        clock["t"] = 20.0
        # One flow for 10 s, zero for 10 s -> mean 0.5.
        assert collector.active_flows.mean == pytest.approx(0.5)

    def test_ci_brackets_ap(self, collector):
        for i in range(20):
            collector.record_decision(make_result(i % 2 == 0))
        low, high = collector.admission_probability_ci()
        assert low <= collector.admission_probability <= high


class TestSimulationResult:
    def test_rejected_property(self):
        result = SimulationResult(
            system_label="<ED,2>",
            arrival_rate=20.0,
            duration_s=100.0,
            warmup_s=10.0,
            requests=100,
            admitted=80,
            admission_probability=0.8,
            ap_ci_low=0.75,
            ap_ci_high=0.85,
            mean_attempts=1.2,
            mean_retrials=0.2,
            mean_active_flows=50.0,
        )
        assert result.rejected == 20
        text = str(result)
        assert "<ED,2>" in text
        assert "0.8" in text
