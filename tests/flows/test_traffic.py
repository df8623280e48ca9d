"""Unit tests for workload generation (repro.flows.traffic)."""

import math

import pytest

from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.traffic import TrafficModel, WorkloadSpec
from repro.sim.random_streams import StreamFactory


def take(model: TrafficModel, count: int) -> list[FlowRequest]:
    """The next ``count`` requests of ``model``."""
    return [model.next_request() for _ in range(count)]


def make_spec(**overrides) -> WorkloadSpec:
    defaults = dict(
        arrival_rate=10.0,
        sources=(1, 3, 5),
        group=AnycastGroup("A", (0, 4)),
        mean_lifetime_s=180.0,
        bandwidth_bps=64_000.0,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestWorkloadSpec:
    def test_derived_quantities(self):
        spec = make_spec()
        assert spec.per_source_rate == pytest.approx(10.0 / 3.0)
        assert spec.offered_load_erlangs == pytest.approx(1800.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(arrival_rate=0.0)
        with pytest.raises(ValueError):
            make_spec(sources=())
        with pytest.raises(ValueError):
            make_spec(mean_lifetime_s=0.0)
        with pytest.raises(ValueError):
            make_spec(bandwidth_bps=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_rate", math.nan),
            ("arrival_rate", math.inf),
            ("mean_lifetime_s", math.nan),
            ("mean_lifetime_s", math.inf),
            ("bandwidth_bps", math.nan),
            ("bandwidth_bps", math.inf),
        ],
    )
    def test_non_finite_values_rejected(self, field, value):
        # Caught here rather than at the first draw or admission.
        with pytest.raises(ValueError):
            make_spec(**{field: value})

    def test_qos_carries_bandwidth_and_delay(self):
        spec = make_spec(delay_bound_s=0.1)
        qos = spec.qos()
        assert qos.bandwidth_bps == 64_000.0
        assert qos.delay_bound_s == 0.1


class TestTrafficModel:
    def test_arrival_times_increase(self):
        model = TrafficModel(make_spec(), StreamFactory(1))
        requests = take(model, 100)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_flow_ids_sequential(self):
        model = TrafficModel(make_spec(), StreamFactory(1))
        requests = take(model, 10)
        assert [r.flow_id for r in requests] == list(range(10))
        assert model.generated_count == 10

    def test_sources_from_spec_only(self):
        model = TrafficModel(make_spec(), StreamFactory(1))
        for request in take(model, 200):
            assert request.source in (1, 3, 5)

    def test_source_distribution_uniform(self):
        model = TrafficModel(make_spec(), StreamFactory(2))
        counts = {1: 0, 3: 0, 5: 0}
        for request in take(model, 6000):
            counts[request.source] += 1
        for count in counts.values():
            assert count == pytest.approx(2000, rel=0.1)

    def test_interarrival_mean_matches_rate(self):
        spec = make_spec(arrival_rate=4.0)
        model = TrafficModel(spec, StreamFactory(3))
        requests = take(model, 20000)
        mean_gap = requests[-1].arrival_time / len(requests)
        assert mean_gap == pytest.approx(0.25, rel=0.05)

    def test_lifetime_mean(self):
        model = TrafficModel(make_spec(mean_lifetime_s=60.0), StreamFactory(4))
        lifetimes = [r.lifetime_s for r in take(model, 20000)]
        assert sum(lifetimes) / len(lifetimes) == pytest.approx(60.0, rel=0.05)

    def test_deterministic_given_seed(self):
        a = take(TrafficModel(make_spec(), StreamFactory(9)), 50)
        b = take(TrafficModel(make_spec(), StreamFactory(9)), 50)
        assert [(r.arrival_time, r.source, r.lifetime_s) for r in a] == [
            (r.arrival_time, r.source, r.lifetime_s) for r in b
        ]

    def test_requests_carry_group_and_qos(self):
        spec = make_spec()
        model = TrafficModel(spec, StreamFactory(1))
        request = model.next_request()
        assert request.group == spec.group
        assert request.bandwidth_bps == spec.bandwidth_bps
