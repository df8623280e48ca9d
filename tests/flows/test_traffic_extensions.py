"""Tests for the workload extension: source hot spots."""

import pytest

from repro.flows.group import AnycastGroup
from repro.flows.traffic import TrafficModel, WorkloadSpec
from repro.sim.random_streams import StreamFactory


def make_spec(**overrides) -> WorkloadSpec:
    defaults = dict(
        arrival_rate=10.0,
        sources=(1, 3, 5),
        group=AnycastGroup("A", (0, 4)),
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestSourceWeights:
    def test_weighted_sources_follow_distribution(self):
        spec = make_spec(source_weights=(8.0, 1.0, 1.0))
        model = TrafficModel(spec, StreamFactory(1))
        counts = {1: 0, 3: 0, 5: 0}
        for _ in range(5000):
            request = model.next_request()
            counts[request.source] += 1
        assert counts[1] / 5000 == pytest.approx(0.8, abs=0.03)

    def test_zero_weight_source_never_chosen(self):
        spec = make_spec(source_weights=(1.0, 0.0, 1.0))
        model = TrafficModel(spec, StreamFactory(2))
        assert all(model.next_request().source != 3 for _ in range(500))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            make_spec(source_weights=(1.0, 1.0))  # wrong length
        with pytest.raises(ValueError):
            make_spec(source_weights=(1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            make_spec(source_weights=(0.0, 0.0, 0.0))

    def test_none_reproduces_uniform(self):
        spec = make_spec()
        assert spec.source_weights is None

