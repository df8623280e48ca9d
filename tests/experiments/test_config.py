"""Unit tests for experiment configuration (repro.experiments.config)."""

import pytest

from repro.experiments.config import (
    ExperimentConfig,
    PAPER_ARRIVAL_RATES,
    PAPER_RETRIAL_LIMITS,
    TABLE_ARRIVAL_RATES,
    paper_config,
    quick_config,
)
from repro.network.topologies import MCI_GROUP_MEMBERS, MCI_SOURCES


class TestPresets:
    def test_paper_defaults(self):
        config = paper_config()
        assert config.topology == "mci"
        assert config.sources == MCI_SOURCES
        assert config.group_members == MCI_GROUP_MEMBERS
        assert config.mean_lifetime_s == 180.0
        assert config.bandwidth_bps == 64_000.0
        assert config.arrival_rates == PAPER_ARRIVAL_RATES
        assert config.retrial_limits == PAPER_RETRIAL_LIMITS

    def test_quick_is_shorter(self):
        quick = quick_config()
        paper = paper_config()
        assert quick.measure_s < paper.measure_s
        assert quick.replications <= paper.replications
        assert quick.arrival_rates == TABLE_ARRIVAL_RATES

    def test_paper_grid_matches_tables(self):
        assert set(TABLE_ARRIVAL_RATES) <= set(PAPER_ARRIVAL_RATES)
        assert PAPER_RETRIAL_LIMITS == (1, 2, 3, 4, 5)


class TestValidation:
    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(topology="atlantis")

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replications=0)

    @pytest.mark.parametrize(
        "field, value", [("replications", 2.5), ("workers", 1.5), ("workers", 0)]
    )
    def test_counts_must_be_integers_at_least_one(self, field, value):
        # A float count used to fail only inside run_point, with TypeError.
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})


class TestHelpers:
    def test_network_factory_builds_fresh_instances(self):
        config = paper_config()
        a = config.network_factory()()
        b = config.network_factory()()
        assert a is not b
        assert a.node_count == b.node_count == 19

    def test_group_helper(self):
        group = paper_config().group()
        assert group.members == MCI_GROUP_MEMBERS

    def test_workload_helper(self):
        workload = paper_config().workload(25.0)
        assert workload.arrival_rate == 25.0
        assert workload.sources == MCI_SOURCES

    def test_scaled_copy(self):
        config = paper_config()
        scaled = config.scaled(measure_s=123.0, seed=9)
        assert scaled.measure_s == 123.0
        assert scaled.seed == 9
        assert scaled.topology == config.topology
        assert config.measure_s != 123.0  # original untouched


class TestWorkloadExtensionsPropagate:
    def test_source_weights_flow_into_workload(self):
        weights = tuple(float(i + 1) for i in range(9))
        config = ExperimentConfig(source_weights=weights)
        workload = config.workload(10.0)
        assert workload.source_weights == weights

    def test_defaults_reproduce_paper(self):
        workload = ExperimentConfig().workload(10.0)
        assert workload.source_weights is None
