"""Unit tests for the simulation model (repro.sim.simulation)."""

import math

import pytest

from repro.core.system import SystemSpec
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.topologies import (
    MCI_GROUP_MEMBERS,
    MCI_SOURCES,
    line,
    mci_backbone,
)
from repro.sim.simulation import AnycastSimulation, run_simulation


def small_workload(arrival_rate=20.0) -> WorkloadSpec:
    return WorkloadSpec(
        arrival_rate=arrival_rate,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        mean_lifetime_s=30.0,
    )


def quick_sim(**overrides) -> AnycastSimulation:
    defaults = dict(
        network_factory=mci_backbone,
        system_spec=SystemSpec("ED", retrials=2),
        workload=small_workload(),
        warmup_s=50.0,
        measure_s=200.0,
        seed=1,
    )
    defaults.update(overrides)
    return AnycastSimulation(**defaults)


class TestMechanics:
    def test_result_fields_consistent(self):
        result = quick_sim().run()
        assert result.requests > 0
        assert 0 <= result.admitted <= result.requests
        assert result.admission_probability == pytest.approx(
            result.admitted / result.requests
        )
        assert result.mean_attempts >= 1.0
        assert result.mean_retrials == pytest.approx(result.mean_attempts - 1.0)
        assert result.system_label == "<ED,2>"

    def test_single_use(self):
        simulation = quick_sim()
        simulation.run()
        with pytest.raises(RuntimeError):
            simulation.run()

    def test_deterministic_given_seed(self):
        a = quick_sim(seed=5).run()
        b = quick_sim(seed=5).run()
        assert a.admission_probability == b.admission_probability
        assert a.requests == b.requests
        assert a.destination_share == b.destination_share

    def test_seeds_differ(self):
        a = quick_sim(seed=5).run()
        b = quick_sim(seed=6).run()
        assert a.requests != b.requests or (
            a.admission_probability != b.admission_probability
        )

    def test_warmup_excluded_from_counts(self):
        with_warmup = quick_sim(warmup_s=100.0, measure_s=100.0, seed=3).run()
        without = quick_sim(warmup_s=0.0, measure_s=200.0, seed=3).run()
        # Same horizon, different measurement windows.
        assert with_warmup.requests < without.requests

    def test_validation(self):
        with pytest.raises(ValueError):
            quick_sim(warmup_s=-1.0)
        with pytest.raises(ValueError):
            quick_sim(measure_s=0.0)

    @pytest.mark.parametrize("field", ["warmup_s", "measure_s"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_window_must_be_finite(self, field, value):
        # A NaN window passes sign checks, and its horizon never stops
        # the event loop: the run would not return.
        with pytest.raises(ValueError):
            quick_sim(**{field: value})

    def test_run_simulation_wrapper(self):
        result = run_simulation(
            network_factory=mci_backbone,
            system_spec=SystemSpec("SP"),
            workload=small_workload(),
            warmup_s=10.0,
            measure_s=50.0,
            seed=2,
        )
        assert result.system_label == "SP"

    def test_destination_share_sums_to_one(self):
        result = quick_sim().run()
        assert sum(result.destination_share.values()) == pytest.approx(1.0)

    def test_link_utilization_reported(self):
        result = quick_sim().run()
        assert result.link_utilization
        for value in result.link_utilization.values():
            assert 0.0 <= value <= 1.0


class TestConservation:
    def test_no_leaked_reservations_after_drain(self):
        """After all flows depart, the network must be empty."""
        simulation = quick_sim(seed=9)
        simulation.run()
        # Let every departure event drain past the horizon.
        simulation.simulator.run()
        assert simulation.network.total_reserved_bps() == pytest.approx(0.0)

    def test_reserved_bandwidth_matches_active_flows(self):
        simulation = quick_sim(seed=4)
        result = simulation.run()
        # At the horizon, total reserved bandwidth = sum over active
        # flows of bandwidth * hop count; consistency check via links.
        total = simulation.network.total_reserved_bps()
        assert total >= 0.0
        per_flow = simulation.workload.bandwidth_bps
        assert total / per_flow == pytest.approx(round(total / per_flow), abs=1e-6)


class TestSaturation:
    def test_tiny_capacity_rejects_most(self):
        # One slot per link on a line; heavy traffic.
        workload = WorkloadSpec(
            arrival_rate=50.0,
            sources=(1,),
            group=AnycastGroup("A", (0, 3)),
            mean_lifetime_s=100.0,
        )
        result = run_simulation(
            network_factory=lambda: line(4, capacity_bps=64_000.0),
            system_spec=SystemSpec("ED", retrials=2),
            workload=workload,
            warmup_s=50.0,
            measure_s=200.0,
            seed=0,
        )
        assert result.admission_probability < 0.05

    def test_overprovisioned_admits_all(self):
        workload = small_workload(arrival_rate=5.0)
        result = run_simulation(
            network_factory=lambda: mci_backbone(capacity_bps=1e9),
            system_spec=SystemSpec("ED", retrials=1),
            workload=workload,
            warmup_s=20.0,
            measure_s=100.0,
            seed=0,
        )
        assert result.admission_probability == 1.0


class TestWarmupOccupancyReset:
    """mean_active_flows must cover only the measurement window — the
    empty-network warm-up ramp used to stay in the time-weighted
    integral and bias the occupancy mean low."""

    def test_occupancy_stats_cover_measurement_window_only(self):
        simulation = quick_sim(warmup_s=100.0, measure_s=200.0)
        simulation.run()
        observed = simulation.metrics.active_flows.total_time
        assert observed == pytest.approx(200.0, rel=1e-9)

    def test_warmup_ramp_does_not_bias_mean_down(self):
        """A long warm-up must not change the occupancy estimate much,
        while folding its ramp in would drag it towards zero."""
        short = quick_sim(warmup_s=50.0, measure_s=300.0, seed=9).run()
        long = quick_sim(warmup_s=400.0, measure_s=300.0, seed=9).run()
        assert long.mean_active_flows == pytest.approx(
            short.mean_active_flows, rel=0.25
        )
        # And both sit near the loss-network steady state, far from the
        # ramp-diluted value (which would be well under 80% of it).
        assert long.mean_active_flows > 0.8 * short.mean_active_flows
