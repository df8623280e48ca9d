"""Integration tests for simulation under link faults.

Exercises the paper's Section 3 extension: the fault-free assumption
is dropped, and the DAC procedure absorbs failures through its
ordinary retrial mechanism.
"""

import math

import pytest

from repro.core.system import SystemSpec
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.topologies import MCI_GROUP_MEMBERS, MCI_SOURCES, mci_backbone
from repro.sim.simulation import AnycastSimulation, FaultConfig


def make_simulation(fault_config, seed=5, algorithm="WD/D+H", retrials=3):
    workload = WorkloadSpec(
        arrival_rate=30.0,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        mean_lifetime_s=30.0,
    )
    return AnycastSimulation(
        network_factory=mci_backbone,
        system_spec=SystemSpec(algorithm, retrials=retrials),
        workload=workload,
        warmup_s=100.0,
        measure_s=400.0,
        seed=seed,
        fault_config=fault_config,
    )


class TestFaultConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(mean_time_to_failure_s=0.0, mean_time_to_repair_s=1.0)
        with pytest.raises(ValueError):
            FaultConfig(mean_time_to_failure_s=1.0, mean_time_to_repair_s=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["failure", "repair"])
    def test_non_finite_means_rejected(self, field, value):
        # A NaN mean passes a sign check and only fails the first draw
        # that uses it, partway through the run.
        means = {"failure": 100.0, "repair": 10.0}
        means[field] = value
        with pytest.raises(ValueError, match="finite"):
            FaultConfig(means["failure"], means["repair"])

    def test_unknown_cable_rejected_at_construction(self):
        # MCI has no cable 0-3; the run used to fail at its first cut.
        with pytest.raises(ValueError, match="no cable"):
            make_simulation(FaultConfig(100.0, 10.0, cables=((0, 3),)))

    def test_gdi_rejected(self):
        with pytest.raises(ValueError):
            make_simulation(
                FaultConfig(100.0, 10.0), algorithm="GDI", retrials=1
            )


class TestSimulationUnderFaults:
    def test_system_survives_faults(self):
        simulation = make_simulation(
            FaultConfig(mean_time_to_failure_s=200.0, mean_time_to_repair_s=20.0)
        )
        result = simulation.run()
        assert result.requests > 0
        assert 0.0 < result.admission_probability <= 1.0
        assert simulation._fault_injector.failures_injected > 0

    def test_flows_dropped_are_counted_and_cleaned(self):
        simulation = make_simulation(
            FaultConfig(mean_time_to_failure_s=100.0, mean_time_to_repair_s=50.0)
        )
        simulation.run()
        assert simulation.flows_dropped_by_faults > 0
        # Drain every surviving flow and verify conservation.
        simulation.simulator.run()
        assert simulation._active == {}
        assert simulation.simulator.pending_count == 0
        assert simulation.metrics._active == 0
        leaked = simulation.network.total_reserved_bps()
        assert leaked == pytest.approx(0.0)

    def test_faults_reduce_admission_probability(self):
        healthy = make_simulation(None, seed=9).run()
        faulty = make_simulation(
            FaultConfig(mean_time_to_failure_s=100.0, mean_time_to_repair_s=100.0),
            seed=9,
        ).run()
        assert faulty.admission_probability < healthy.admission_probability

    def test_retrials_mitigate_faults(self):
        """More retrials recover some of the fault-induced losses."""
        config = FaultConfig(
            mean_time_to_failure_s=150.0, mean_time_to_repair_s=75.0
        )
        single = make_simulation(config, seed=13, retrials=1).run()
        many = make_simulation(config, seed=13, retrials=5).run()
        assert many.admission_probability >= single.admission_probability - 0.01

    def test_no_oversubscription_during_fault_churn(self):
        simulation = make_simulation(
            FaultConfig(mean_time_to_failure_s=50.0, mean_time_to_repair_s=25.0)
        )
        simulation.run()
        for link in simulation.network.links():
            assert link.reserved_bps <= link.capacity_bps + 1e-6
