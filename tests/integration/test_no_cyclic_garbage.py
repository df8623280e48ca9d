"""No simulation run leaves cyclic garbage behind.

Every decision, attempt, hop transfer and timer must be freed by
reference counting the moment it is done.  A reference cycle on the
hot path is only reclaimed by Python's cyclic collector, whose passes
grow with the live heap; on the signalled driver one cycle per
decision cost 15-17% of the run.  Each case runs with automatic
collection disabled and then asks the collector what it finds
unreachable: the answer must be nothing.
"""

import gc

import pytest

from repro.core.system import SystemSpec
from repro.experiments.chaos import ChaosConfig, ChaosSimulation
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.topologies import MCI_GROUP_MEMBERS, MCI_SOURCES, mci_backbone
from repro.sim.simulation import AnycastSimulation, FaultConfig

WARMUP_S = 10.0
MEASURE_S = 40.0


def workload(arrival_rate):
    # Short lifetimes, so departures, TEAR sweeps and leases all run.
    return WorkloadSpec(
        arrival_rate=arrival_rate,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        mean_lifetime_s=20.0,
    )


def chaos_simulation(algorithm, chaos):
    return ChaosSimulation(
        network_factory=mci_backbone,
        system_spec=SystemSpec(algorithm, retrials=2),
        workload=workload(35.0),
        chaos=chaos,
        warmup_s=WARMUP_S,
        measure_s=MEASURE_S,
        seed=1,
    )


def atomic_simulation(spec, fault_config=None):
    return AnycastSimulation(
        network_factory=mci_backbone,
        system_spec=spec,
        workload=workload(50.0),
        warmup_s=WARMUP_S,
        measure_s=MEASURE_S,
        seed=1,
        fault_config=fault_config,
    )


CASES = {
    # Lost, duplicated and late copies: timers are armed, cancelled by
    # stragglers, fire and retransmit; lost RESV/TEARs strand orphans.
    "signalled_wddb_impaired": lambda: chaos_simulation(
        "WD/D+B",
        ChaosConfig(loss_rate=0.1, duplicate_rate=0.1, extra_delay_s=0.08),
    ),
    "signalled_ed_perfect": lambda: chaos_simulation("ED", ChaosConfig()),
    "atomic_faults": lambda: atomic_simulation(
        SystemSpec("WD/D+H", retrials=3),
        FaultConfig(mean_time_to_failure_s=20.0, mean_time_to_repair_s=5.0),
    ),
    "atomic_gdi": lambda: atomic_simulation(SystemSpec("GDI")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_leaves_no_cyclic_garbage(case):
    gc.collect()
    gc.disable()
    try:
        simulation = CASES[case]()
        result = simulation.run()
        assert result.requests > 0
        # ``simulation`` is still referenced: whatever the collector
        # finds now was dropped by the run itself.
        assert gc.collect() == 0
    finally:
        gc.enable()
