"""Each count lives in one place, and the places agree.

A run's lifetime decisions are counted by the controllers
(``requests_seen``), its reservation attempts and refusals by the
shared reservation engine (``attempts``/``failures``), and every
decision is written into its request's record,
:class:`repro.flows.flow.FlowRequest`.  These
tests check that, after an atomic MCI run drained to empty, the three
tell the same story, with and without link faults: a down link reads
no capacity, so a route refused on a failed cable counts as an
attempt, a failure and one link rejection, like a saturated route.
"""

import pytest

from repro.core.system import SystemSpec
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.topologies import MCI_GROUP_MEMBERS, MCI_SOURCES, mci_backbone
from repro.sim.simulation import AnycastSimulation, FaultConfig


def drained_run(fault_config):
    """Run ``<WD/D+H,2>`` on the MCI, log every decision, drain the calendar."""
    simulation = AnycastSimulation(
        network_factory=mci_backbone,
        system_spec=SystemSpec("WD/D+H", retrials=2),
        workload=WorkloadSpec(
            arrival_rate=50.0,
            sources=MCI_SOURCES,
            group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        ),
        warmup_s=10.0,
        measure_s=60.0,
        seed=5,
        fault_config=fault_config,
    )
    decisions = []
    admit = simulation.system.admit

    def admit_logged(request, now=None):
        result = admit(request, now=now)
        decisions.append(result)
        return result

    simulation.system.admit = admit_logged
    result = simulation.run()
    simulation.simulator.run()
    assert simulation.network.total_reserved_bps() == 0.0
    return simulation, result, decisions


@pytest.mark.parametrize(
    "fault_config",
    [None, FaultConfig(mean_time_to_failure_s=20.0, mean_time_to_repair_s=5.0)],
    ids=["fault-free", "faults"],
)
def test_counters_agree_after_drained_run(fault_config):
    simulation, result, decisions = drained_run(fault_config)
    routers = [simulation.system.controller_for(s) for s in MCI_SOURCES]
    engines = {id(router.reservation): router.reservation for router in routers}
    assert len(engines) == 1  # the routers share one engine
    (engine,) = engines.values()
    admitted = sum(decision.admitted for decision in decisions)

    assert engine.attempts == sum(decision.attempts for decision in decisions)
    assert engine.attempts - engine.failures == admitted
    # Each refused attempt is refused by exactly one link.
    assert sum(link.rejections for link in simulation.network.links()) == (
        engine.failures
    )
    assert sum(router.requests_seen for router in routers) == len(decisions)
    # The request past the horizon is generated but never offered.
    assert len(decisions) == simulation.traffic.generated_count - 1
    window = [
        decision
        for decision in decisions
        if decision.arrival_time >= simulation.warmup_s
    ]
    assert result.requests == len(window)
    assert result.admitted == sum(decision.admitted for decision in window)
    if fault_config is not None:
        assert simulation.fault_state.events
        assert simulation.flows_dropped_by_faults > 0

