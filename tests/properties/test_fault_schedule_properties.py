"""Property test: random fail/repair schedules on the atomic plane.

Draws a small grid or Waxman topology, an anycast group, sources and a
fault schedule (which cables may fail, how often and for how long, and
the seed of the fail/repair times), then runs the schedule with the
sanitizer armed.  A fault lives in the link-state capacity column, so
three things must hold whatever the schedule:

* every link's ledger agrees with its reserved column, at every fail
  and repair and after the run;
* once the horizon is reached and the calendar drained, no bandwidth
  is reserved anywhere;
* after every repair, each link of an up cable reads the exact
  capacity float it had before the first failure (and each link of a
  down cable reads the down value).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import invariants
from repro.core.system import SystemSpec
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.faults import DOWN_CAPACITY_BPS
from repro.network.topologies import grid, waxman_random
from repro.sim.simulation import AnycastSimulation, FaultConfig

#: Capacities whose floats are not integers, so a repair that
#: recomputed its value instead of restoring it would show.
CAPACITIES = (3 * 64_000.0, 1e6 / 3, 2e6 / 7)


@st.composite
def scenarios(draw):
    """A topology factory plus the simulation arguments to run on it."""
    capacity = draw(st.sampled_from(CAPACITIES))
    if draw(st.booleans()):
        rows = draw(st.integers(min_value=2, max_value=3))
        cols = draw(st.integers(min_value=2, max_value=3))

        def factory():
            return grid(rows, cols, capacity_bps=capacity)

    else:
        n = draw(st.integers(min_value=3, max_value=7))
        topology_seed = draw(st.integers(min_value=0, max_value=1000))

        def factory():
            return waxman_random(n, seed=topology_seed, capacity_bps=capacity)

    network = factory()
    nodes = sorted(network.nodes())
    members = draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True)
    )
    sources = draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True)
    )
    cables = sorted(
        {tuple(sorted((link.source, link.target))) for link in network.links()}
    )
    faulty = draw(st.lists(st.sampled_from(cables), min_size=1, unique=True))
    fault_config = FaultConfig(
        mean_time_to_failure_s=draw(st.floats(min_value=2.0, max_value=30.0)),
        mean_time_to_repair_s=draw(st.floats(min_value=0.5, max_value=10.0)),
        cables=tuple(faulty),
    )
    spec = SystemSpec(
        draw(st.sampled_from(["ED", "WD/D", "WD/D+H", "WD/D+B", "WD/D+H+B"])),
        retrials=draw(st.integers(min_value=1, max_value=3)),
    )
    workload = WorkloadSpec(
        arrival_rate=draw(st.floats(min_value=2.0, max_value=20.0)),
        sources=tuple(sources),
        group=AnycastGroup("A", tuple(members)),
        mean_lifetime_s=5.0,
    )
    return factory, spec, workload, fault_config, draw(st.integers(0, 10_000))


def check_columns(simulation, nominal):
    """Ledgers agree with their columns; capacities read up or down."""
    network = simulation.network
    invariants.check_network(network)
    faults = simulation.fault_state
    capacity = network.link_state.capacity
    for link in network.links():
        if faults.is_down(link.source, link.target):
            assert capacity[link.index] == DOWN_CAPACITY_BPS
        else:
            assert capacity[link.index] == nominal[link.index]


@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_fault_schedule_conserves_and_restores(scenario):
    factory, spec, workload, fault_config, seed = scenario
    previous = invariants.is_enabled()
    invariants.set_enabled(True)
    try:
        simulation = AnycastSimulation(
            network_factory=factory,
            system_spec=spec,
            workload=workload,
            warmup_s=0.0,
            measure_s=40.0,
            seed=seed,
            fault_config=fault_config,
        )
        network = simulation.network
        nominal = list(network.link_state.capacity)
        faults = simulation.fault_state
        fail, repair = faults.fail, faults.repair

        def checked_fail(u, v, now=0.0):
            killed = fail(u, v, now=now)
            check_columns(simulation, nominal)
            return killed

        def checked_repair(u, v, now=0.0):
            repair(u, v, now=now)
            check_columns(simulation, nominal)

        faults.fail = checked_fail
        faults.repair = checked_repair
        simulation.run()
        simulation.simulator.run()
        check_columns(simulation, nominal)
        assert network.total_reserved_bps() == 0.0
        for u, v in faults.down_cables():
            faults.repair(u, v)
        assert list(network.link_state.capacity) == nominal
    finally:
        invariants.set_enabled(previous)
