"""Golden determinism regression test.

The library promises bit-for-bit reproducibility: identical configs
and seeds must produce identical results on any machine, forever.
These pinned values were computed once; any change to them means the
deterministic contract broke (a new draw inserted into a shared
stream, a changed iteration order, a different tie-break...) and must
be treated as a breaking change, not a test update.
"""

import pytest

import repro
from repro.core.system import SystemSpec
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.topologies import MCI_GROUP_MEMBERS, MCI_SOURCES, mci_backbone
from repro.sim.simulation import AnycastSimulation, FaultConfig

#: (requests, admitted, mean_attempts) for seed 20010405, lambda=25,
#: warmup 50 s, measure 200 s on the default MCI setup with R=2.
GOLDEN = {
    "ED": (5165, 4593, 1.2391093901258472),
    "WD/D+H": (5165, 5089, 1.0315585672797707),
    "WD/D+B": (5165, 5156, 1.0029041626331057),
    "SP": (5165, 3774, 1.0),
    "GDI": (5165, 5165, 1.0),
}

#: The same runs for the bandwidth selectors on a stale link-state
#: snapshot and under random cable faults, which ``quick_run`` cannot
#: configure: ``(algorithm, bandwidth_refresh_s, faults)`` ->
#: (requests, admitted, mean_attempts).
GOLDEN_VARIANTS = {
    ("WD/D+B", 5.0, False): (5165, 5145, 1.00619554695063),
    ("WD/D+H+B", 0.0, False): (5165, 5157, 1.003484995159728),
    ("WD/D+H+B", 5.0, False): (5165, 5150, 1.0054211035818033),
    ("WD/D+B", 5.0, True): (5165, 5112, 1.0272991287512088),
    ("WD/D+H+B", 5.0, True): (5165, 5123, 1.022652468538235),
}


def variant_id(variant):
    algorithm, refresh_s, faults = variant
    return f"{algorithm}-refresh{refresh_s:g}" + ("-faults" if faults else "")


def run_variant(algorithm, refresh_s, faults):
    """One golden-configuration run through :class:`AnycastSimulation`."""
    workload = WorkloadSpec(
        arrival_rate=25.0,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
    )
    return AnycastSimulation(
        network_factory=mci_backbone,
        system_spec=SystemSpec(
            algorithm, retrials=2, bandwidth_refresh_s=refresh_s
        ),
        workload=workload,
        warmup_s=50.0,
        measure_s=200.0,
        seed=20010405,
        fault_config=FaultConfig(200.0, 20.0) if faults else None,
    ).run()


# The engine has one pending-event set, the heap; the parameter only
# keeps the test ids (``[ED-heap]``...) stable.
@pytest.mark.parametrize("queue", ["heap"])
@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_golden_results_are_stable(algorithm, queue):
    result = repro.quick_run(
        algorithm,
        retrials=2,
        arrival_rate=25.0,
        warmup_s=50.0,
        measure_s=200.0,
        seed=20010405,
    )
    requests, admitted, mean_attempts = GOLDEN[algorithm]
    assert result.requests == requests
    assert result.admitted == admitted
    assert result.mean_attempts == pytest.approx(mean_attempts, abs=1e-12)


@pytest.mark.parametrize("variant", sorted(GOLDEN_VARIANTS), ids=variant_id)
def test_golden_variants_are_stable(variant):
    result = run_variant(*variant)
    requests, admitted, mean_attempts = GOLDEN_VARIANTS[variant]
    assert result.requests == requests
    assert result.admitted == admitted
    assert result.mean_attempts == pytest.approx(mean_attempts, abs=1e-12)


def test_workload_identical_across_systems():
    """Common random numbers: every system sees the same arrivals."""
    request_counts = {
        algorithm: GOLDEN[algorithm][0] for algorithm in GOLDEN
    }
    assert len(set(request_counts.values())) == 1
