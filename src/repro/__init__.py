"""Reproduction of Xuan & Jia, "Distributed Admission Control for
Anycast Flows with QoS Requirements" (ICDCS 2001).

An anycast flow may be delivered to any one member of a group of
designated recipients.  This library implements the paper's
Distributed Admission Control (DAC) procedure — randomized,
weight-driven destination selection, RSVP-style resource reservation
and counter-based retrial control — together with every substrate the
evaluation needs: an event-scheduled discrete-event simulator, a
capacitated network model with the 19-node MCI backbone, baseline
systems (SP and the idealized GDI), and the reduced-load / fixed-point
mathematical analysis of the appendix.

Quickstart
----------
>>> import repro
>>> result = repro.quick_run("WD/D+H", retrials=2, arrival_rate=20.0, seed=1)
>>> 0.0 < result.admission_probability <= 1.0
True

Subpackages
-----------
``repro.core``
    The DAC procedure and its destination-selection algorithms.
``repro.network``
    Links, topologies and fixed-path routing.
``repro.flows``
    Anycast groups, flow requests, QoS and traffic models.
``repro.sim``
    Discrete-event simulation substrate and the experiment model.
``repro.signaling``
    RSVP-lite PATH/RESV signalling for overhead studies.
``repro.analysis``
    Erlang/UAA blocking and the reduced-load fixed-point analysis.
``repro.baselines``
    SP and GDI comparison systems.
``repro.experiments``
    Regeneration of every table and figure in the paper.
"""

from repro.core.system import SystemSpec, build_system
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.topologies import (
    MCI_GROUP_MEMBERS,
    MCI_SOURCES,
    mci_backbone,
)
from repro.sim.metrics import SimulationResult
from repro.sim.simulation import AnycastSimulation, run_simulation

__version__ = "1.0.0"

__all__ = [
    "AnycastGroup",
    "AnycastSimulation",
    "MCI_GROUP_MEMBERS",
    "MCI_SOURCES",
    "SimulationResult",
    "SystemSpec",
    "WorkloadSpec",
    "build_system",
    "mci_backbone",
    "quick_run",
    "run_simulation",
]


def quick_run(
    algorithm: str = "WD/D+H",
    retrials: int = 2,
    arrival_rate: float = 20.0,
    warmup_s: float = 500.0,
    measure_s: float = 2000.0,
    seed: int = 0,
) -> SimulationResult:
    """Run the paper's MCI-backbone experiment with sensible defaults.

    Parameters
    ----------
    algorithm:
        ``"ED"``, ``"WD/D"``, ``"WD/D+H"``, ``"WD/D+B"``, ``"SP"`` or
        ``"GDI"``.
    retrials:
        The retrial limit ``R``.
    arrival_rate:
        Aggregate Poisson request rate (requests/second).
    warmup_s, measure_s:
        Warm-up and measurement windows in simulated seconds.
    seed:
        Root random seed.
    """
    workload = WorkloadSpec(
        arrival_rate=arrival_rate,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
    )
    return run_simulation(
        network_factory=mci_backbone,
        system_spec=SystemSpec(algorithm, retrials=retrials),
        workload=workload,
        warmup_s=warmup_s,
        measure_s=measure_s,
        seed=seed,
    )
