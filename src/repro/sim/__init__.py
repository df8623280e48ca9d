"""Discrete-event simulation substrate.

The paper evaluated its Distributed Admission Control procedure with
Mesquite CSIM, a closed-source simulation toolkit written in C.  This
subpackage is a from-scratch, pure-Python replacement.  Its
equivalent of CSIM is the event-scheduled engine: models schedule
callbacks on one clock rather than writing processes.

* :mod:`repro.sim.engine` -- the simulation clock, its heap of pending
  events and the single event loop.
* :mod:`repro.sim.random_streams` -- reproducible named random streams.
* :mod:`repro.sim.stats` -- output statistics (Welford accumulators,
  time-weighted averages, batch means, confidence intervals).
* :mod:`repro.sim.simulation` -- the anycast admission-control
  simulation model built on top of the engine.
* :mod:`repro.sim.metrics` -- metric collection for simulation runs.
"""

from typing import Any

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.random_streams import RandomStream, StreamFactory
from repro.sim.stats import (
    BatchMeans,
    RunningStats,
    TimeWeightedStats,
    confidence_interval,
)

# FaultConfig and the simulation classes live in repro.sim.simulation;
# importing them here would recreate the sim <-> core import cycle, so
# they are re-exported lazily.
def __getattr__(name: str) -> Any:
    if name in ("AnycastSimulation", "FaultConfig", "run_simulation"):
        from repro.sim import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")


__all__ = [
    "BatchMeans",
    "Event",
    "RandomStream",
    "RunningStats",
    "SimulationError",
    "Simulator",
    "StreamFactory",
    "TimeWeightedStats",
    "confidence_interval",
]
