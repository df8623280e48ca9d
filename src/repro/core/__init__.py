"""The paper's primary contribution: Distributed Admission Control.

Implements Section 4 of the paper:

* :mod:`repro.core.history` -- per-destination local admission history
  (the ``H`` list of eq. 5-7).
* :mod:`repro.core.selection` -- randomized destination selection:
  Even Distribution (ED), Weighted Distribution with Distance +
  History (WD/D+H) and with Distance + Bandwidth (WD/D+B), plus the
  distance-only ablation and the Shortest-Path baseline selector.
* :mod:`repro.core.reservation` -- all-or-nothing route bandwidth
  reservation (the RSVP check-and-reserve of Section 4.4).
* :mod:`repro.core.retrial` -- counter-based retrial control
  (Section 4.5).
* :mod:`repro.core.admission` -- the AC-router running the DAC loop of
  Figure 1.
* :mod:`repro.core.system` -- factory assembling complete ``<A, R>``
  systems from their paper names.
"""

from repro.core.admission import ACRouter
from repro.core.history import AdmissionHistory
from repro.core.reservation import AtomicReservationEngine
from repro.core.retrial import CounterRetrialPolicy, RetrialPolicy
from repro.core.selection import (
    DestinationSelector,
    DistanceBandwidthWeighted,
    DistanceHistoryWeighted,
    DistanceWeighted,
    EvenDistribution,
    HybridWeighted,
    SelectionContext,
    ShortestPathSelector,
    distance_weights,
)
from repro.core.system import (
    ALGORITHM_NAMES,
    AdmissionSystem,
    SystemSpec,
    build_system,
)

__all__ = [
    "ACRouter",
    "ALGORITHM_NAMES",
    "AdmissionHistory",
    "AdmissionSystem",
    "AtomicReservationEngine",
    "CounterRetrialPolicy",
    "DestinationSelector",
    "DistanceBandwidthWeighted",
    "DistanceHistoryWeighted",
    "DistanceWeighted",
    "EvenDistribution",
    "HybridWeighted",
    "RetrialPolicy",
    "SelectionContext",
    "ShortestPathSelector",
    "SystemSpec",
    "build_system",
    "distance_weights",
]
