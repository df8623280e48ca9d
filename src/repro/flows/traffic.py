"""Workload generation (paper Section 5.1).

The paper's traffic model: anycast flow establishment requests form a
Poisson process with rate lambda; lifetimes are exponential with mean
180 s; every flow needs 64 kbit/s; the source of each request is drawn
uniformly from a designated source set (hosts at odd-ID routers in the
MCI experiments).

:class:`TrafficModel` turns a :class:`WorkloadSpec` into a stream of
:class:`repro.flows.flow.FlowRequest` objects, one per
:meth:`TrafficModel.next_request` call as the event-driven simulation
asks for the next arrival.  All randomness is drawn from named streams
of a :class:`repro.sim.random_streams.StreamFactory`, so identical seeds
yield identical workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.sim.random_streams import StreamFactory

NodeId = Hashable

#: Paper defaults (Section 5.1).
DEFAULT_MEAN_LIFETIME_S = 180.0
DEFAULT_FLOW_BANDWIDTH_BPS = 64_000.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the Poisson anycast workload.

    Attributes
    ----------
    arrival_rate:
        Aggregate request rate lambda (requests per second) across all
        sources; each arrival picks its source uniformly at random,
        matching the paper's model.
    sources:
        Candidate source nodes.
    group:
        The anycast destination group.
    mean_lifetime_s:
        Mean of the exponential flow lifetime (paper: 180 s).
    bandwidth_bps:
        Per-flow bandwidth requirement (paper: 64 kbit/s).
    delay_bound_s:
        Optional delay bound forwarded into each request's QoS (the
        Section 6 extension); ``None`` reproduces the paper.
    source_weights:
        Optional relative request rates per source (aligned with
        ``sources``).  ``None`` reproduces the paper's uniform choice;
        weights let hot-spot workloads be modelled.
    """

    arrival_rate: float
    sources: tuple
    group: AnycastGroup
    mean_lifetime_s: float = DEFAULT_MEAN_LIFETIME_S
    bandwidth_bps: float = DEFAULT_FLOW_BANDWIDTH_BPS
    delay_bound_s: Optional[float] = None
    source_weights: Optional[tuple] = None

    def __post_init__(self):
        # Written so that NaN fails too.
        if not 0 < self.arrival_rate < math.inf:
            raise ValueError(
                f"arrival rate must be positive and finite, got {self.arrival_rate}"
            )
        if not self.sources:
            raise ValueError("workload needs at least one source")
        if not 0 < self.mean_lifetime_s < math.inf:
            raise ValueError(
                "mean lifetime must be positive and finite, "
                f"got {self.mean_lifetime_s}"
            )
        if not 0 < self.bandwidth_bps < math.inf:
            raise ValueError(
                f"bandwidth must be positive and finite, got {self.bandwidth_bps}"
            )
        object.__setattr__(self, "sources", tuple(self.sources))
        if self.source_weights is not None:
            weights = tuple(float(w) for w in self.source_weights)
            if len(weights) != len(self.sources):
                raise ValueError(
                    f"{len(weights)} source weights for "
                    f"{len(self.sources)} sources"
                )
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ValueError(
                    "source weights must be non-negative with positive sum"
                )
            object.__setattr__(self, "source_weights", weights)

    @property
    def per_source_rate(self) -> float:
        """Arrival rate seen by each individual source (lambda / |S|)."""
        return self.arrival_rate / len(self.sources)

    @property
    def offered_load_erlangs(self) -> float:
        """Total offered traffic intensity ``rho = lambda / mu``."""
        return self.arrival_rate * self.mean_lifetime_s

    def qos(self) -> QoSRequirement:
        """The QoS requirement of a flow of this workload."""
        return QoSRequirement(
            bandwidth_bps=self.bandwidth_bps,
            delay_bound_s=self.delay_bound_s,
        )


class TrafficModel:
    """Generates the request stream for a :class:`WorkloadSpec`.

    Parameters
    ----------
    spec:
        The workload parameters.
    streams:
        Stream factory; the model uses the named streams
        ``"traffic.interarrival"``, ``"traffic.source"`` and
        ``"traffic.lifetime"`` so that, e.g., changing the admission
        algorithm never perturbs the arrival sequence (common random
        numbers across compared systems).
    """

    def __init__(self, spec: WorkloadSpec, streams: StreamFactory):
        self.spec = spec
        self._interarrival = streams.stream("traffic.interarrival")
        self._source = streams.stream("traffic.source")
        self._lifetime = streams.stream("traffic.lifetime")
        self._next_flow_id = 0
        self._clock = 0.0
        # Every request carries the same (frozen) QoS.
        self._qos = spec.qos()

    @property
    def generated_count(self) -> int:
        """Number of requests generated so far."""
        return self._next_flow_id

    def next_request(self) -> FlowRequest:
        """Generate the next request; advances the internal arrival clock."""
        self._clock += self._interarrival.exponential(1.0 / self.spec.arrival_rate)
        if self.spec.source_weights is not None:
            source = self._source.weighted_choice(
                self.spec.sources, self.spec.source_weights
            )
        else:
            source = self._source.choice(self.spec.sources)
        lifetime = self._lifetime.exponential(self.spec.mean_lifetime_s)
        request = FlowRequest(
            flow_id=self._next_flow_id,
            source=source,
            group=self.spec.group,
            qos=self._qos,
            arrival_time=self._clock,
            lifetime_s=lifetime,
        )
        self._next_flow_id += 1
        return request
