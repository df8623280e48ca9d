"""Workload generation (paper Section 5.1).

The paper's traffic model: anycast flow establishment requests form a
Poisson process with rate lambda; lifetimes are exponential with mean
180 s; every flow needs 64 kbit/s; the source of each request is drawn
uniformly from a designated source set (hosts at odd-ID routers in the
MCI experiments).

:class:`TrafficModel` turns a :class:`WorkloadSpec` into a stream of
:class:`repro.flows.flow.FlowRequest` objects, either lazily (for the
event-driven simulation) or eagerly (for analysis and tests).  All
randomness is drawn from named streams of a
:class:`repro.sim.random_streams.StreamFactory`, so identical seeds
yield identical workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional

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
    bandwidth_classes:
        Optional mix of flow classes as ``(bandwidth_bps, probability)``
        pairs; each request draws its class independently.  ``None``
        reproduces the paper's single 64 kbit/s class.  Probabilities
        must sum to one.
    """

    arrival_rate: float
    sources: tuple
    group: AnycastGroup
    mean_lifetime_s: float = DEFAULT_MEAN_LIFETIME_S
    bandwidth_bps: float = DEFAULT_FLOW_BANDWIDTH_BPS
    delay_bound_s: Optional[float] = None
    source_weights: Optional[tuple] = None
    bandwidth_classes: Optional[tuple] = None

    def __post_init__(self):
        # Written so that NaN fails too.
        if not 0 < self.arrival_rate < math.inf:
            raise ValueError(
                f"arrival rate must be positive and finite, got {self.arrival_rate}"
            )
        if not self.sources:
            raise ValueError("workload needs at least one source")
        if not self.mean_lifetime_s > 0:
            raise ValueError(
                f"mean lifetime must be positive, got {self.mean_lifetime_s}"
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
        if self.bandwidth_classes is not None:
            classes = tuple(
                (float(bw), float(p)) for bw, p in self.bandwidth_classes
            )
            if not classes:
                raise ValueError("bandwidth class mix must not be empty")
            if not all(0 < bw < math.inf for bw, _ in classes):
                raise ValueError("class bandwidths must be positive and finite")
            if any(p < 0 for _, p in classes) or abs(
                sum(p for _, p in classes) - 1.0
            ) > 1e-9:
                raise ValueError("class probabilities must sum to one")
            object.__setattr__(self, "bandwidth_classes", classes)

    @property
    def per_source_rate(self) -> float:
        """Arrival rate seen by each individual source (lambda / |S|)."""
        return self.arrival_rate / len(self.sources)

    @property
    def offered_load_erlangs(self) -> float:
        """Total offered traffic intensity ``rho = lambda / mu``."""
        return self.arrival_rate * self.mean_lifetime_s

    def qos(self, bandwidth_bps: Optional[float] = None) -> QoSRequirement:
        """The QoS requirement of a flow of this workload.

        ``bandwidth_bps`` overrides the default class (used when a
        class mix is configured).
        """
        return QoSRequirement(
            bandwidth_bps=bandwidth_bps or self.bandwidth_bps,
            delay_bound_s=self.delay_bound_s,
        )

    @property
    def mean_bandwidth_bps(self) -> float:
        """Expected per-flow bandwidth over the class mix."""
        if self.bandwidth_classes is None:
            return self.bandwidth_bps
        return sum(bw * p for bw, p in self.bandwidth_classes)


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
        self._class = streams.stream("traffic.class")
        self._next_flow_id = 0
        self._clock = 0.0
        # Without a class mix every request carries the same (frozen) QoS.
        self._qos = spec.qos() if spec.bandwidth_classes is None else None

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
        qos = self._qos
        if qos is None:
            classes = self.spec.bandwidth_classes
            qos = self.spec.qos(
                self._class.weighted_choice(
                    [bw for bw, _ in classes], [p for _, p in classes]
                )
            )
        request = FlowRequest(
            flow_id=self._next_flow_id,
            source=source,
            group=self.spec.group,
            qos=qos,
            arrival_time=self._clock,
            lifetime_s=lifetime,
        )
        self._next_flow_id += 1
        return request

    def requests_until(self, horizon_s: float) -> Iterator[FlowRequest]:
        """Yield requests with arrival times up to ``horizon_s``.

        The generator stops *before* yielding the first request beyond
        the horizon; that arrival is lost (the model is memoryless so
        this does not bias the process).
        """
        while True:
            request = self.next_request()
            if request.arrival_time > horizon_s:
                return
            yield request

    def take(self, count: int) -> list[FlowRequest]:
        """Generate exactly ``count`` requests (eager helper for tests)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.next_request() for _ in range(count)]
