"""Metric collection for admission-control simulation runs.

Collects exactly what the paper's evaluation reports:

* **Admission Probability (AP)** -- fraction of requests admitted in
  the (post-warm-up) measurement window, with a batch-means confidence
  interval.
* **Average number of retrials** -- mean destinations tried beyond the
  first per request (Figure 7's overhead metric).

plus supporting detail: per-destination admission counts, attempt
histograms, concurrent-flow occupancy and link utilization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.flows.flow import FlowRequest
from repro.sim.stats import BatchMeans, RunningStats, TimeWeightedStats

NodeId = Hashable


class MetricsCollector:
    """Accumulates per-request observations during the measurement window.

    Parameters
    ----------
    clock:
        Zero-argument callable returning current simulation time.
    batch_size:
        Batch size for the batch-means CI on the admission indicator.
    """

    def __init__(
        self, clock: Callable[[], float], batch_size: int = 200
    ) -> None:
        self._clock = clock
        self.attempts = RunningStats()
        self.retrials = RunningStats()
        self.admit_batches = BatchMeans(batch_size)
        self.destination_counts: Counter[NodeId] = Counter()
        self.attempt_histogram: Counter[int] = Counter()
        self.source_requests: Counter[NodeId] = Counter()
        self.source_admitted: Counter[NodeId] = Counter()
        self.active_flows = TimeWeightedStats(clock)
        self.active_flows.record(0.0)
        self._active = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_decision(self, request: FlowRequest) -> None:
        """Record an admission decision made inside the window."""
        self.attempts.record(request.attempts)
        self.retrials.record(request.attempts - 1)
        self.attempt_histogram[request.attempts] += 1
        self.admit_batches.record(1.0 if request.admitted else 0.0)
        self.source_requests[request.source] += 1
        if request.admitted:
            self.destination_counts[request.destination] += 1
            self.source_admitted[request.source] += 1

    def record_flow_start(self) -> None:
        """A flow began holding resources (counted regardless of window)."""
        self._active += 1
        self.active_flows.record(self._active)

    def record_flow_end(self) -> None:
        """A flow released its resources."""
        self._active -= 1
        self.active_flows.record(self._active)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        """Decisions recorded in the measurement window."""
        return sum(self.source_requests.values())

    @property
    def admitted(self) -> int:
        """Admissions recorded in the measurement window."""
        return sum(self.source_admitted.values())

    @property
    def admission_probability(self) -> float:
        """AP over the measurement window (0 when no requests)."""
        requests = self.requests
        if requests == 0:
            return 0.0
        return self.admitted / requests

    @property
    def mean_attempts(self) -> float:
        """Mean destinations tried per request."""
        return self.attempts.mean

    @property
    def mean_retrials(self) -> float:
        """Mean retrials per request (attempts beyond the first)."""
        return self.retrials.mean

    def admission_probability_ci(self, level: float = 0.95) -> tuple[float, float]:
        """Batch-means confidence interval on AP."""
        return self.admit_batches.confidence_interval(level)

    def per_source_ap(self) -> dict[NodeId, float]:
        """AP seen by each source over the measurement window."""
        return {
            source: self.source_admitted.get(source, 0) / count
            for source, count in sorted(
                self.source_requests.items(), key=lambda kv: repr(kv[0])
            )
            if count > 0
        }

    def fairness_index(self) -> float:
        """Jain's fairness index over the per-source APs.

        1.0 means every source enjoys the same admission probability;
        1/n means a single source gets everything.  Measures whether a
        selection algorithm starves poorly-placed sources — a question
        the paper's aggregate AP hides.
        """
        values = list(self.per_source_ap().values())
        if not values:
            return 1.0
        total = sum(values)
        squares = sum(v * v for v in values)
        if squares == 0:
            return 1.0
        return (total * total) / (len(values) * squares)


@dataclass(frozen=True)
class SimulationResult:
    """Summary of one simulation run, as the experiment harness reports it.

    Attributes mirror the paper's metrics.  ``mean_active_flows`` is
    the time-weighted average concurrent-flow count over the
    measurement window only (the warm-up ramp is dropped at
    ``warmup_s``).  ``link_utilization`` maps each directed link to
    its *instantaneous* utilization at the measurement horizon — a
    point-in-time snapshot, not a time-weighted average.
    """

    system_label: str
    arrival_rate: float
    duration_s: float
    warmup_s: float
    requests: int
    admitted: int
    admission_probability: float
    ap_ci_low: float
    ap_ci_high: float
    mean_attempts: float
    mean_retrials: float
    mean_active_flows: float
    destination_share: dict[NodeId, float] = field(default_factory=dict)
    attempt_histogram: dict[int, int] = field(default_factory=dict)
    link_utilization: dict[tuple[NodeId, NodeId], float] = field(
        default_factory=dict
    )
    per_source_ap: dict[NodeId, float] = field(default_factory=dict)
    fairness_index: float = 1.0

    @property
    def rejected(self) -> int:
        """Requests refused in the measurement window."""
        return self.requests - self.admitted

    def __str__(self) -> str:
        return (
            f"{self.system_label}: lambda={self.arrival_rate:g}/s  "
            f"AP={self.admission_probability:.4f} "
            f"[{self.ap_ci_low:.4f}, {self.ap_ci_high:.4f}]  "
            f"retrials={self.mean_retrials:.3f}  n={self.requests}"
        )
