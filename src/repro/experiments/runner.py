"""Experiment execution: replicated points and parameter sweeps.

:func:`run_point` runs one ``(system, arrival rate)`` point with the
configured number of independent replications and aggregates the
admission probability and retrial overhead with confidence intervals.
:func:`sweep` maps that over a lambda grid for several systems,
producing the series behind each figure.  Both build their
``(system, rate, replication)`` tasks here and run them through the
one :func:`repro.experiments.parallel.run_tasks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.system import SystemSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ReplicationTask, run_tasks
from repro.sim.metrics import SimulationResult
from repro.sim.stats import confidence_interval


@dataclass(frozen=True)
class PointResult:
    """Aggregated result of one system at one arrival rate.

    Means are across replications; the confidence intervals are
    Student-t over replication means (or the single run's batch-means
    interval when ``replications == 1``).
    """

    system_label: str
    arrival_rate: float
    replications: int
    admission_probability: float
    ap_ci_low: float
    ap_ci_high: float
    mean_retrials: float
    mean_attempts: float
    requests: int
    runs: tuple = field(default=(), repr=False)

    def __str__(self) -> str:
        return (
            f"{self.system_label} @ lambda={self.arrival_rate:g}: "
            f"AP={self.admission_probability:.4f} "
            f"[{self.ap_ci_low:.4f}, {self.ap_ci_high:.4f}] "
            f"retrials={self.mean_retrials:.3f}"
        )


@dataclass(frozen=True)
class SweepResult:
    """One system's series over the arrival-rate grid."""

    system_label: str
    points: tuple

    def arrival_rates(self) -> list[float]:
        """The lambda grid of the series."""
        return [point.arrival_rate for point in self.points]

    def admission_probabilities(self) -> list[float]:
        """AP values in grid order."""
        return [point.admission_probability for point in self.points]

    def mean_retrials(self) -> list[float]:
        """Retrial overhead values in grid order."""
        return [point.mean_retrials for point in self.points]

    def point_at(self, arrival_rate: float) -> PointResult:
        """The point for a given lambda."""
        for point in self.points:
            if point.arrival_rate == arrival_rate:
                return point
        raise KeyError(f"no point at arrival rate {arrival_rate}")


def aggregate_point(
    spec: SystemSpec,
    arrival_rate: float,
    config: ExperimentConfig,
    runs: Sequence[SimulationResult],
) -> PointResult:
    """Fold per-replication results into one :class:`PointResult`.

    ``runs`` must be in replication order; every worker count
    aggregates here, so all produce bit-identical aggregates.
    """
    runs = list(runs)
    aps = [run.admission_probability for run in runs]
    retrials = [run.mean_retrials for run in runs]
    attempts = [run.mean_attempts for run in runs]
    mean_ap = sum(aps) / len(aps)
    if len(runs) > 1:
        ci_low, ci_high = confidence_interval(aps)
    else:
        ci_low, ci_high = runs[0].ap_ci_low, runs[0].ap_ci_high
    return PointResult(
        system_label=spec.label,
        arrival_rate=arrival_rate,
        replications=config.replications,
        admission_probability=mean_ap,
        ap_ci_low=ci_low,
        ap_ci_high=ci_high,
        mean_retrials=sum(retrials) / len(retrials),
        mean_attempts=sum(attempts) / len(attempts),
        requests=sum(run.requests for run in runs),
        runs=tuple(runs),
    )


def _run_grid(
    specs: Sequence[SystemSpec],
    arrival_rates: Sequence[float],
    config: ExperimentConfig,
) -> list[tuple[PointResult, ...]]:
    """Every spec's points over ``arrival_rates``, in input order.

    Every ``(system, rate, replication)`` simulation of the grid is one
    task of a single :func:`~repro.experiments.parallel.run_tasks`
    pass on ``config.workers`` processes, so the pool stays busy even
    when single points have few replications; the runs are aggregated
    in task order, bit-identical for any worker count.
    """
    replications = config.replications
    tasks = [
        ReplicationTask(spec, rate, config, replication)
        for spec in specs
        for rate in arrival_rates
        for replication in range(replications)
    ]
    runs = run_tasks(tasks, config.workers)
    grid = []
    index = 0
    for spec in specs:
        points = []
        for rate in arrival_rates:
            chunk = runs[index : index + replications]
            index += replications
            points.append(aggregate_point(spec, rate, config, chunk))
        grid.append(tuple(points))
    return grid


def run_point(
    spec: SystemSpec, arrival_rate: float, config: ExperimentConfig
) -> PointResult:
    """Run ``spec`` at ``arrival_rate`` with replications.

    With ``config.workers > 1`` the replications fan out over a process
    pool; results are bit-identical for any worker count — see
    :mod:`repro.experiments.parallel`.
    """
    return _run_grid((spec,), (arrival_rate,), config)[0][0]


def sweep(
    specs: Sequence[SystemSpec],
    config: ExperimentConfig,
    arrival_rates: Optional[Sequence[float]] = None,
) -> list[SweepResult]:
    """Run every system over the lambda grid.

    Returns one :class:`SweepResult` per spec, in input order.  With
    ``config.workers > 1`` every independent ``(system, rate,
    replication)`` simulation of the grid is executed on a process
    pool; the series are bit-identical to a serial sweep.
    """
    rates = tuple(arrival_rates) if arrival_rates is not None else config.arrival_rates
    grid = _run_grid(specs, rates, config)
    return [
        SweepResult(system_label=spec.label, points=points)
        for spec, points in zip(specs, grid)
    ]
