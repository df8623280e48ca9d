"""Experiment execution: replicated points and parameter sweeps.

:func:`run_point` runs one ``(system, arrival rate)`` point with the
configured number of independent replications and aggregates the
admission probability and retrial overhead with confidence intervals.
:func:`sweep` maps that over a lambda grid for several systems,
producing the series behind each figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.system import SystemSpec
from repro.experiments.config import ExperimentConfig
from repro.sim.metrics import SimulationResult
from repro.sim.simulation import run_simulation
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


def run_replication(
    spec: SystemSpec,
    arrival_rate: float,
    config: ExperimentConfig,
    replication: int,
) -> SimulationResult:
    """Run the ``replication``-th independent simulation of one point.

    Replication ``i`` uses seed ``config.seed + i`` for every stream,
    so different systems at the same replication index share identical
    arrival/lifetime/source sequences (common random numbers — the
    same variance-reduction the paper gets by comparing systems inside
    one simulator).  Each replication is fully self-contained (its own
    network, system and streams), which is what lets the parallel
    runner execute them in worker processes with identical results.
    """
    return run_simulation(
        network_factory=config.network_factory(),
        system_spec=spec,
        workload=config.workload(arrival_rate),
        warmup_s=config.warmup_s,
        measure_s=config.measure_s,
        seed=config.seed + replication,
    )


def aggregate_point(
    spec: SystemSpec,
    arrival_rate: float,
    config: ExperimentConfig,
    runs: Sequence[SimulationResult],
) -> PointResult:
    """Fold per-replication results into one :class:`PointResult`.

    ``runs`` must be in replication order; the arithmetic is shared by
    the serial and parallel runners so both produce bit-identical
    aggregates.
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


def run_point(
    spec: SystemSpec, arrival_rate: float, config: ExperimentConfig
) -> PointResult:
    """Run ``spec`` at ``arrival_rate`` with replications.

    With ``config.workers > 1`` the replications fan out over a process
    pool; results are bit-identical for any worker count — see
    :mod:`repro.experiments.parallel`.
    """
    if config.workers > 1 and config.replications > 1:
        from repro.experiments.parallel import ParallelRunner

        return ParallelRunner(workers=config.workers).run_point(
            spec, arrival_rate, config
        )
    runs = [
        run_replication(spec, arrival_rate, config, replication)
        for replication in range(config.replications)
    ]
    return aggregate_point(spec, arrival_rate, config, runs)


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
    if config.workers > 1:
        from repro.experiments.parallel import ParallelRunner

        return ParallelRunner(workers=config.workers).sweep(specs, config, rates)
    # config.workers == 1 here, so run_point stays in-process.
    results = []
    for spec in specs:
        points = tuple(run_point(spec, rate, config) for rate in rates)
        results.append(SweepResult(system_label=spec.label, points=points))
    return results
