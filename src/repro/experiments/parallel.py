"""Parallel experiment execution over a process pool.

Replications are embarrassingly parallel: replication ``i`` derives
every random stream from ``config.seed + i`` and runs against its own
fresh network, so nothing is shared between replications but the
(immutable) configuration.  :class:`ParallelRunner` fans the
``(system, arrival rate, replication)`` simulations of a point or a
whole sweep out over a :mod:`multiprocessing` pool and aggregates the
results in replication order — the exact order the serial runner uses
— so a parallel run reproduces the serial run **bit for bit**:

* seeds are derived per task from the root seed, never from worker
  identity or scheduling order;
* workers return complete :class:`~repro.sim.metrics.SimulationResult`
  objects; all aggregation arithmetic happens in the parent, over the
  same sequence the serial loop would produce.

The serial path stays the default (``workers=1``); the determinism
guarantee is asserted by ``tests/experiments/test_parallel.py`` and
the speedup by ``benchmarks/test_parallel_microbench.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Optional, Sequence

from repro.core.system import SystemSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    PointResult,
    SweepResult,
    aggregate_point,
    run_replication,
)
from repro.sim.metrics import SimulationResult


@dataclass(frozen=True)
class ReplicationTask:
    """One independent simulation: a point's ``replication``-th run.

    Picklable by construction — the worker rebuilds network, system
    and workload from the spec/config, exactly as the serial runner
    does, and returns only the plain-data summary.
    """

    spec: SystemSpec
    arrival_rate: float
    config: ExperimentConfig
    replication: int


def run_task(task: ReplicationTask) -> SimulationResult:
    """Execute one :class:`ReplicationTask` (the pool's map function)."""
    return run_replication(
        task.spec, task.arrival_rate, task.config, task.replication
    )


class ParallelRunner:
    """Fans independent replications out over worker processes.

    Parameters
    ----------
    workers:
        Process count; defaults to ``os.cpu_count()``.  ``1`` degrades
        to an in-process loop (no pool is created), so callers can pass
        the knob through unconditionally.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def run_tasks(self, tasks: Sequence[ReplicationTask]) -> list[SimulationResult]:
        """Run every task, returning results in task order.

        Task order (not completion order) is what makes the parent-side
        aggregation bit-identical to the serial runner.
        """
        tasks = list(tasks)
        if self.workers == 1 or len(tasks) <= 1:
            return [run_task(task) for task in tasks]
        processes = min(self.workers, len(tasks))
        with Pool(processes=processes) as pool:
            # imap dispatches one task at a time, the best balance for
            # long, unevenly-sized simulations, and yields in task order.
            return list(pool.imap(run_task, tasks))

    def run_point(
        self, spec: SystemSpec, arrival_rate: float, config: ExperimentConfig
    ) -> PointResult:
        """Parallel equivalent of :func:`repro.experiments.runner.run_point`."""
        tasks = [
            ReplicationTask(spec, arrival_rate, config, replication)
            for replication in range(config.replications)
        ]
        return aggregate_point(spec, arrival_rate, config, self.run_tasks(tasks))

    def sweep(
        self,
        specs: Sequence[SystemSpec],
        config: ExperimentConfig,
        arrival_rates: Optional[Sequence[float]] = None,
    ) -> list[SweepResult]:
        """Parallel equivalent of :func:`repro.experiments.runner.sweep`.

        Every ``(system, rate, replication)`` simulation of the whole
        grid is submitted to one pool pass, so the pool stays busy even
        when single points have few replications.
        """
        rates = (
            tuple(arrival_rates)
            if arrival_rates is not None
            else config.arrival_rates
        )
        tasks = [
            ReplicationTask(spec, rate, config, replication)
            for spec in specs
            for rate in rates
            for replication in range(config.replications)
        ]
        runs = self.run_tasks(tasks)
        results: list[SweepResult] = []
        index = 0
        for spec in specs:
            points: list[PointResult] = []
            for rate in rates:
                chunk = runs[index : index + config.replications]
                index += config.replications
                points.append(aggregate_point(spec, rate, config, chunk))
            results.append(
                SweepResult(system_label=spec.label, points=tuple(points))
            )
        return results
