"""Running replication tasks, in-process or over a process pool.

Replications are embarrassingly parallel: replication ``i`` derives
every random stream from ``config.seed + i`` and runs against its own
fresh network, so nothing is shared between replications but the
(immutable) configuration.  :func:`repro.experiments.runner.run_point`
and :func:`~repro.experiments.runner.sweep` build the ``(system,
arrival rate, replication)`` tasks and hand them to :func:`run_tasks`,
which runs them in-process for one worker and over a
:mod:`multiprocessing` pool otherwise.  Results come back in task
order and are aggregated in the parent, so a parallel run reproduces
the serial run **bit for bit**:

* seeds are derived per task from the root seed, never from worker
  identity or scheduling order;
* workers return complete :class:`~repro.sim.metrics.SimulationResult`
  objects; all aggregation arithmetic happens in the parent, over the
  same sequence for any worker count.

The determinism guarantee is asserted by
``tests/experiments/test_parallel.py`` and the speedup by
``benchmarks/test_parallel_microbench.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.system import SystemSpec
from repro.experiments.config import ExperimentConfig
from repro.sim.metrics import SimulationResult
from repro.sim.simulation import run_simulation


@dataclass(frozen=True)
class ReplicationTask:
    """One independent simulation: a point's ``replication``-th run.

    Picklable by construction — the worker rebuilds network, system
    and workload from the spec/config and returns only the plain-data
    summary.
    """

    spec: SystemSpec
    arrival_rate: float
    config: ExperimentConfig
    replication: int


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
    network, system and streams), which is what lets :func:`run_tasks`
    execute them in worker processes with identical results.
    """
    return run_simulation(
        network_factory=config.network_factory(),
        system_spec=spec,
        workload=config.workload(arrival_rate),
        warmup_s=config.warmup_s,
        measure_s=config.measure_s,
        seed=config.seed + replication,
    )


def run_task(task: ReplicationTask) -> SimulationResult:
    """Execute one :class:`ReplicationTask` (the pool's map function)."""
    return run_replication(
        task.spec, task.arrival_rate, task.config, task.replication
    )


def run_tasks(
    tasks: Sequence[ReplicationTask], workers: int
) -> list[SimulationResult]:
    """Run every task on up to ``workers`` processes, results in task order.

    One worker or one task runs in-process (no pool is created).  Task
    order (not completion order) is what makes the parent-side
    aggregation bit-identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(tasks) <= 1:
        return [run_task(task) for task in tasks]
    # Imported here so that serial runs never load multiprocessing.
    from multiprocessing import Pool

    with Pool(processes=min(workers, len(tasks))) as pool:
        # imap dispatches one task at a time, the best balance for
        # long, unevenly-sized simulations, and yields in task order.
        return list(pool.imap(run_task, tasks))
