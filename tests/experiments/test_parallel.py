"""Determinism tests for the task runner (repro.experiments.parallel).

The contract under test: any ``workers`` count produces **bit-identical**
results to the serial runner — same seeds, same aggregation order, only
the execution substrate differs.
"""

import multiprocessing

import pytest

from repro.core.system import SystemSpec
from repro.experiments.config import quick_config
from repro.experiments.parallel import (
    ReplicationTask,
    run_replication,
    run_task,
    run_tasks,
)
from repro.experiments.runner import aggregate_point, run_point, sweep

SPECS = (SystemSpec("ED", retrials=2), SystemSpec("SP"))


def _point_tasks(spec, rate, config):
    return [
        ReplicationTask(spec, rate, config, replication)
        for replication in range(config.replications)
    ]


@pytest.fixture(scope="module")
def tiny_config():
    return quick_config(seed=23).scaled(
        warmup_s=20.0, measure_s=80.0, replications=2, arrival_rates=(15.0, 40.0)
    )


@pytest.fixture(scope="module")
def serial_sweep(tiny_config):
    return sweep(SPECS, tiny_config)


class TestBitIdenticalResults:
    def test_parallel_sweep_matches_serial(self, tiny_config, serial_sweep):
        parallel = sweep(SPECS, tiny_config.scaled(workers=2))
        assert parallel == serial_sweep

    def test_parallel_run_point_matches_serial(self, tiny_config, serial_sweep):
        runs = run_tasks(_point_tasks(SPECS[0], 40.0, tiny_config), workers=2)
        point = aggregate_point(SPECS[0], 40.0, tiny_config, runs)
        assert point == serial_sweep[0].point_at(40.0)

    def test_config_workers_field_drives_run_point(self, tiny_config, serial_sweep):
        config = tiny_config.scaled(workers=2)
        point = run_point(SPECS[0], 15.0, config)
        assert point == serial_sweep[0].point_at(15.0)

    def test_single_worker_runner_is_in_process(
        self, tiny_config, serial_sweep, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("one worker must not create a pool")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        runs = run_tasks(_point_tasks(SPECS[1], 15.0, tiny_config), workers=1)
        point = aggregate_point(SPECS[1], 15.0, tiny_config, runs)
        assert point == serial_sweep[1].point_at(15.0)


class TestTaskPlumbing:
    def test_run_task_equals_run_replication(self, tiny_config):
        task = ReplicationTask(SPECS[0], 15.0, tiny_config, replication=1)
        assert run_task(task) == run_replication(SPECS[0], 15.0, tiny_config, 1)

    def test_tasks_are_picklable(self, tiny_config):
        import pickle

        task = ReplicationTask(SPECS[0], 15.0, tiny_config, replication=0)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            run_tasks([], workers=0)
