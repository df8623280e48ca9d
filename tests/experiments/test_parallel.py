"""Determinism tests for the parallel runner (repro.experiments.parallel).

The contract under test: any ``workers`` count produces **bit-identical**
results to the serial runner — same seeds, same aggregation order, only
the execution substrate differs.
"""

import pytest

from repro.core.system import SystemSpec
from repro.experiments.config import quick_config
from repro.experiments.parallel import ParallelRunner, ReplicationTask, run_task
from repro.experiments.runner import run_point, run_replication, sweep

SPECS = (SystemSpec("ED", retrials=2), SystemSpec("SP"))


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
        point = ParallelRunner(workers=2).run_point(SPECS[0], 40.0, tiny_config)
        assert point == serial_sweep[0].point_at(40.0)

    def test_config_workers_field_drives_run_point(self, tiny_config, serial_sweep):
        config = tiny_config.scaled(workers=2)
        point = run_point(SPECS[0], 15.0, config)
        assert point == serial_sweep[0].point_at(15.0)

    def test_single_worker_runner_is_in_process(self, tiny_config, serial_sweep):
        runner = ParallelRunner(workers=1)
        point = runner.run_point(SPECS[1], 15.0, tiny_config)
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
            ParallelRunner(workers=0)
