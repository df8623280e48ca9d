"""Microbenchmark: the parallel experiment runner vs the serial path.

Demonstrates the two claims the parallel layer makes:

* **Determinism** — a multi-replication point run with ``workers=4``
  returns bit-identical :class:`PointResult` values to the serial run
  (asserted unconditionally, on any machine).
* **Speedup** — replications fan out across cores, so with 4 workers
  on a >= 4-core machine the wall-clock drops by >= 2x (asserted only
  when the hardware actually has the cores; on smaller machines the
  measured ratio is still printed for the record).

Run with::

    pytest benchmarks/test_parallel_microbench.py --benchmark-only -s
"""

import os
import time

from conftest import HEAVY_RATE, bench_config

from repro.core.system import SystemSpec
from repro.experiments.runner import run_point

WORKERS = 4

#: Four replications of a medium-length point: enough simulated work
#: for the pool to amortize its fork cost many times over.
def _parallel_config():
    return bench_config(
        replications=WORKERS, warmup_s=100.0, measure_s=400.0
    )


def test_parallel_point_bit_identical_and_faster(benchmark):
    config = _parallel_config()
    spec = SystemSpec("WD/D+H", retrials=2)

    def serial():
        return run_point(spec, HEAVY_RATE, config)

    def parallel():
        return run_point(spec, HEAVY_RATE, config.scaled(workers=WORKERS))

    started = time.perf_counter()
    serial_point = serial()
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel_point = benchmark.pedantic(parallel, rounds=1, iterations=1)
    parallel_s = time.perf_counter() - started

    # Determinism: the whole aggregate, including every per-replication
    # SimulationResult, must match bit for bit.
    assert parallel_point == serial_point

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print()
    print(
        f"serial {serial_s:.2f}s  parallel({WORKERS}) {parallel_s:.2f}s  "
        f"speedup {speedup:.2f}x on {os.cpu_count()} cores"
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {WORKERS} workers on "
            f"{os.cpu_count()} cores, measured {speedup:.2f}x"
        )


def test_parallel_sweep_bit_identical(benchmark):
    """Whole-grid fan-out keeps the pool busy and stays deterministic."""
    from repro.experiments.runner import sweep

    config = bench_config(
        replications=2, warmup_s=50.0, measure_s=200.0,
        arrival_rates=(HEAVY_RATE,),
    )
    specs = [SystemSpec("ED", retrials=2), SystemSpec("SP")]
    serial_series = sweep(specs, config)
    parallel_series = benchmark.pedantic(
        lambda: sweep(specs, config.scaled(workers=WORKERS)),
        rounds=1,
        iterations=1,
    )
    assert parallel_series == serial_series
