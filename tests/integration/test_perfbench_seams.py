"""perfbench's traced run, at the recorded seed, as a tier-1 check.

perfbench's tracer (``perfbench/tracer.py``) replaces methods on the
objects a run builds with instance attributes that record spans.  A hot
path that binds one of those methods before the tracer patches it, or
calls it through the class, escapes the trace, and the traced run's
reconciliation with the program's own counters then fails.  This test
makes that failure show in tier-1: it runs each workload traced at the
seed whose outcome ``perfbench/digests.json`` stores, and requires no
reconciliation or drain problem, the stored outcome, and one traced
``select`` and ``observe`` per attempt and one ``should_retry`` per
refused attempt.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``run`` and ``tracer`` modules, imported from its folder.

    ``run.load_program`` is not called: the program under test is the
    one already on the import path.
    """
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize(
    "workload",
    ["atomic_ed5_mci_l50", "atomic_wddb_mci_l50", "signalled_wddb_mci_loss5"],
)
def test_traced_run_reconciles_and_reproduces_the_digest(perfbench, workload):
    run, tracer = perfbench
    seed = run.RECORDED_SEED
    build = run.constructor(run.WORKLOADS[workload], seed)
    built = []

    def make():
        built.append(build())
        return built[-1]

    traced = tracer.Tracer()
    result = run.simulate(make, log=True, tracer=traced)
    assert result.problems == []
    stored = json.loads((PERFBENCH / "digests.json").read_text())
    assert stored["recorded_seed"] == seed
    assert result.outcome == stored["workloads"][workload]

    # The drain after the run adds release spans only.
    spans = traced.analyse()
    selects = spans.count("selection", "select")
    assert selects >= result.decisions
    assert spans.count("selection", "observe") == selects
    retries = spans.count("admission", "should_retry")
    sim = built[0]
    if tracer.signalled_routers(sim) is None:
        engines = tracer.atomic_engines(sim)
        attempts = sum(engine.attempts for engine in engines)
        failures = sum(engine.failures for engine in engines)
        assert (selects, retries) == (attempts, failures)
    else:
        assert 0 < retries < selects
