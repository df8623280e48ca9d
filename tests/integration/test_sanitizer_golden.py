"""Golden determinism with the runtime sanitizer armed (slow tier).

The sanitizer (:mod:`repro.invariants`) must be purely observational:
with every invariant hook firing, the pinned golden results and the
serial-vs-parallel bit-identity contract must hold unchanged, on both
pending-event set implementations.
"""

import os

import pytest

import repro
from repro import invariants
from repro.core.system import SystemSpec
from repro.experiments.config import quick_config
from repro.experiments.runner import sweep

from tests.integration.test_determinism_golden import (
    GOLDEN,
    GOLDEN_VARIANTS,
    run_variant,
    variant_id,
)

pytestmark = pytest.mark.slow


@pytest.fixture
def sanitizer_everywhere(monkeypatch):
    """Arm the sanitizer here *and* in spawned worker processes."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    previous = invariants.is_enabled()
    invariants.set_enabled(True)
    yield
    invariants.set_enabled(previous)


# The engine has one pending-event set, the heap; the parameter only
# keeps the test ids (``[ED-heap]``...) stable.
@pytest.mark.parametrize("queue", ["heap"])
@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_golden_results_survive_sanitizer(algorithm, queue, sanitizer_everywhere):
    result = repro.quick_run(
        algorithm,
        retrials=2,
        arrival_rate=25.0,
        warmup_s=50.0,
        measure_s=200.0,
        seed=20010405,
    )
    requests, admitted, mean_attempts = GOLDEN[algorithm]
    assert result.requests == requests
    assert result.admitted == admitted
    assert result.mean_attempts == pytest.approx(mean_attempts, abs=1e-12)


@pytest.mark.parametrize("variant", sorted(GOLDEN_VARIANTS), ids=variant_id)
def test_golden_variants_survive_sanitizer(variant, sanitizer_everywhere):
    result = run_variant(*variant)
    requests, admitted, mean_attempts = GOLDEN_VARIANTS[variant]
    assert result.requests == requests
    assert result.admitted == admitted
    assert result.mean_attempts == pytest.approx(mean_attempts, abs=1e-12)


def test_parallel_sweep_matches_serial_under_sanitizer(sanitizer_everywhere):
    # Workers are separate processes; they pick the sanitizer up from
    # REPRO_CHECK_INVARIANTS in the inherited environment.
    assert os.environ["REPRO_CHECK_INVARIANTS"] == "1"
    specs = (SystemSpec("ED", retrials=2), SystemSpec("SP"))
    config = quick_config(seed=23).scaled(
        warmup_s=20.0, measure_s=80.0, replications=2, arrival_rates=(15.0, 40.0)
    )
    serial = sweep(specs, config)
    parallel = sweep(specs, config.scaled(workers=2))
    assert parallel == serial
