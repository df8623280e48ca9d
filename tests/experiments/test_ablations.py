"""Tests for the ablation library (repro.experiments.ablations).

These run tiny configurations; the full-scale qualitative assertions
live in benchmarks/.
"""

import pytest

from repro.experiments.ablations import (
    alpha_sweep,
    information_decomposition,
    retrial_discipline,
    staleness_sweep,
)
from repro.experiments.config import quick_config

pytestmark = pytest.mark.slow  # minutes-long simulations; skip with -m 'not slow'


@pytest.fixture(scope="module")
def tiny():
    return quick_config(seed=77).scaled(
        mean_lifetime_s=30.0, warmup_s=50.0, measure_s=150.0
    )


RATE = 150.0  # paper lambda=25 at the rescaled lifetime


class TestAlphaSweep:
    def test_structure(self, tiny):
        results = alpha_sweep(tiny, RATE, alphas=(0.0, 1.0))
        assert set(results) == {0.0, 1.0, "WD/D"}
        for point in results.values():
            assert 0.0 <= point.admission_probability <= 1.0

    def test_alpha_one_close_to_wdd(self, tiny):
        results = alpha_sweep(tiny, RATE, alphas=(1.0,))
        assert results[1.0].admission_probability == pytest.approx(
            results["WD/D"].admission_probability, abs=0.05
        )


class TestDecomposition:
    def test_all_algorithms_present(self, tiny):
        results = information_decomposition(tiny, RATE)
        assert set(results) == {"ED", "WD/D", "WD/D+H", "WD/D+B"}


class TestStalenessSweep:
    def test_structure(self, tiny):
        results = staleness_sweep(tiny, RATE, refresh_periods=(0.0, 30.0))
        assert set(results) == {0.0, 30.0, "WD/D"}

    def test_zero_period_is_live_wddb(self, tiny):
        from repro.core.system import SystemSpec
        from repro.experiments.runner import run_point

        sweep = staleness_sweep(tiny, RATE, refresh_periods=(0.0,))
        direct = run_point(SystemSpec("WD/D+B", retrials=2), RATE, tiny)
        assert sweep[0.0].admission_probability == pytest.approx(
            direct.admission_probability, abs=1e-12
        )


class TestRetrialDiscipline:
    def test_exclude_at_least_as_good(self, tiny):
        results = retrial_discipline(tiny, RATE)
        assert set(results) == {"exclude", "resample"}
        assert (
            results["exclude"].admission_probability
            >= results["resample"].admission_probability - 0.03
        )

