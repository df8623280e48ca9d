"""Integration tests asserting the paper's qualitative observations.

Section 5.2 draws several conclusions from Figures 3-7; these tests
verify each on scaled-down runs (short lifetimes, proportionally
raised arrival rates keep the offered loads at paper levels while
shrinking transients).  The benchmarks re-verify them at paper scale.
"""

import os

import pytest

from repro.core.system import SystemSpec
from repro.experiments.config import quick_config
from repro.experiments.runner import run_point, sweep

pytestmark = pytest.mark.slow  # minutes-long simulations; skip with -m 'not slow'

#: Offered-load-preserving rescaling: lifetime 180 s -> 30 s, rates x6.
CONFIG = quick_config(seed=101).scaled(
    mean_lifetime_s=30.0, warmup_s=150.0, measure_s=450.0
)
HEAVY_RATE = 6.0 * 35.0  # the paper's lambda = 35 point
MODERATE_RATE = 6.0 * 20.0


@pytest.fixture(scope="module")
def heavy_results():
    """All systems at the heavy-load point, shared across tests.

    One sweep over every CPU: parallel results are bit-identical to
    serial ones, so the assertions see the same numbers either way.
    """
    specs = (
        SystemSpec("SP"),
        SystemSpec("ED", retrials=1),
        SystemSpec("ED", retrials=2),
        SystemSpec("ED", retrials=3),
        SystemSpec("WD/D+H", retrials=2),
        SystemSpec("WD/D+B", retrials=2),
        SystemSpec("GDI"),
    )
    config = CONFIG.scaled(workers=os.cpu_count() or 1)
    return {
        series.system_label: series.point_at(HEAVY_RATE)
        for series in sweep(specs, config, arrival_rates=(HEAVY_RATE,))
    }


class TestObservationRetrials:
    """Figures 3-5, observations 1-2: AP increases with R, mostly 1->2."""

    def test_ap_increases_with_r(self, heavy_results):
        ap1 = heavy_results["<ED,1>"].admission_probability
        ap2 = heavy_results["<ED,2>"].admission_probability
        ap3 = heavy_results["<ED,3>"].admission_probability
        assert ap2 > ap1
        assert ap3 >= ap2 - 0.01

    def test_first_retrial_gives_biggest_jump(self, heavy_results):
        ap1 = heavy_results["<ED,1>"].admission_probability
        ap2 = heavy_results["<ED,2>"].admission_probability
        ap3 = heavy_results["<ED,3>"].admission_probability
        assert (ap2 - ap1) > (ap3 - ap2) - 0.01


class TestObservationOrdering:
    """Figure 6: SP < DAC systems < GDI under load."""

    def test_sp_is_worst(self, heavy_results):
        sp = heavy_results["SP"].admission_probability
        for label in ("<ED,2>", "<WD/D+H,2>", "<WD/D+B,2>", "GDI"):
            assert heavy_results[label].admission_probability > sp

    def test_gdi_is_best(self, heavy_results):
        gdi = heavy_results["GDI"].admission_probability
        for label in ("SP", "<ED,2>", "<WD/D+H,2>", "<WD/D+B,2>"):
            assert heavy_results[label].admission_probability <= gdi + 0.01

    def test_informed_selection_beats_blind(self, heavy_results):
        """WD/D+H and WD/D+B outperform ED (observation 2, Fig. 6)."""
        ed = heavy_results["<ED,2>"].admission_probability
        assert heavy_results["<WD/D+H,2>"].admission_probability > ed - 0.01
        assert heavy_results["<WD/D+B,2>"].admission_probability > ed - 0.01

    def test_dac_systems_close_to_gdi(self, heavy_results):
        """The paper's headline: local-information DAC approaches GDI."""
        gdi = heavy_results["GDI"].admission_probability
        best_dac = heavy_results["<WD/D+B,2>"].admission_probability
        assert gdi - best_dac < 0.15


class TestObservationOverhead:
    """Figure 7: retrial overhead ED > WD/D+H > WD/D+B."""

    def test_ed_has_most_retrials(self, heavy_results):
        ed = heavy_results["<ED,2>"].mean_retrials
        assert ed >= heavy_results["<WD/D+H,2>"].mean_retrials - 0.02
        assert ed >= heavy_results["<WD/D+B,2>"].mean_retrials - 0.02

    def test_bandwidth_information_minimizes_retrials(self, heavy_results):
        wddb = heavy_results["<WD/D+B,2>"].mean_retrials
        assert wddb <= heavy_results["<ED,2>"].mean_retrials + 0.02


class TestLightLoad:
    """Figure 6: at very low rates all systems perform equally (AP ~ 1)."""

    def test_everything_admits_at_light_load(self):
        light_rate = 6.0 * 5.0
        for algorithm in ("SP", "ED", "WD/D+H", "WD/D+B", "GDI"):
            point = run_point(SystemSpec(algorithm, retrials=2), light_rate, CONFIG)
            assert point.admission_probability > 0.995, algorithm
