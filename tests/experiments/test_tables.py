"""Tests for table regeneration (repro.experiments.tables)."""

import pytest

from repro.analysis.admission import analyze_system
from repro.analysis.erlang import erlang_b, uaa_blocking
from repro.core.system import SystemSpec
from repro.experiments.config import quick_config
from repro.experiments.tables import ALL_TABLES, table1, table2

pytestmark = pytest.mark.slow  # minutes-long simulations; skip with -m 'not slow'


# AP in a loss network depends on the offered load lambda/mu only, so
# the tests shrink lifetimes 6x and scale lambda up 6x: identical loads
# to the paper's grid, but the warm-up transient is 6x shorter.
_SCALED_RATES = tuple(6.0 * rate for rate in (5.0, 20.0, 35.0, 50.0))


@pytest.fixture(scope="module")
def mini_config():
    return quick_config(seed=31).scaled(
        mean_lifetime_s=30.0, warmup_s=150.0, measure_s=450.0
    )


@pytest.fixture(scope="module")
def tab1(mini_config):
    return table1(mini_config, arrival_rates=_SCALED_RATES)


@pytest.fixture(scope="module")
def tab2(mini_config):
    return table2(mini_config, arrival_rates=_SCALED_RATES)


class TestTable1:
    def test_structure(self, tab1):
        assert tab1.table_id == "tab1"
        assert tab1.system_label == "<ED,1>"
        assert tab1.arrival_rates == _SCALED_RATES
        assert len(tab1.analysis) == 4
        assert len(tab1.simulation) == 4

    def test_light_load_admits_everything(self, tab1):
        assert tab1.analysis[0] == pytest.approx(1.0, abs=1e-6)
        assert tab1.simulation[0] == pytest.approx(1.0, abs=0.01)

    def test_analysis_matches_simulation(self, tab1):
        # The paper's headline claim (Appendix A.3): near-identical.
        assert tab1.max_absolute_gap < 0.04

    def test_ap_decreases_with_load(self, tab1):
        assert list(tab1.analysis) == sorted(tab1.analysis, reverse=True)
        assert list(tab1.simulation) == sorted(tab1.simulation, reverse=True)

    def test_render(self, tab1):
        text = tab1.render()
        assert "Mathematical Analysis" in text
        assert "Computer Simulation" in text
        assert "lambda=300" in text


class TestTable2:
    def test_structure(self, tab2):
        assert tab2.system_label == "SP"

    def test_analysis_matches_simulation(self, tab2):
        assert tab2.max_absolute_gap < 0.04

    def test_sp_below_ed_under_load(self, tab1, tab2):
        # Paper Tables 1 vs 2: SP admits less at every loaded rate.
        for ed, sp in list(zip(tab1.analysis, tab2.analysis))[1:]:
            assert sp < ed


class TestUaaPathway:
    def test_uaa_analysis_matches_simulation(self, mini_config, tab1):
        # The simulated column does not depend on the blocking function,
        # so the UAA analysis is compared against tab1's simulations.
        network = mini_config.network_factory()()
        spec = SystemSpec("ED", retrials=1)
        gaps = [
            abs(
                analyze_system(
                    network,
                    mini_config.workload(rate),
                    spec,
                    blocking_function=uaa_blocking,
                ).admission_probability
                - simulated
            )
            for rate, simulated in zip(_SCALED_RATES, tab1.simulation)
        ]
        assert max(gaps) < 0.05

    def test_uaa_blocking_function_accepted(self, mini_config):
        # table1 passes its blocking_function to the analysis column.
        short = mini_config.scaled(warmup_s=10.0, measure_s=20.0)
        rate = _SCALED_RATES[-1]
        result = table1(short, blocking_function=uaa_blocking, arrival_rates=(rate,))
        network = short.network_factory()()
        spec = SystemSpec("ED", retrials=1)
        uaa, exact = (
            analyze_system(
                network, short.workload(rate), spec, blocking_function=blocking
            ).admission_probability
            for blocking in (uaa_blocking, erlang_b)
        )
        assert uaa != exact
        assert result.analysis == (uaa,)


class TestRegistry:
    def test_all_tables_registered(self):
        assert set(ALL_TABLES) == {"tab1", "tab2"}
