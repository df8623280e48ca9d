"""Unit tests for congestion diagnostics (repro.experiments.diagnostics)."""

import pytest

from repro.experiments.diagnostics import _gini, congestion_report
from repro.sim.metrics import SimulationResult


def make_result(link_utilization, label="<ED,2>"):
    return SimulationResult(
        system_label=label,
        arrival_rate=20.0,
        duration_s=100.0,
        warmup_s=10.0,
        requests=100,
        admitted=80,
        admission_probability=0.8,
        ap_ci_low=0.75,
        ap_ci_high=0.85,
        mean_attempts=1.2,
        mean_retrials=0.2,
        mean_active_flows=50.0,
        link_utilization=link_utilization,
    )


class TestGini:
    def test_equal_values_zero(self):
        assert _gini([0.5, 0.5, 0.5]) == pytest.approx(0.0)

    def test_single_funnel_near_one(self):
        # One link carries everything among many.
        values = [1.0] + [0.0] * 99
        assert _gini(values) == pytest.approx(0.99, abs=0.001)

    def test_empty_and_zero(self):
        assert _gini([]) == 0.0
        assert _gini([0.0, 0.0]) == 0.0

    def test_known_value(self):
        # Two values (0, 1): Gini = 0.5.
        assert _gini([0.0, 1.0]) == pytest.approx(0.5)


class TestCongestionReport:
    def test_hotspots_sorted_descending(self):
        report = congestion_report(
            make_result({(0, 1): 0.2, (1, 2): 0.9, (2, 3): 0.5})
        )
        utils = [h.utilization for h in report.hotspots]
        assert utils == sorted(utils, reverse=True)
        assert report.peak_utilization == 0.9
        assert report.mean_utilization == pytest.approx((0.2 + 0.9 + 0.5) / 3)

    def test_top_n(self):
        report = congestion_report(
            make_result({(0, 1): 0.2, (1, 2): 0.9, (2, 3): 0.5})
        )
        top = report.top(2)
        assert [h.link for h in top] == [(1, 2), (2, 3)]

    def test_empty_utilization_rejected(self):
        with pytest.raises(ValueError):
            congestion_report(make_result({}))

    def test_render_contains_links(self):
        report = congestion_report(make_result({(0, 1): 0.42}))
        text = report.render()
        assert "0->1" in text
        assert "42.0%" in text


class TestEndToEnd:
    def test_sp_funnels_more_than_ed(self):
        """The paper's congestion argument, measured: SP's utilization
        distribution is more unequal than ED's on identical workloads."""
        import repro

        reports = []
        for algorithm in ("SP", "ED"):
            result = repro.quick_run(
                algorithm, retrials=2, arrival_rate=30.0,
                warmup_s=100.0, measure_s=300.0, seed=6,
            )
            reports.append(congestion_report(result))
        sp_report, ed_report = reports
        assert sp_report.gini > ed_report.gini
        assert sp_report.peak_utilization >= ed_report.peak_utilization - 0.02
