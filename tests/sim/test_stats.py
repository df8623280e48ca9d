"""Unit tests for output statistics (repro.sim.stats)."""

import math
from statistics import NormalDist

import pytest

from repro.sim.stats import (
    BatchMeans,
    RunningStats,
    TimeWeightedStats,
    confidence_interval,
    student_t_quantile,
)

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_mean_and_variance(self):
        stats = RunningStats()
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            stats.record(value)
        assert stats.mean == pytest.approx(5.0)
        # Sample variance of that classic dataset is 32/7.
        assert stats.variance == pytest.approx(32.0 / 7.0)

    def test_min_max(self):
        stats = RunningStats()
        for value in (3.0, -1.0, 7.0):
            stats.record(value)
        assert stats.minimum == -1.0
        assert stats.maximum == 7.0

    def test_single_observation_variance_zero(self):
        stats = RunningStats()
        stats.record(5.0)
        assert stats.variance == 0.0
        assert stats.stddev == 0.0

    def test_merge_matches_sequential(self):
        a, b, combined = RunningStats(), RunningStats(), RunningStats()
        values_a = [1.0, 2.0, 3.0]
        values_b = [10.0, 20.0]
        for v in values_a:
            a.record(v)
            combined.record(v)
        for v in values_b:
            b.record(v)
            combined.record(v)
        a.merge(b)
        assert a.count == combined.count
        assert a.mean == pytest.approx(combined.mean)
        assert a.variance == pytest.approx(combined.variance)
        assert a.minimum == combined.minimum
        assert a.maximum == combined.maximum

    def test_merge_with_empty(self):
        a, b = RunningStats(), RunningStats()
        a.record(1.0)
        a.merge(b)
        assert a.count == 1
        b.merge(a)
        assert b.count == 1
        assert b.mean == 1.0

    def test_numerical_stability_with_offset(self):
        stats = RunningStats()
        base = 1e12
        for value in (base + 1, base + 2, base + 3):
            stats.record(value)
        assert stats.variance == pytest.approx(1.0, rel=1e-6)


class TestTimeWeightedStats:
    def test_piecewise_constant_mean(self):
        clock = {"t": 0.0}
        stats = TimeWeightedStats(clock=lambda: clock["t"])
        stats.record(0.0)
        clock["t"] = 4.0
        stats.record(10.0)  # was 0 for 4s
        clock["t"] = 8.0
        stats.record(0.0)  # was 10 for 4s
        clock["t"] = 8.0
        assert stats.mean == pytest.approx(5.0)

    def test_mean_includes_current_segment(self):
        clock = {"t": 0.0}
        stats = TimeWeightedStats(clock=lambda: clock["t"])
        stats.record(2.0)
        clock["t"] = 10.0
        assert stats.mean == pytest.approx(2.0)

    def test_reset_discards_history(self):
        clock = {"t": 0.0}
        stats = TimeWeightedStats(clock=lambda: clock["t"])
        stats.record(100.0)
        clock["t"] = 5.0
        stats.reset()
        clock["t"] = 10.0
        assert stats.mean == pytest.approx(100.0)  # only current value remains
        stats.record(0.0)
        clock["t"] = 15.0
        # 100 for 5 s since reset, then 0 for 5 s.
        assert stats.mean == pytest.approx(50.0)

    def test_backwards_clock_raises(self):
        clock = {"t": 5.0}
        stats = TimeWeightedStats(clock=lambda: clock["t"])
        stats.record(1.0)
        clock["t"] = 3.0
        with pytest.raises(ValueError):
            stats.record(2.0)

    def test_min_max_track_values(self):
        clock = {"t": 0.0}
        stats = TimeWeightedStats(clock=lambda: clock["t"])
        stats.record(5.0)
        stats.record(-2.0)
        stats.record(9.0)
        assert stats.minimum == -2.0
        assert stats.maximum == 9.0
        assert stats.current == 9.0


class TestBatchMeans:
    def test_batches_close_at_size(self):
        batches = BatchMeans(batch_size=3)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
            batches.record(value)
        assert batches.completed_batches == 2
        assert batches.batch_means == [2.0, 5.0]
        assert batches.grand_mean == 3.5

    def test_empty_grand_mean(self):
        assert BatchMeans(5).grand_mean == 0.0

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            BatchMeans(0)

    @pytest.mark.parametrize("batch_size", [math.nan, math.inf, 2.5, 3.0, "3"])
    def test_non_integral_batch_size_rejected(self, batch_size):
        # NaN would pass a bare ``< 1`` check and then never close a batch.
        with pytest.raises(ValueError):
            BatchMeans(batch_size)

    def test_confidence_interval_brackets_mean(self):
        batches = BatchMeans(batch_size=10)
        for i in range(200):
            batches.record(float(i % 7))
        low, high = batches.confidence_interval()
        assert low <= batches.grand_mean <= high


class TestConfidenceInterval:
    def test_empty_samples(self):
        assert confidence_interval([]) == (0.0, 0.0)

    def test_single_sample_degenerate(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_zero_variance_degenerate(self):
        assert confidence_interval([2.0, 2.0, 2.0]) == (2.0, 2.0)

    def test_symmetric_around_mean(self):
        low, high = confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (low + high) / 2 == pytest.approx(3.0)
        assert low < 3.0 < high

    def test_higher_level_is_wider(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        low95, high95 = confidence_interval(samples, 0.95)
        low99, high99 = confidence_interval(samples, 0.99)
        assert high99 - low99 > high95 - low95

    def test_invalid_level_rejected(self):
        for level in [1.5, *NON_FINITE]:
            with pytest.raises(ValueError):
                confidence_interval([1.0, 2.0], level=level)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_sample_rejected(self, bad):
        # A sample that is not finite leaves no mean to bound.
        for samples in ([1.0, bad, 2.0], [bad]):
            with pytest.raises(ValueError):
                confidence_interval(samples)

    def test_known_t_interval(self):
        # n=4, mean=2.5, s=sqrt(5/3); t(0.975, 3)=3.1824
        samples = [1.0, 2.0, 3.0, 4.0]
        low, high = confidence_interval(samples)
        s = math.sqrt(5.0 / 3.0)
        half = 3.182446 * s / 2.0
        assert high - low == pytest.approx(2 * half, rel=1e-4)


class TestStudentTQuantile:
    # Reference quantiles from mpmath 1.3 at 50 digits: findroot on
    # betainc(df/2, 1/2, 0, df/(df + t^2), regularized=True)/2 == 1 - p.
    REFERENCE = [
        (0.95, 3, 2.353363434801823),
        (0.975, 3, 3.182446305283708),
        (0.9995, 3, 12.92397863668796),
        (0.9, 4, 1.533206274058944),
        (0.99, 7, 2.997951566868528),
        (0.975, 9, 2.262157162798205),
        (0.55, 10, 0.1288901892932739),
        (0.995, 19, 2.860934606464979),
        (0.975, 29, 2.045229642132704),
        (0.95, 60, 1.670648864904636),
        (0.9995, 120, 3.373453768562534),
        (0.975, 1000, 1.962339080826408),
        (0.99, 1000000, 2.326351603120805),
    ]
    LEVELS = [0.001, 0.1, 0.3, 0.45, 0.55, 0.75, 0.9, 0.975, 0.9995]

    @pytest.mark.parametrize(("p", "df", "expected"), REFERENCE)
    def test_reference_table(self, p, df, expected):
        assert student_t_quantile(p, df) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", LEVELS)
    def test_cauchy_closed_form(self, p):
        expected = math.tan(math.pi * (p - 0.5))
        assert student_t_quantile(p, 1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", LEVELS)
    def test_two_degrees_closed_form(self, p):
        expected = (2 * p - 1) / math.sqrt(2 * p * (1 - p))
        assert student_t_quantile(p, 2) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", LEVELS)
    def test_large_df_is_normal(self, p):
        z = NormalDist().inv_cdf(p)
        q = student_t_quantile(p, 10**6)
        assert q == pytest.approx(z, rel=1e-5)
        # With the first Cornish-Fisher term the gap is O(df**-2).
        assert q == pytest.approx(z + (z**3 + z) / (4 * 10**6), rel=1e-10)

    @pytest.mark.parametrize("df", [1, 2, 3, 7, 30, 1000, 10**6])
    def test_symmetric(self, df):
        # Dyadic levels, so that 1 - p is exact.
        for p in (0.5, 0.375, 0.25, 0.125, 2.0**-10, 2.0**-30):
            assert student_t_quantile(1 - p, df) == -student_t_quantile(p, df)

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 30, 10**6])
    def test_rises_with_p(self, df):
        grid = [10.0**-k for k in range(12, 1, -1)] + [i / 100 for i in range(5, 96)]
        grid += [1 - 10.0**-k for k in range(2, 12)]
        values = [student_t_quantile(p, df) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("p", [0.6, 0.9, 0.975, 0.9995])
    def test_falls_as_df_grows(self, p):
        dfs = list(range(1, 61)) + [100, 1000, 10**4, 10**6]
        values = [student_t_quantile(p, df) for df in dfs]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, *NON_FINITE])
    def test_probability_outside_open_unit_interval_rejected(self, p):
        with pytest.raises(ValueError):
            student_t_quantile(p, 5)

    @pytest.mark.parametrize("df", [0, -3, 2.5, 3.0, *NON_FINITE])
    def test_degrees_of_freedom_must_be_integer_at_least_one(self, df):
        with pytest.raises(ValueError):
            student_t_quantile(0.975, df)
