"""Output statistics for simulation runs.

Provides the estimators the experiment harness relies on:

* :class:`RunningStats` -- numerically stable (Welford) streaming
  mean/variance for observation-based statistics.
* :class:`TimeWeightedStats` -- time-weighted averages for state
  variables such as link occupancy.
* :class:`BatchMeans` -- batch-means partitioning of a long run into
  approximately independent batches for confidence intervals.
* :func:`confidence_interval` -- Student-t interval for a sample of
  replication (or batch) means.
* :func:`student_t_quantile` -- the Student-t quantile that interval
  needs, in pure Python.
"""

from __future__ import annotations

import math
import numbers
from statistics import NormalDist
from typing import Callable, Optional, Sequence


class RunningStats:
    """Streaming mean and variance via Welford's algorithm.

    Numerically stable for long runs; O(1) memory.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator into this one (parallel Welford)."""
        if other._count == 0:
            return
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return
        total = self._count + other._count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self._count * other._count / total
        self._mean += delta * other._count / total
        self._count = total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than 2 samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunningStats(n={self._count}, mean={self.mean:.6g})"


class TimeWeightedStats:
    """Time-weighted average of a piecewise-constant state variable.

    Call :meth:`record` with the *new* value whenever the state
    changes; the time spent at the previous value is weighted in.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulation time.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._last_time: Optional[float] = None
        self._last_value = 0.0
        self._weighted_sum = 0.0
        self._total_time = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float) -> None:
        """Register that the state becomes ``value`` now."""
        now = self._clock()
        if self._last_time is not None:
            span = now - self._last_time
            if span < 0:
                raise ValueError("clock moved backwards")
            self._weighted_sum += self._last_value * span
            self._total_time += span
        self._last_time = now
        self._last_value = float(value)
        if value < self._min:
            self._min = float(value)
        if value > self._max:
            self._max = float(value)

    def reset(self) -> None:
        """Discard accumulated history; keep the current value.

        Used to drop the warm-up period from utilization statistics.
        """
        self._last_time = self._clock()
        self._weighted_sum = 0.0
        self._total_time = 0.0
        self._min = self._last_value
        self._max = self._last_value

    @property
    def mean(self) -> float:
        """Time-weighted mean up to the last :meth:`record` call."""
        now = self._clock()
        weighted = self._weighted_sum
        total = self._total_time
        if self._last_time is not None and now > self._last_time:
            weighted += self._last_value * (now - self._last_time)
            total += now - self._last_time
        if total == 0:
            return self._last_value
        return weighted / total

    @property
    def current(self) -> float:
        """Most recently recorded value."""
        return self._last_value

    @property
    def total_time(self) -> float:
        """Observation time accumulated since construction or :meth:`reset`."""
        total = self._total_time
        now = self._clock()
        if self._last_time is not None and now > self._last_time:
            total += now - self._last_time
        return total

    @property
    def minimum(self) -> float:
        """Smallest recorded value."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest recorded value."""
        return self._max


class BatchMeans:
    """Batch-means estimator for steady-state simulation output.

    Observations are grouped into fixed-size batches; batch means are
    approximately independent for large batches, enabling a
    confidence interval from a single long run.
    """

    def __init__(self, batch_size: int) -> None:
        _check_batch_size(batch_size)
        self.batch_size = batch_size
        self._current = RunningStats()
        self._batch_means: list[float] = []

    def record(self, value: float) -> None:
        """Add one observation, closing a batch when it fills."""
        self._current.record(value)
        if self._current.count >= self.batch_size:
            self._batch_means.append(self._current.mean)
            self._current = RunningStats()

    @property
    def completed_batches(self) -> int:
        """Number of full batches accumulated."""
        return len(self._batch_means)

    @property
    def batch_means(self) -> list[float]:
        """Means of the completed batches."""
        return list(self._batch_means)

    @property
    def grand_mean(self) -> float:
        """Mean of the completed batch means (0.0 if none)."""
        if not self._batch_means:
            return 0.0
        return sum(self._batch_means) / len(self._batch_means)

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Student-t CI over the completed batch means."""
        return confidence_interval(self._batch_means, level)


def _check_batch_size(batch_size: int) -> None:
    # A float such as NaN would pass ``< 1`` and never close a batch.
    if not isinstance(batch_size, numbers.Integral) or batch_size < 1:
        raise ValueError(f"batch size must be an integer >= 1, got {batch_size!r}")


def confidence_interval(
    samples: Sequence[float], level: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval for the mean of ``samples``.

    Returns ``(low, high)``.  With fewer than two samples the interval
    degenerates to ``(mean, mean)``.  A NaN or infinite sample raises
    :class:`ValueError`: it has no mean to bound.
    """
    if not 0 < level < 1:
        raise ValueError(f"confidence level must be in (0,1), got {level}")
    if not all(math.isfinite(s) for s in samples):
        raise ValueError("samples must be finite")
    n = len(samples)
    if n == 0:
        return (0.0, 0.0)
    mean = sum(samples) / n
    if n == 1:
        return (mean, mean)
    variance = sum((s - mean) ** 2 for s in samples) / (n - 1)
    if variance == 0:
        return (mean, mean)
    quantile = student_t_quantile((1 + level) / 2, n - 1)
    half_width = quantile * math.sqrt(variance / n)
    return (mean - half_width, mean + half_width)


def student_t_quantile(p: float, df: int) -> float:
    """The ``p`` quantile of Student's t distribution with ``df`` degrees of freedom.

    Closed forms serve ``df`` 1 and 2.  Otherwise Newton steps, kept
    inside a bisection bracket, invert the CDF, a regularized incomplete
    beta function (see :func:`_t_split`).  For ``df`` up to 10**6 and
    ``p`` from 0.55 to 0.9995 it agrees with ``scipy.stats.t.ppf`` to
    2.2e-13 (relative) or better.

    >>> round(student_t_quantile(0.975, 3), 6)
    3.182446
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0,1), got {p}")
    if not isinstance(df, numbers.Integral) or df < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    if p == 0.5:
        return 0.0
    # Solve on the upper half, t > 0.  Each of tail = P(T > t) and
    # centre = P(0 < T < t) is exact wherever it is the smaller one.
    if p > 0.5:
        tail, centre, sign = 1.0 - p, p - 0.5, 1.0
    else:
        tail, centre, sign = p, 0.5 - p, -1.0
    if df == 1:
        t = 1.0 / math.tan(math.pi * tail)
    elif df == 2:
        t = 2.0 * centre / math.sqrt(2.0 * tail * (1.0 - tail))
    else:
        t = _t_upper_quantile(tail, centre, float(df))
    return sign * t


_HALF_LOG_PI = 0.5 * math.log(math.pi)
_TINY = 1e-300


def _t_upper_quantile(tail: float, centre: float, df: float) -> float:
    """The ``t > 0`` with ``P(T > t) = tail`` and ``P(0 < T < t) = centre``.

    Newton steps run on ``log t`` against the log of the smaller of the
    two targets.  On those scales the CDF is nearly a straight line, so
    a few steps from the Cornish-Fisher start suffice.
    """
    # Cornish-Fisher expansion about the normal quantile (A&S 26.7.5).
    z = -NormalDist().inv_cdf(tail)
    z2 = z * z
    t = z + z * (z2 + 1.0) / (4.0 * df)
    t += z * ((5.0 * z2 + 16.0) * z2 + 3.0) / (96.0 * df * df)
    use_tail = tail < centre
    target = math.log(tail if use_tail else centre)
    u = math.log(t)
    low, high = -math.inf, math.inf
    for _ in range(100):
        weight, below, above = _t_split(math.exp(u), df)
        # d log(above) / du = -weight / above; d log(below) / du = weight / below.
        if use_tail:
            excess = target - math.log(above)
            step = -excess * above / weight
        else:
            excess = math.log(below) - target
            step = -excess * below / weight
        if abs(step) <= 1e-9:
            # Newton converges quadratically: what this step leaves is below an ulp.
            return math.exp(u + step)
        if excess < 0.0:
            low = u
        else:
            high = u
        u += step
        if not low < u < high:
            if math.isinf(high):
                u = low + 1.0
            elif math.isinf(low):
                u = high - 1.0
            else:
                u = 0.5 * (low + high)
    raise ArithmeticError(f"t quantile did not converge (tail={tail}, df={df})")


def _t_split(t: float, df: float) -> tuple[float, float, float]:
    """``(t * pdf(t), P(0 < T < t), P(T > t))`` for ``t > 0``.

    Both probabilities are regularized incomplete beta functions:
    ``P(0 < T < t) = I_y(1/2, df/2) / 2`` and ``P(T > t) = I_x(df/2, 1/2) / 2``
    with ``y = t^2 / (df + t^2)`` and ``x = 1 - y``.  One of them is
    computed and the other is ``1/2`` minus it.  While ``t < 4`` and
    ``y < 1/2`` the centre comes from its series of positive terms.
    Otherwise the tail comes from a Lentz continued fraction, which
    as ``x -> 1`` loses about ``log10(df / t^2)`` digits: too many for
    small ``t`` at large ``df`` (without the series it fails to converge
    at ``p = 0.55`` from ``df = 223``, short of the ``df`` near 1000 that
    batch means over a 4000 s run at 50 req/s give).
    """
    half = 0.5 * df
    s = t * t / df
    y = s / (1.0 + s)
    # t * pdf(t) = Gamma(half + 1/2) / (Gamma(half) sqrt(pi)) x^half y^(1/2),
    # which is also the prefactor both incomplete beta functions share.
    weight = math.exp(
        _log_gamma_half_ratio(half)
        - _HALF_LOG_PI
        - half * math.log1p(s)
        + 0.5 * math.log(y)
    )
    if t * t < min(df, 16.0):
        # Hypergeometric series: I_y(a, b) = y^a x^b / (a B(a, b)) *
        # sum_n (a + b)_n / (a + 1)_n y^n, here with a = 1/2.
        term = series = 1.0
        n = 0.0
        while term > 1e-17 * series:
            term *= (half + 0.5 + n) / (1.5 + n) * y
            series += term
            n += 1.0
        below = weight * series
        return weight, below, 0.5 - below
    above = weight / df * _beta_continued_fraction(half, 0.5, 1.0 / (1.0 + s))
    return weight, 0.5 - above, above


def _log_gamma_half_ratio(z: float) -> float:
    """``log(Gamma(z + 1/2) / Gamma(z))`` to an absolute error near an ulp.

    For large ``z`` the difference of two ``lgamma`` values near
    ``z log z`` would lose the digits that matter (the quantile is off
    by 7.6e-11 at ``df = 889``), so it is taken from the difference of
    the two Stirling series instead.
    """
    if z < 10.0:
        return math.lgamma(z + 0.5) - math.lgamma(z)
    return (
        0.5 * math.log(z)
        + z * math.log1p(0.5 / z)
        - 0.5
        + _stirling_correction(z + 0.5)
        - _stirling_correction(z)
    )


def _stirling_correction(w: float) -> float:
    """``lgamma(w) - ((w - 1/2) log w - w + log(2 pi) / 2)``, for ``w >= 10``."""
    r = 1.0 / (w * w)
    series = -691.0 / 360360.0
    for coefficient in (1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0):
        series = coefficient + r * series
    return (1.0 / 12.0 + r * series) / w


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b) * a * B(a, b) / (x^a (1 - x)^b)``.

    Modified Lentz evaluation of the standard expansion (Numerical
    Recipes, section 6.4).
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    fraction = d
    for m in range(1, 1000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _TINY else _TINY
            fraction *= c * d
        if abs(c * d - 1.0) <= 1e-16:
            return fraction
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")
