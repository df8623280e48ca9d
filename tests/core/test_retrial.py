"""Unit tests for retrial control (repro.core.retrial)."""

import math

import pytest

from repro.core.retrial import CounterRetrialPolicy, ExponentialBackoff
from repro.signaling.channel import RetransmitPolicy
from repro.sim.random_streams import StreamFactory


class TestCounterRetrialPolicy:
    def test_r1_never_retries(self):
        policy = CounterRetrialPolicy(1)
        assert not policy.should_retry(attempts_made=1, distinct_tried=1, group_size=5)

    def test_retries_below_limit(self):
        policy = CounterRetrialPolicy(3)
        assert policy.should_retry(attempts_made=1, distinct_tried=1, group_size=5)
        assert policy.should_retry(attempts_made=2, distinct_tried=2, group_size=5)
        assert not policy.should_retry(attempts_made=3, distinct_tried=3, group_size=5)

    def test_stops_when_group_exhausted(self):
        policy = CounterRetrialPolicy(10)
        assert not policy.should_retry(attempts_made=5, distinct_tried=5, group_size=5)

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            CounterRetrialPolicy(0)

    def test_repr_mentions_r(self):
        assert "R=4" in repr(CounterRetrialPolicy(4))


class TestRetransmissionTimingValidation:
    """Non-finite timing is refused at construction.

    A sender arms a retransmission timer only when no copy arrives
    before it; a NaN or infinite timeout would compare false and never
    arm one, silently turning a lossy hop into a hang.
    """

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_timeout_s": math.nan},
            {"initial_timeout_s": math.inf},
            {"initial_timeout_s": 0.0},
            {"initial_timeout_s": -0.1},
            {"initial_timeout_s": 0.1, "factor": math.nan},
            {"initial_timeout_s": 0.1, "factor": math.inf},
            {"initial_timeout_s": 0.1, "factor": 0.5},
            {"initial_timeout_s": 0.1, "max_timeout_s": math.nan},
            {"initial_timeout_s": 0.1, "max_timeout_s": 0.05},
            {"initial_timeout_s": 0.1, "jitter": math.nan},
        ],
    )
    def test_backoff_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ExponentialBackoff(**kwargs)

    def test_infinite_cap_is_the_default(self):
        backoff = ExponentialBackoff(0.1, factor=2.0)
        assert backoff.max_timeout_s == math.inf
        assert backoff.timeout(3) == pytest.approx(0.8)
        assert ExponentialBackoff(0.1, max_timeout_s=math.inf).timeout(0) == 0.1

    @pytest.mark.parametrize("max_retransmits", [2.5, -1, math.nan, "3"])
    def test_policy_rejects_non_integer_cap(self, max_retransmits):
        with pytest.raises(ValueError):
            RetransmitPolicy(ExponentialBackoff(0.1), max_retransmits=max_retransmits)

    def test_policy_accepts_zero_cap(self):
        assert RetransmitPolicy(ExponentialBackoff(0.1), 0).max_retransmits == 0


class TestLazyJitter:
    def backoff(self, seed=5, jitter=0.5):
        return ExponentialBackoff(
            0.05,
            factor=2.0,
            max_timeout_s=0.3,
            jitter=jitter,
            rng=StreamFactory(seed).stream("backoff"),
        )

    @pytest.mark.parametrize("jitter", [0.0, 0.1, 0.5, 0.9])
    def test_floor_bounds_every_timeout(self, jitter):
        backoff = self.backoff(jitter=jitter)
        for attempt in range(6):
            floor = backoff.floor(attempt)
            for _ in range(300):
                assert floor <= backoff.timeout(attempt)

    def test_floor_of_unjittered_backoff_is_the_timeout(self):
        backoff = ExponentialBackoff(0.05, factor=2.0, max_timeout_s=0.3)
        assert [backoff.floor(a) for a in range(5)] == [
            backoff.timeout(a) for a in range(5)
        ]

    def test_skipped_timeouts_pass_their_variates_over(self):
        stream = StreamFactory(5).stream("backoff")
        lazy = ExponentialBackoff(
            0.05, factor=2.0, max_timeout_s=0.3, jitter=0.5, rng=stream
        )
        eager = self.backoff()
        for skips in (0, 1, 3, 1500, 2):
            lazy.skipped += skips
            for _ in range(skips):
                eager.timeout(0)
            assert lazy.timeout(1) == eager.timeout(1)
            assert lazy.skipped == 0
        # Only the timeouts drawn count as draws.
        assert stream.draws == 5
