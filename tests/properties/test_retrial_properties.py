"""Property-based tests for retrial policies and the backoff schedule.

Pins the boundary semantics the admission loop and the signalling
retransmitter rely on:

* ``CounterRetrialPolicy(max_attempts=1)`` means *no* retry, ever;
* retrying on every failure (``R = K``) is still bounded by the group
  size (every member tried at most once per request);
* ``ExponentialBackoff`` is deterministic given a seeded stream,
  capped at its maximum, and jittered within the declared band.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retrial import CounterRetrialPolicy, ExponentialBackoff
from repro.sim.random_streams import StreamFactory

attempts = st.integers(min_value=1, max_value=50)
group_sizes = st.integers(min_value=1, max_value=20)


class TestCounterPolicyBoundaries:
    @given(attempts_made=attempts, group_size=group_sizes)
    def test_max_attempts_one_never_retries(self, attempts_made, group_size):
        policy = CounterRetrialPolicy(max_attempts=1)
        assert not policy.should_retry(
            attempts_made=attempts_made,
            distinct_tried=min(attempts_made, group_size),
            group_size=group_size,
        )

    @given(limit=st.integers(min_value=1, max_value=10), group_size=group_sizes)
    def test_attempts_bounded_by_limit_and_group(self, limit, group_size):
        """Simulate the admission loop: every attempt fails."""
        policy = CounterRetrialPolicy(max_attempts=limit)
        made = 1  # the loop always makes a first attempt
        while policy.should_retry(
            attempts_made=made,
            distinct_tried=min(made, group_size),
            group_size=group_size,
        ):
            made += 1
            assert made <= limit + group_size  # safety net
        assert made == min(limit, group_size)


class TestAlwaysRetryBoundedByGroup:
    """``R = K``: retry after every failure until the group runs out."""

    @given(group_size=group_sizes)
    def test_stops_exactly_at_group_exhaustion(self, group_size):
        policy = CounterRetrialPolicy(max_attempts=group_size)
        made = 1
        while policy.should_retry(
            attempts_made=made,
            distinct_tried=min(made, group_size),
            group_size=group_size,
        ):
            made += 1
            assert made <= group_size + 1  # safety net
        assert made == group_size

    @given(attempts_made=attempts, group_size=group_sizes)
    def test_retries_iff_members_remain(self, attempts_made, group_size):
        distinct = min(attempts_made, group_size)
        assert CounterRetrialPolicy(max_attempts=group_size).should_retry(
            attempts_made=attempts_made,
            distinct_tried=distinct,
            group_size=group_size,
        ) == (distinct < group_size)


backoff_params = st.tuples(
    st.floats(min_value=1e-3, max_value=10.0),  # initial
    st.floats(min_value=1.0, max_value=4.0),  # factor
    st.floats(min_value=1.0, max_value=100.0),  # max multiplier
)


class TestExponentialBackoff:
    @given(params=backoff_params, attempt=st.integers(min_value=0, max_value=30))
    def test_capped_and_positive(self, params, attempt):
        initial, factor, max_multiplier = params
        cap = initial * max_multiplier
        backoff = ExponentialBackoff(initial, factor=factor, max_timeout_s=cap)
        timeout = backoff.timeout(attempt)
        assert 0.0 < timeout <= cap
        assert timeout == min(initial * factor**attempt, cap)

    @given(params=backoff_params)
    def test_monotone_without_jitter(self, params):
        initial, factor, max_multiplier = params
        backoff = ExponentialBackoff(
            initial, factor=factor, max_timeout_s=initial * max_multiplier
        )
        timeouts = [backoff.timeout(i) for i in range(12)]
        assert timeouts == sorted(timeouts)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        jitter=st.floats(min_value=0.01, max_value=0.99),
        attempt=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=50)
    def test_jitter_band_and_determinism(self, seed, jitter, attempt):
        def build():
            return ExponentialBackoff(
                0.05,
                factor=2.0,
                max_timeout_s=2.0,
                jitter=jitter,
                rng=StreamFactory(seed).stream("backoff"),
            )

        base = ExponentialBackoff(0.05, factor=2.0, max_timeout_s=2.0).timeout(
            attempt
        )
        first = build().timeout(attempt)
        # Deterministic: same seed, same stream name, same draw order.
        assert build().timeout(attempt) == first
        # Within the declared band around the un-jittered schedule.
        assert base * (1.0 - jitter) <= first <= base * (1.0 + jitter)

    @given(jitter=st.floats(min_value=0.01, max_value=0.99))
    def test_jitter_requires_rng(self, jitter):
        import pytest

        with pytest.raises(ValueError):
            ExponentialBackoff(0.05, jitter=jitter)
