"""Block-drawn variates equal scalar draws (hypothesis).

A :class:`RandomStream` serves its variates from blocks drawn in one
numpy call.  Its contract is that the blocking is invisible: a stream
yields exactly the values a plain ``numpy.random.Generator`` on the
same seed returns from one scalar call per variate, through any
interleaving of variate kinds and across block boundaries.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random_streams import _BLOCK_SIZE, RandomStream

ITEMS = tuple("abcdefghij")

#: Run lengths: a few calls, or enough to cross at least one block edge.
run_lengths = st.one_of(
    st.integers(1, 4), st.integers(_BLOCK_SIZE - 2, 2 * _BLOCK_SIZE + 2)
)
positive = st.floats(1e-3, 1e3)

calls = st.one_of(
    st.tuples(st.just("exponential"), positive),
    st.tuples(st.just("uniform"), st.floats(-1e3, 1e3), positive),
    st.tuples(st.just("integer"), st.integers(-5, 5), st.integers(0, 9)),
    st.tuples(st.just("choice"), st.integers(1, len(ITEMS))),
    st.tuples(
        st.just("weighted_choice"),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=len(ITEMS)).filter(
            lambda weights: sum(weights) > 0
        ),
    ),
)


def stream_call(stream, call):
    kind = call[0]
    if kind == "exponential":
        return stream.exponential(call[1])
    if kind == "uniform":
        return stream.uniform(call[1], call[1] + call[2])
    if kind == "integer":
        return stream.integer(call[1], call[1] + call[2])
    if kind == "choice":
        return stream.choice(ITEMS[: call[1]])
    weights = call[1]
    return stream.weighted_choice(ITEMS[: len(weights)], weights)


def scalar_call(generator, call):
    """The same variate from one scalar numpy call."""
    kind = call[0]
    if kind == "exponential":
        return float(generator.exponential(call[1]))
    if kind == "uniform":
        return float(generator.uniform(call[1], call[1] + call[2]))
    if kind == "integer":
        return int(generator.integers(call[1], call[1] + call[2] + 1))
    if kind == "choice":
        return ITEMS[int(generator.integers(0, call[1]))]
    weights = call[1]
    point = generator.uniform(0.0, sum(weights))
    acc = 0.0
    for item, weight in zip(ITEMS, weights):
        acc += weight
        if point < acc:
            return item
    return ITEMS[len(weights) - 1]


def bits(value):
    """``value`` with floats compared bit for bit."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    runs=st.lists(st.tuples(calls, run_lengths), min_size=1, max_size=5),
)
def test_block_draws_equal_scalar_draws(seed, runs):
    stream = RandomStream(np.random.SeedSequence(seed))
    generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    made = 0
    for call, length in runs:
        for _ in range(length):
            got = stream_call(stream, call)
            want = scalar_call(generator, call)
            assert type(got) is type(want)
            assert bits(got) == bits(want)
        made += length
        assert stream.draws == made
    # A final scalar draw checks that both generators end in the same state.
    last = ("integer", 0, 2**62)
    assert stream_call(stream, last) == scalar_call(generator, last)
