"""Block-drawn variates equal scalar draws (hypothesis).

A :class:`RandomStream` serves its variates from blocks drawn in one
numpy call.  Its contract is that the blocking is invisible: a stream
yields exactly the values a plain ``numpy.random.Generator`` on the
same seed returns from one scalar call per variate, through any
interleaving of variate kinds and across block boundaries.  Passing
over variates leaves the stream exactly where serving them would,
without counting them as draws.
"""

import struct

import numpy as np
from hypothesis import example, given, settings
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


def block_state(stream):
    """Everything that decides the variates a stream serves next."""
    return (
        stream._kind,
        stream._pos,
        stream._block,
        stream._generator.bit_generator.state,
    )


def draw_prefix(runs, *targets):
    """Make the same calls on a stream, its twin and a scalar generator."""
    stream, twin, generator = targets
    for call, length in runs:
        for _ in range(length):
            got = stream_call(stream, call)
            assert bits(stream_call(twin, call)) == bits(got)
            assert bits(scalar_call(generator, call)) == bits(got)


def fresh(seed):
    """A stream, a twin that serves every variate, and a scalar generator."""
    return (
        RandomStream(np.random.SeedSequence(seed)),
        RandomStream(np.random.SeedSequence(seed)),
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))),
    )


#: Prefixes that leave the stream mid-block, at a block edge, or in a
#: block of another kind (so the pass must rewind first).
prefixes = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("uniform"), st.just(0.0), st.just(1.0)),
            st.tuples(st.just("exponential"), positive),
            st.tuples(st.just("choice"), st.integers(1, len(ITEMS))),
        ),
        st.one_of(st.integers(1, 4), st.integers(_BLOCK_SIZE - 6, _BLOCK_SIZE)),
    ),
    max_size=3,
)
#: Short passes, passes across one block edge, and passes over whole blocks.
pass_counts = st.one_of(
    st.integers(0, 8),
    st.integers(_BLOCK_SIZE - 8, _BLOCK_SIZE + 8),
    st.integers(2 * _BLOCK_SIZE, 3 * _BLOCK_SIZE + 5),
)
UNIFORM = ("uniform", 0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), runs=prefixes, count=pass_counts)
@example(seed=1, runs=[(UNIFORM, _BLOCK_SIZE - 3)], count=7)
@example(seed=2, runs=[(("exponential", 1.0), 5)], count=_BLOCK_SIZE + 1)
@example(seed=3, runs=[(("choice", 4), _BLOCK_SIZE - 1)], count=2)
def test_pass_over_equals_scalar_uniforms(seed, runs, count):
    stream, twin, generator = fresh(seed)
    draw_prefix(runs, stream, twin, generator)
    served = stream.draws
    stream.pass_over(count)
    for _ in range(count):
        assert bits(twin.uniform()) == bits(scalar_call(generator, UNIFORM))
    # Passed-over variates are not draws: perfbench's traced run matches
    # ``draws`` against the rng calls it sees.
    assert stream.draws == served
    assert block_state(stream) == block_state(twin)
    got = stream.uniform()
    assert bits(got) == bits(twin.uniform()) == bits(scalar_call(generator, UNIFORM))
    last = ("integer", 0, 2**62)
    assert stream_call(stream, last) == scalar_call(generator, last)


#: Thresholds with short gaps, and ones whose gaps usually outrun a block.
thresholds = st.one_of(st.floats(0.02, 1.5), st.floats(1e-4, 5e-4))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), runs=prefixes, threshold=thresholds)
@example(seed=4, runs=[(UNIFORM, _BLOCK_SIZE - 2)], threshold=0.2)
@example(seed=5, runs=[(("exponential", 2.0), 3)], threshold=2e-4)
@example(seed=6, runs=[(("choice", 7), 9)], threshold=0.05)
def test_pass_over_at_least_stops_at_the_next_variate_below(seed, runs, threshold):
    stream, twin, generator = fresh(seed)
    draw_prefix(runs, stream, twin, generator)
    served = stream.draws
    passed = stream.pass_over_at_least(threshold)
    gap = 0
    while True:
        variate = twin.uniform()
        assert bits(variate) == bits(scalar_call(generator, UNIFORM))
        if variate < threshold:
            break
        gap += 1
    assert passed == gap
    assert stream.draws == served
    got = stream.uniform()
    assert bits(got) == bits(variate) and got < threshold
    assert stream.draws == served + 1
    assert block_state(stream) == block_state(twin)
    last = ("integer", 0, 2**62)
    assert stream_call(stream, last) == scalar_call(generator, last)
