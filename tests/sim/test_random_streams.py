"""Unit tests for named random streams (repro.sim.random_streams)."""

import pytest

from repro.sim.random_streams import StreamFactory

NAN = float("nan")
INF = float("inf")


class TestDeterminism:
    def test_same_seed_same_name_same_sequence(self):
        a = StreamFactory(7).stream("arrivals")
        b = StreamFactory(7).stream("arrivals")
        assert [a.exponential(1.0) for _ in range(10)] == [
            b.exponential(1.0) for _ in range(10)
        ]

    def test_different_names_are_independent(self):
        factory = StreamFactory(7)
        a = factory.stream("arrivals")
        b = factory.stream("lifetimes")
        seq_a = [a.uniform() for _ in range(10)]
        seq_b = [b.uniform() for _ in range(10)]
        assert seq_a != seq_b

    def test_different_seeds_differ(self):
        a = StreamFactory(1).stream("x")
        b = StreamFactory(2).stream("x")
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_stream_is_cached_per_name(self):
        factory = StreamFactory(3)
        assert factory.stream("s") is factory.stream("s")

    def test_issued_names_in_order(self):
        factory = StreamFactory(0)
        factory.stream("b")
        factory.stream("a")
        assert factory.issued_names() == ["b", "a"]


class TestDistributions:
    def test_exponential_mean(self):
        stream = StreamFactory(11).stream("exp")
        samples = [stream.exponential(5.0) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.05)

    def test_exponential_requires_positive_mean(self):
        stream = StreamFactory(0).stream("exp")
        with pytest.raises(ValueError):
            stream.exponential(0.0)

    @pytest.mark.parametrize("mean", [NAN, INF])
    def test_exponential_rejects_non_finite_mean(self, mean):
        stream = StreamFactory(0).stream("exp")
        with pytest.raises(ValueError):
            stream.exponential(mean)

    def test_uniform_bounds(self):
        stream = StreamFactory(11).stream("uni")
        for _ in range(1000):
            value = stream.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_uniform_invalid_bounds(self):
        stream = StreamFactory(0).stream("uni")
        with pytest.raises(ValueError):
            stream.uniform(3.0, 2.0)

    @pytest.mark.parametrize(
        "low, high",
        [(NAN, 1.0), (0.0, NAN), (0.0, INF), (-INF, 0.0), (INF, INF), (-1e308, 1e308)],
    )
    def test_uniform_rejects_non_finite_range(self, low, high):
        stream = StreamFactory(0).stream("uni")
        with pytest.raises(ValueError):
            stream.uniform(low, high)

    def test_integer_inclusive_bounds(self):
        stream = StreamFactory(11).stream("int")
        values = {stream.integer(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_choice_uniformity(self):
        stream = StreamFactory(11).stream("choice")
        counts = {"a": 0, "b": 0}
        for _ in range(4000):
            counts[stream.choice(["a", "b"])] += 1
        assert counts["a"] == pytest.approx(2000, rel=0.1)

    def test_choice_empty_rejected(self):
        stream = StreamFactory(0).stream("choice")
        with pytest.raises(ValueError):
            stream.choice([])

    def test_draw_counter(self):
        stream = StreamFactory(11).stream("count")
        stream.uniform()
        stream.exponential(1.0)
        assert stream.draws == 2


class TestWeightedChoice:
    def test_respects_weights(self):
        stream = StreamFactory(11).stream("wc")
        counts = {"heavy": 0, "light": 0}
        for _ in range(9000):
            counts[stream.weighted_choice(["heavy", "light"], [0.9, 0.1])] += 1
        assert counts["heavy"] / 9000 == pytest.approx(0.9, abs=0.02)

    def test_zero_weight_never_selected(self):
        stream = StreamFactory(11).stream("wc0")
        for _ in range(500):
            assert stream.weighted_choice(["a", "b"], [1.0, 0.0]) == "a"

    def test_unnormalized_weights_accepted(self):
        stream = StreamFactory(11).stream("wcn")
        counts = {"x": 0, "y": 0}
        for _ in range(6000):
            counts[stream.weighted_choice(["x", "y"], [30.0, 10.0])] += 1
        assert counts["x"] / 6000 == pytest.approx(0.75, abs=0.03)

    def test_mismatched_lengths_rejected(self):
        stream = StreamFactory(0).stream("wc")
        with pytest.raises(ValueError):
            stream.weighted_choice(["a"], [0.5, 0.5])

    def test_negative_weight_rejected(self):
        stream = StreamFactory(0).stream("wc")
        with pytest.raises(ValueError):
            stream.weighted_choice(["a", "b"], [0.5, -0.5])

    def test_all_zero_weights_rejected(self):
        stream = StreamFactory(0).stream("wc")
        with pytest.raises(ValueError):
            stream.weighted_choice(["a", "b"], [0.0, 0.0])

    @pytest.mark.parametrize(
        "weights", [[0.5, NAN], [INF, 0.5], [1.5e308, 1.5e308]]
    )
    def test_non_finite_weights_rejected(self, weights):
        stream = StreamFactory(0).stream("wc")
        with pytest.raises(ValueError):
            stream.weighted_choice(["a", "b"], weights)
