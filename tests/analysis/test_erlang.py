"""Unit tests for Erlang-B and the UAA (repro.analysis.erlang)."""

import math

import pytest

from repro.analysis.erlang import erlang_b, uaa_blocking


def full_recursion(load, capacity):
    """Erlang-B by the plain recursion, run to the last slot."""
    blocking = 1.0
    for c in range(1, capacity + 1):
        blocking = load * blocking / (c + load * blocking)
    return blocking


class TestErlangB:
    def test_zero_load_never_blocks(self):
        assert erlang_b(0.0, 10) == 0.0

    def test_zero_capacity_always_blocks(self):
        assert erlang_b(5.0, 0) == 1.0
        assert erlang_b(0.0, 0) == 1.0

    def test_single_server_closed_form(self):
        # B(v, 1) = v / (1 + v).
        for load in (0.1, 1.0, 5.0):
            assert erlang_b(load, 1) == pytest.approx(load / (1 + load))

    def test_two_servers_closed_form(self):
        # B(v, 2) = v^2 / (2 + 2v + v^2).
        load = 3.0
        expected = load**2 / (2 + 2 * load + load**2)
        assert erlang_b(load, 2) == pytest.approx(expected)

    def test_direct_formula_small_case(self):
        # Compare against the direct sum for v=4, C=6.
        load, capacity = 4.0, 6
        numerator = load**capacity / math.factorial(capacity)
        denominator = sum(load**k / math.factorial(k) for k in range(capacity + 1))
        assert erlang_b(load, capacity) == pytest.approx(numerator / denominator)

    def test_monotonic_in_load(self):
        values = [erlang_b(v, 50) for v in (10.0, 30.0, 50.0, 70.0)]
        assert values == sorted(values)

    def test_monotonic_in_capacity(self):
        values = [erlang_b(40.0, c) for c in (10, 30, 50, 70)]
        assert values == sorted(values, reverse=True)

    def test_bounded_in_unit_interval(self):
        for load in (0.0, 1.0, 100.0, 10_000.0):
            for capacity in (1, 10, 312):
                assert 0.0 <= erlang_b(load, capacity) <= 1.0

    def test_heavy_traffic_limit(self):
        # As v -> inf, B -> 1 - C/v.
        assert erlang_b(1e6, 100) == pytest.approx(1 - 100 / 1e6, abs=1e-6)

    def test_stable_for_huge_capacity(self):
        value = erlang_b(90_000.0, 100_000)
        assert 0.0 <= value < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_b(-1.0, 10)
        with pytest.raises(ValueError):
            erlang_b(1.0, -1)

    @pytest.mark.parametrize("capacity", [1, 7, 50, 312, 2_000, 20_000])
    @pytest.mark.parametrize("load", [1e-300, 1e-3, 0.5, 3.0, 40.0, 312.0, 5e3])
    def test_early_exit_matches_full_recursion(self, load, capacity):
        # The grid includes loads whose recursion underflows to 0.0 long
        # before the last slot (e.g. 1e-300 erlangs, or 3 on 2000 slots).
        assert erlang_b(load, capacity) == full_recursion(load, capacity)


class TestUaaBlocking:
    @pytest.mark.parametrize(
        "capacity,load",
        [
            (312, 100.0),
            (312, 250.0),
            (312, 350.0),
            (312, 500.0),
            (100, 50.0),
            (100, 130.0),
            (50, 40.0),
        ],
    )
    def test_close_to_exact_erlang_b(self, capacity, load):
        exact = erlang_b(load, capacity)
        approx = uaa_blocking(load, capacity)
        assert approx == pytest.approx(exact, rel=0.01, abs=1e-12)

    def test_critical_window_delegates_to_exact(self):
        capacity = 312
        load = float(capacity)  # z* == 1
        assert uaa_blocking(load, capacity) == erlang_b(load, capacity)

    def test_extreme_overload_delegates_to_exact(self):
        # Regression: at load/capacity ~ 7.3, F(z*) ~ -740 puts exp(F)
        # in the subnormal range where the M cancellation loses all
        # precision and the approximation clamped to 1.0 instead of
        # tracking the heavy-traffic limit 1 - C/v.
        assert uaa_blocking(1252.0, 171) == erlang_b(1252.0, 171)
        exact = erlang_b(1300.0, 150)
        assert uaa_blocking(1300.0, 150) == pytest.approx(exact, rel=1e-9)

    def test_zero_load(self):
        assert uaa_blocking(0.0, 312) == 0.0

    def test_bounded(self):
        for load in (1.0, 300.0, 3000.0):
            assert 0.0 <= uaa_blocking(load, 312) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            uaa_blocking(-1.0, 10)
        with pytest.raises(ValueError):
            uaa_blocking(1.0, 0)

