"""Unit tests for the reduced-load fixed point (repro.analysis.fixedpoint)."""

import math
import warnings

import pytest

from repro.analysis.erlang import erlang_b, uaa_blocking
from repro.analysis.fixedpoint import FixedPointSolution, ReducedLoadSolver, RouteLoad
from repro.network.routing import RouteTable
from repro.network.topologies import (
    FLOW_BANDWIDTH_BPS,
    MCI_GROUP_MEMBERS,
    MCI_SOURCES,
    mci_backbone,
)


class TestRouteLoad:
    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            RouteLoad(links=(("a", "b"),), load_erlangs=-1.0)

    def test_repeated_link_rejected(self):
        with pytest.raises(ValueError):
            RouteLoad(links=(("a", "b"), ("a", "b")), load_erlangs=1.0)

    def test_empty_route_allowed(self):
        route = RouteLoad(links=(), load_erlangs=2.0)
        assert route.links == ()


class TestSingleLink:
    def test_reduces_to_erlang_b(self):
        # One route over one link: fixed point is plain Erlang-B.
        solver = ReducedLoadSolver(
            capacities={"l": 10},
            routes=[RouteLoad(links=("l",), load_erlangs=8.0)],
        )
        solution = solver.solve()
        assert solution.converged
        assert solution.link_blocking["l"] == pytest.approx(erlang_b(8.0, 10))

    def test_superposition_of_routes(self):
        # Two routes sharing a link add their loads.
        solver = ReducedLoadSolver(
            capacities={"l": 10},
            routes=[
                RouteLoad(links=("l",), load_erlangs=3.0),
                RouteLoad(links=("l",), load_erlangs=5.0),
            ],
        )
        solution = solver.solve()
        assert solution.link_blocking["l"] == pytest.approx(erlang_b(8.0, 10))

    def test_unloaded_link_never_blocks(self):
        solver = ReducedLoadSolver(
            capacities={"used": 5, "idle": 5},
            routes=[RouteLoad(links=("used",), load_erlangs=4.0)],
        )
        solution = solver.solve()
        assert solution.link_blocking["idle"] == 0.0


class TestTwoHopThinning:
    def test_thinning_reduces_downstream_load(self):
        # A two-link route: each link sees load thinned by the other.
        solver = ReducedLoadSolver(
            capacities={"a": 5, "b": 5},
            routes=[RouteLoad(links=("a", "b"), load_erlangs=6.0)],
        )
        solution = solver.solve()
        assert solution.converged
        blocking = solution.link_blocking
        # Symmetric system: both links identical.
        assert blocking["a"] == pytest.approx(blocking["b"])
        # Thinned load must be below the raw offered load.
        assert solution.link_load["a"] < 6.0
        # And blocking below single-link Erlang-B at the raw load.
        assert blocking["a"] < erlang_b(6.0, 5)

    def test_fixed_point_self_consistency(self):
        solver = ReducedLoadSolver(
            capacities={"a": 8, "b": 4},
            routes=[
                RouteLoad(links=("a", "b"), load_erlangs=5.0),
                RouteLoad(links=("a",), load_erlangs=2.0),
            ],
        )
        solution = solver.solve()
        assert solution.converged
        # Verify B_l == L(v_l, C_l) at the returned point.
        for link, capacity in (("a", 8), ("b", 4)):
            assert solution.link_blocking[link] == pytest.approx(
                erlang_b(solution.link_load[link], capacity), abs=1e-8
            )


class TestRouteRejection:
    def test_independence_formula(self):
        solution = FixedPointSolution(
            link_blocking={"a": 0.1, "b": 0.2},
            link_load={"a": 0.0, "b": 0.0},
            iterations=1,
            converged=True,
        )
        assert solution.route_rejection(("a", "b")) == pytest.approx(
            1 - 0.9 * 0.8
        )

    def test_empty_route_never_rejected(self):
        solution = FixedPointSolution(
            link_blocking={}, link_load={}, iterations=1, converged=True
        )
        assert solution.route_rejection(()) == 0.0


class TestValidation:
    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError):
            ReducedLoadSolver(
                capacities={"a": 5},
                routes=[RouteLoad(links=("a", "ghost"), load_erlangs=1.0)],
            )

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReducedLoadSolver(capacities={"a": -1}, routes=[])

    def test_bad_damping_rejected(self):
        with pytest.raises(ValueError):
            ReducedLoadSolver(capacities={}, routes=[], damping=0.0)
        with pytest.raises(ValueError):
            ReducedLoadSolver(capacities={}, routes=[], damping=1.5)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            ReducedLoadSolver(capacities={}, routes=[], tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-10])
    def test_non_finite_or_negative_tolerance_rejected(self, tolerance):
        # No delta is ever below a NaN tolerance: the solve would run
        # to max_iterations and only then warn.
        with pytest.raises(ValueError, match="tolerance"):
            ReducedLoadSolver(capacities={"a": 5}, routes=[], tolerance=tolerance)

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_max_iterations_below_one_rejected(self, max_iterations):
        # Zero iterations would return the starting guess, marked as
        # not converged.
        with pytest.raises(ValueError, match="max_iterations"):
            ReducedLoadSolver(
                capacities={"a": 5}, routes=[], max_iterations=max_iterations
            )

    def test_bad_initial_blocking_rejected(self):
        solver = ReducedLoadSolver(capacities={"a": 5}, routes=[])
        with pytest.raises(ValueError):
            solver.solve(initial_blocking=1.0)


class TestRobustness:
    def test_damping_values_agree_on_fixed_point(self):
        routes = [
            RouteLoad(links=("a", "b"), load_erlangs=9.0),
            RouteLoad(links=("b", "c"), load_erlangs=7.0),
        ]
        capacities = {"a": 8, "b": 8, "c": 8}
        strong = ReducedLoadSolver(capacities, routes, damping=0.3).solve()
        mild = ReducedLoadSolver(capacities, routes, damping=0.7).solve()
        for link in capacities:
            assert strong.link_blocking[link] == pytest.approx(
                mild.link_blocking[link], abs=1e-7
            )

    def test_uaa_blocking_function_plugs_in(self):
        routes = [RouteLoad(links=("a",), load_erlangs=250.0)]
        exact = ReducedLoadSolver({"a": 312}, routes).solve()
        approx = ReducedLoadSolver(
            {"a": 312}, routes, blocking_function=uaa_blocking
        ).solve()
        assert approx.link_blocking["a"] == pytest.approx(
            exact.link_blocking["a"], rel=0.01
        )

    def test_overloaded_network_converges(self):
        routes = [RouteLoad(links=("a", "b", "c"), load_erlangs=500.0)]
        solution = ReducedLoadSolver({"a": 50, "b": 50, "c": 50}, routes).solve()
        assert solution.converged
        for value in solution.link_blocking.values():
            assert 0.0 <= value <= 1.0

    def test_mci_route_set_converges_at_heavy_load(self):
        # Every source-to-member route of the paper's backbone at 200
        # Erlangs each, far past the 312-trunk links' capacity.
        network = mci_backbone()
        capacities = {
            (link.source, link.target): int(link.capacity_bps // FLOW_BANDWIDTH_BPS)
            for link in network.links()
        }
        routes = [
            RouteLoad(links=tuple(zip(route.path, route.path[1:])), load_erlangs=200.0)
            for source in MCI_SOURCES
            for route in RouteTable(network, source, MCI_GROUP_MEMBERS).routes()
        ]
        solution = ReducedLoadSolver(capacities, routes).solve()
        assert solution.converged
        assert max(solution.link_blocking.values()) > 0.5


def _oscillating_solver(**overrides):
    """A heavily loaded multi-hop instance that 2-cycles undamped.

    Plain successive substitution (damping=1.0) alternates between a
    high- and a low-blocking iterate — the classic Erlang fixed-point
    oscillation — so it exhausts ``max_iterations`` without meeting
    the tolerance.
    """
    options = dict(damping=1.0, max_iterations=200)
    options.update(overrides)
    return ReducedLoadSolver(
        capacities={"a": 50, "b": 50, "c": 50},
        routes=[RouteLoad(links=("a", "b", "c"), load_erlangs=500.0)],
        **options,
    )


class TestConvergenceReporting:
    def test_oscillating_instance_warns(self):
        solver = _oscillating_solver()
        with pytest.warns(RuntimeWarning, match="did not converge"):
            solution = solver.solve()
        assert not solution.converged
        assert solution.iterations == solver.max_iterations
        # The last iterate is still a sane probability vector.
        for value in solution.link_blocking.values():
            assert 0.0 <= value <= 1.0

    def test_damping_rescues_oscillating_instance(self):
        solver = _oscillating_solver(damping=0.5, max_iterations=10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solution = solver.solve()
        assert solution.converged
        assert solution.iterations < solver.max_iterations
