"""Reduced-load fixed point over link blocking probabilities.

Implements Appendix A.2 of the paper.  Under the link-independence
assumption, the offered load on link ``l`` is "thinned" by the
blocking of every other link on each route through it (eq. 18):

    v_l = sum_{routes r containing l} rho_r * prod_{m in r, m != l} (1 - B_m)

and the blocking of link ``l`` follows from the blocking function
(eq. 19): ``B_l = L(v_l, C_l)``.  Equations 21-22 iterate the pair
until convergence; this module adds optional damping (a convex
combination of successive iterates), which guarantees progress on the
rare oscillating instances without changing the fixed point.

Route-level rejection then follows from eq. 17:

    L_r = 1 - prod_{l in r} (1 - B_l)

Each :meth:`ReducedLoadSolver.solve` evaluates one offered load.
:func:`repro.analysis.admission.analyze_system`, which Tables 1-2 and
the capacity planner call, builds one solver per load point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from repro.analysis.erlang import erlang_b

LinkKey = Hashable
#: signature of the link blocking function L(load_erlangs, capacity)
BlockingFunction = Callable[[float, int], float]


@dataclass(frozen=True)
class RouteLoad:
    """One route and its offered traffic intensity.

    Attributes
    ----------
    links:
        The directed links the route traverses (any hashable keys,
        typically ``(u, v)`` node pairs).  May be empty for a
        zero-hop route, which is never blocked.
    load_erlangs:
        Offered intensity ``rho_r = lambda_r / mu`` on this route.
    """

    links: tuple[LinkKey, ...]
    load_erlangs: float

    def __post_init__(self) -> None:
        if self.load_erlangs < 0:
            raise ValueError(
                f"route load must be non-negative, got {self.load_erlangs}"
            )
        if len(set(self.links)) != len(self.links):
            raise ValueError(f"route visits a link twice: {self.links}")


@dataclass(frozen=True)
class FixedPointSolution:
    """Solution of the reduced-load fixed point.

    Attributes
    ----------
    link_blocking:
        ``B_l`` per link key.
    link_load:
        The converged thinned loads ``v_l``.
    iterations:
        Iterations executed.
    converged:
        Whether the max-norm change fell below the tolerance.
    """

    link_blocking: dict[LinkKey, float]
    link_load: dict[LinkKey, float]
    iterations: int
    converged: bool

    def route_rejection(self, links: Sequence[LinkKey]) -> float:
        """Rejection probability of a route over ``links`` (eq. 17)."""
        passing = 1.0
        for link in links:
            passing *= 1.0 - self.link_blocking[link]
        return 1.0 - passing


class ReducedLoadSolver:
    """Solves the Erlang fixed point for a set of loaded routes.

    Parameters
    ----------
    capacities:
        Trunk capacity ``C_l`` per link key.  Every link referenced by
        a route must appear here.
    routes:
        The offered routes with their intensities.
    blocking_function:
        ``L(v, C)``; defaults to exact Erlang-B.  Pass
        :func:`repro.analysis.erlang.uaa_blocking` to reproduce the
        paper's computational pathway (the ablation bench compares
        both; results differ by well under one percent).
    damping:
        Weight of the new iterate in the update, in (0, 1].  Plain
        successive substitution (1.0) is what the paper describes, but
        it 2-cycles on heavily loaded instances (a well-known property
        of the Erlang fixed point); the default 0.5 converges on every
        instance in the evaluation without changing the fixed point.
    tolerance:
        Max-norm convergence threshold on blocking probabilities;
        finite and positive.
    max_iterations:
        Iteration cap, at least 1.
    """

    def __init__(
        self,
        capacities: Mapping[LinkKey, int],
        routes: Sequence[RouteLoad],
        blocking_function: BlockingFunction = erlang_b,
        damping: float = 0.5,
        tolerance: float = 1e-10,
        max_iterations: int = 10_000,
    ) -> None:
        if not 0 < damping <= 1:
            raise ValueError(f"damping must be in (0, 1], got {damping}")
        if not 0 < tolerance < math.inf:  # NaN fails the comparison
            raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
        if not max_iterations >= 1:
            raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
        for route in routes:
            for link in route.links:
                if link not in capacities:
                    raise KeyError(f"route references unknown link {link!r}")
        for link, capacity in capacities.items():
            if capacity < 0:
                raise ValueError(f"link {link!r} has negative capacity {capacity}")
        self.capacities = dict(capacities)
        self.routes = list(routes)
        self.blocking_function = blocking_function
        self.damping = damping
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        # Pre-index which routes traverse each link.
        self._routes_by_link: dict[LinkKey, list[RouteLoad]] = {
            link: [] for link in self.capacities
        }
        for route in self.routes:
            for link in route.links:
                self._routes_by_link[link].append(route)

    def _thinned_loads(
        self, blocking: Mapping[LinkKey, float]
    ) -> dict[LinkKey, float]:
        """Evaluate eq. 18 for every link given current blocking."""
        loads: dict[LinkKey, float] = {}
        for link, routes in self._routes_by_link.items():
            total = 0.0
            for route in routes:
                thinned = route.load_erlangs
                for other in route.links:
                    if other != link:
                        thinned *= 1.0 - blocking[other]
                total += thinned
            loads[link] = total
        return loads

    def solve(self, initial_blocking: float = 0.0) -> FixedPointSolution:
        """Iterate eqs. 21-22 to convergence.

        Parameters
        ----------
        initial_blocking:
            Starting value ``B_l^(0)`` for every link (the paper
            starts from the unthinned loads, equivalent to 0 here).
        """
        if not 0 <= initial_blocking < 1:
            raise ValueError(
                f"initial blocking must be in [0, 1), got {initial_blocking}"
            )
        blocking = {link: initial_blocking for link in self.capacities}
        loads = self._thinned_loads(blocking)
        iterations = 0
        converged = False
        for iterations in range(1, self.max_iterations + 1):
            new_blocking: dict[LinkKey, float] = {}
            for link, capacity in self.capacities.items():
                raw = self.blocking_function(loads[link], capacity)
                new_blocking[link] = (
                    self.damping * raw + (1.0 - self.damping) * blocking[link]
                )
            delta = max(
                abs(new_blocking[link] - blocking[link]) for link in blocking
            ) if blocking else 0.0
            blocking = new_blocking
            loads = self._thinned_loads(blocking)
            if delta < self.tolerance:
                converged = True
                break
        if not converged:
            warnings.warn(
                f"reduced-load fixed point did not converge within "
                f"{self.max_iterations} iterations (damping={self.damping}); "
                f"returning the last iterate",
                RuntimeWarning,
                stacklevel=2,
            )
        return FixedPointSolution(
            link_blocking=blocking,
            link_load=loads,
            iterations=iterations,
            converged=converged,
        )
