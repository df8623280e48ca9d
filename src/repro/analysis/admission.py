"""System-level admission probability analysis (Appendix A.1 + extension).

The appendix analyzes systems ``<ED,1>`` and ``SP``: anycast traffic
from each source is split over the fixed routes according to the
selection weights, the reduced-load fixed point yields per-link
blocking, link independence yields per-route rejection (eq. 17), and
the network admission probability is the carried fraction (eq. 15):

    AP = sum_{s,r} rho_{s,r} (1 - L_{s,r}) / sum_{s,r} rho_{s,r}

The appendix notes the method "can be extended to other systems (under
certain approximation assumptions)".  We implement that extension for
every *static-weight* selection algorithm (ED, WD/D, SP) with any
retrial limit ``R``:

* a request draws destinations sequentially without replacement with
  probabilities proportional to the remaining static weights, stopping
  at the first unblocked route or after ``R`` tries;
* route rejections are treated as independent across routes (the same
  independence approximation the fixed point already makes);
* the load a source offers to a route is its request rate times the
  probability the route is *attempted*, which itself depends on the
  rejection probabilities — so an outer fixed point alternates between
  the trial model and the reduced-load solve until the rejection
  vector stabilizes.

For ``R = 1`` the extension collapses exactly to the appendix's model.
The history- and bandwidth-driven algorithms (WD/D+H, WD/D+B) have
state-dependent weights outside this framework and are evaluated by
simulation only, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence

from repro.analysis.erlang import erlang_b
from repro.analysis.fixedpoint import (
    BlockingFunction,
    FixedPointSolution,
    LinkKey,
    ReducedLoadSolver,
    RouteLoad,
)
from repro.core.selection import distance_weights
from repro.core.system import SystemSpec
from repro.flows.traffic import WorkloadSpec
from repro.network.routing import RouteTable
from repro.network.topology import Network

NodeId = Hashable

#: Static-weight algorithms the analysis supports.
ANALYZABLE_ALGORITHMS = ("ED", "WD/D", "SP")

#: Enumerating ordered trial sequences is O(K! / (K-R)!); cap K.
_MAX_GROUP_SIZE = 8


@dataclass(frozen=True)
class AnalysisResult:
    """Analytical performance of one system at one arrival rate.

    Attributes
    ----------
    admission_probability:
        Network-wide AP (eq. 15 / its retrial extension).
    mean_attempts:
        Expected destinations tried per request (the analytic
        counterpart of Figure 7's overhead metric).
    per_source_ap:
        AP seen by each source.
    link_blocking:
        Converged ``B_l`` per directed link.
    route_rejection:
        ``L_{s,r}`` per (source, member).
    fixed_point_iterations:
        Inner iterations of the final reduced-load solve.
    outer_iterations:
        Rounds of the load-redistribution outer loop (1 when R = 1).
    converged:
        Whether both loops met their tolerances.
    """

    admission_probability: float
    mean_attempts: float
    per_source_ap: dict[NodeId, float]
    link_blocking: dict[LinkKey, float]
    route_rejection: dict[tuple[NodeId, NodeId], float]
    fixed_point_iterations: int
    outer_iterations: int
    converged: bool


@dataclass(frozen=True)
class _TrialModel:
    """Sequential-trial statistics for one source under static weights.

    ``attempt_probability[i]``: probability member ``i`` is tried.
    ``admission_probability``: probability some try succeeds.
    ``mean_attempts``: expected number of tries.
    """

    attempt_probability: tuple[float, ...]
    admission_probability: float
    mean_attempts: float


def _static_weights(spec: SystemSpec, routes: RouteTable) -> list[float]:
    """Initial selection weights of a static-weight algorithm."""
    size = len(routes.members)
    if spec.algorithm == "ED":
        return [1.0 / size] * size
    if spec.algorithm == "WD/D":
        return distance_weights([float(d) for d in routes.distances()])
    if spec.algorithm == "SP":
        shortest = routes.shortest_member()
        return [1.0 if member == shortest else 0.0 for member in routes.members]
    raise ValueError(
        f"algorithm {spec.algorithm!r} does not have static weights; "
        f"analyzable algorithms: {ANALYZABLE_ALGORITHMS}"
    )


def _sequential_trial_model(
    weights: Sequence[float], rejections: Sequence[float], max_attempts: int
) -> _TrialModel:
    """Enumerate the without-replacement trial process exactly.

    Walks the tree of ordered distinct-destination prefixes.  Each
    node carries the probability of reaching it with every earlier try
    blocked; branches whose selection weight is zero are skipped
    (they are never drawn).
    """
    size = len(weights)
    attempt_probability = [0.0] * size
    admitted = 0.0
    mean_attempts = 0.0

    def recurse(
        tried: tuple[int, ...], reach_probability: float, depth: int
    ) -> None:
        nonlocal admitted, mean_attempts
        if reach_probability <= 0.0:
            return
        remaining = [i for i in range(size) if i not in tried]
        total_weight = sum(weights[i] for i in remaining)
        if depth >= max_attempts or not remaining or total_weight <= 0.0:
            # Request gives up here with probability `reach_probability`.
            mean_attempts += reach_probability * depth
            return
        for i in remaining:
            if weights[i] <= 0.0:
                continue
            # Divide before multiplying: the share is always in [0, 1],
            # whereas reach * weight can underflow for subnormal weights
            # and the subsequent division then inflates the branch past
            # its parent's probability (or silently drops its mass).
            pick = reach_probability * (weights[i] / total_weight)
            attempt_probability[i] += pick
            success = pick * (1.0 - rejections[i])
            admitted += success
            mean_attempts += success * (depth + 1)
            recurse(tried + (i,), pick * rejections[i], depth + 1)

    recurse((), 1.0, 0)
    return _TrialModel(
        attempt_probability=tuple(attempt_probability),
        admission_probability=admitted,
        mean_attempts=mean_attempts,
    )


def build_route_loads(
    route_tables: Mapping[NodeId, RouteTable],
    per_source_intensity: Mapping[NodeId, float],
    attempt_probabilities: Mapping[NodeId, Sequence[float]],
) -> list[RouteLoad]:
    """Offered route loads given per-member attempt probabilities.

    ``rho_{s,r} = rho_s * P(route r attempted by a request from s)``;
    for a single-attempt system the attempt probabilities are just the
    selection weights, recovering the appendix's load split.
    """
    loads: list[RouteLoad] = []
    for source, table in route_tables.items():
        intensity = per_source_intensity[source]
        probabilities = attempt_probabilities[source]
        if len(probabilities) != len(table.members):
            raise ValueError(
                f"source {source!r}: {len(probabilities)} probabilities for "
                f"{len(table.members)} members"
            )
        for route, probability in zip(table.routes(), probabilities):
            links = tuple(zip(route.path, route.path[1:]))
            loads.append(RouteLoad(links=links, load_erlangs=intensity * probability))
    return loads


def analyze_system(
    network: Network,
    workload: WorkloadSpec,
    spec: SystemSpec,
    blocking_function: BlockingFunction = erlang_b,
    outer_tolerance: float = 1e-9,
    max_outer_iterations: int = 200,
    damping: float = 0.5,
) -> AnalysisResult:
    """Analytical admission probability of ``spec`` under ``workload``.

    Parameters
    ----------
    network:
        The (unloaded) network; only capacities and topology are read.
    workload:
        Arrival rate, sources, group, lifetime and per-flow bandwidth.
    spec:
        The system; must use a static-weight algorithm
        (:data:`ANALYZABLE_ALGORITHMS`).
    blocking_function:
        Link blocking ``L(v, C)``: exact Erlang-B (default) or the
        paper's :func:`repro.analysis.erlang.uaa_blocking`.
    outer_tolerance:
        Max-norm threshold on the route-rejection vector across outer
        rounds.
    max_outer_iterations:
        Cap on outer rounds (1 suffices when ``R = 1``).
    damping:
        Damping of the inner reduced-load iteration.

    Raises
    ------
    NotImplementedError
        For WD/D+H, WD/D+B or GDI, whose dynamics are outside the
        static-weight framework (evaluate those by simulation).
    """
    if spec.algorithm not in ANALYZABLE_ALGORITHMS:
        raise NotImplementedError(
            f"analysis covers static-weight systems {ANALYZABLE_ALGORITHMS}; "
            f"{spec.algorithm!r} must be evaluated by simulation"
        )
    group = workload.group
    if group.size > _MAX_GROUP_SIZE:
        raise ValueError(
            f"trial-sequence enumeration supports groups of at most "
            f"{_MAX_GROUP_SIZE} members, got {group.size}"
        )

    route_tables = {
        source: RouteTable(network, source, group.members)
        for source in workload.sources
    }
    per_source_intensity = {
        source: workload.per_source_rate * workload.mean_lifetime_s
        for source in workload.sources
    }
    weights = {
        source: _static_weights(spec, table)
        for source, table in route_tables.items()
    }
    capacities = {
        (link.source, link.target): int(link.capacity_bps // workload.bandwidth_bps)
        for link in network.links()
    }

    # Outer loop: trial model <-> reduced-load fixed point.
    rejections = {
        source: [0.0] * group.size for source in workload.sources
    }
    solution: Optional[FixedPointSolution] = None
    trial_models: dict[NodeId, _TrialModel] = {}
    outer_iterations = 0
    outer_converged = False
    for outer_iterations in range(1, max_outer_iterations + 1):
        trial_models = {
            source: _sequential_trial_model(
                weights[source], rejections[source], spec.effective_retrials
            )
            for source in workload.sources
        }
        attempt_probabilities = {
            source: model.attempt_probability
            for source, model in trial_models.items()
        }
        loads = build_route_loads(
            route_tables, per_source_intensity, attempt_probabilities
        )
        solver = ReducedLoadSolver(
            capacities,
            loads,
            blocking_function=blocking_function,
            damping=damping,
        )
        solution = solver.solve()
        new_rejections: dict[NodeId, list[float]] = {}
        delta = 0.0
        for source, table in route_tables.items():
            per_member: list[float] = []
            for route in table.routes():
                links = tuple(zip(route.path, route.path[1:]))
                per_member.append(solution.route_rejection(links))
            delta = max(
                delta,
                max(
                    abs(new - old)
                    for new, old in zip(per_member, rejections[source])
                ),
            )
            new_rejections[source] = per_member
        rejections = new_rejections
        if delta < outer_tolerance:
            outer_converged = True
            break

    # Final evaluation with the converged rejection vector.
    trial_models = {
        source: _sequential_trial_model(
            weights[source], rejections[source], spec.effective_retrials
        )
        for source in workload.sources
    }
    total_rate = 0.0
    admitted_rate = 0.0
    attempts_rate = 0.0
    per_source_ap: dict[NodeId, float] = {}
    route_rejection: dict[tuple[NodeId, NodeId], float] = {}
    for source in workload.sources:
        model = trial_models[source]
        rate = workload.per_source_rate
        per_source_ap[source] = model.admission_probability
        total_rate += rate
        admitted_rate += rate * model.admission_probability
        attempts_rate += rate * model.mean_attempts
        for member, rejection in zip(group.members, rejections[source]):
            route_rejection[(source, member)] = rejection
    assert solution is not None
    return AnalysisResult(
        admission_probability=admitted_rate / total_rate,
        mean_attempts=attempts_rate / total_rate,
        per_source_ap=per_source_ap,
        link_blocking=dict(solution.link_blocking),
        route_rejection=route_rejection,
        fixed_point_iterations=solution.iterations,
        outer_iterations=outer_iterations,
        converged=outer_converged and solution.converged,
    )
