"""Destination selection algorithms (paper Section 4.3).

An AC-router keeps a weight ``W_i`` per member of the anycast group;
the weight is the probability that member ``i`` is picked as the
destination of the next flow (eq. 1: weights sum to one).  The paper
proposes one unbiased and two biased weight-assignment algorithms:

* :class:`EvenDistribution` (ED) -- ``W_i = 1/K`` (eq. 2), no status
  information at all.
* :class:`DistanceHistoryWeighted` (WD/D+H) -- seeds weights inversely
  proportional to route distance (eq. 4) and then, before every
  selection, decays the weights of destinations with recent
  consecutive failures by ``alpha ** h_i`` and redistributes the
  removed mass to the failure-free destinations (eqs. 8-10).
* :class:`DistanceBandwidthWeighted` (WD/D+B) -- ``W_i`` proportional
  to ``B_i / D_i`` where ``B_i`` is the route's bottleneck available
  bandwidth (eqs. 11-12); requires signalling support to learn ``B_i``.

Two further selectors support the evaluation:

* :class:`DistanceWeighted` (WD/D) -- the pure eq. 4 weights, an
  ablation isolating the distance term of WD/D+H.
* :class:`ShortestPathSelector` (SP baseline) -- deterministically the
  closest member.

Retrial interplay: within one request, destinations already tried and
refused are excluded and the remaining weights renormalized (the paper
caps ``R`` at the group size, implying sampling without replacement).
The ablation flag on the AC-router can disable exclusion.

A draw reads a cumulative table (:func:`cumulative_table`): the
candidates and the running sums of their weights.  ED and WD/D have
fixed weights, so they build one table per refused set and keep it;
WD/D+H and WD/D+H+B build one per draw from their live weights.
WD/D+B builds the same table in one pass over the link-state columns,
without the weight vector (see its docstring).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Hashable,
    Optional,
    Protocol,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.network.state import SnapshotBandwidthView

from repro.core.history import AdmissionHistory
from repro.flows.group import AnycastGroup
from repro.network.routing import RouteTable
from repro.network.topology import Network
from repro.sim.random_streams import RandomStream

NodeId = Hashable

#: A draw table: the candidate members and their cumulative weights.
Table = tuple[Sequence[NodeId], list[float]]

#: Minimum fraction of its seed weight a failure-free member retains in
#: WD/D+H, guarding against weights stranded at exactly zero (see the
#: class docstring).  Small enough to be invisible in the experiments.
_WEIGHT_FLOOR = 1e-6

#: Default history-decay parameter alpha of WD/D+H.  The paper's
#: evaluation does not publish its value; 0.5 halves a destination's
#: weight per consecutive failure, a middle ground between the two
#: extremes the paper discusses (alpha=0: maximal history impact,
#: alpha=1: none).
DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class SelectionContext:
    """Everything a selector may consult when assigning weights.

    Attributes
    ----------
    network:
        Live network (WD/D+B reads available bandwidths from it,
        standing in for the extended-RSVP feedback the paper assumes).
    routes:
        The AC-router's fixed routes to every group member.
    group:
        The anycast group (defines the member order of weight vectors).
    """

    network: Network
    routes: RouteTable
    group: AnycastGroup

    def __post_init__(self) -> None:
        if tuple(self.routes.members) != tuple(self.group.members):
            raise ValueError(
                "route table and group disagree on members: "
                f"{self.routes.members} vs {self.group.members}"
            )


def distance_weights(distances: Sequence[float]) -> list[float]:
    """Normalized inverse-distance weights (eq. 4).

    ``W_i = (1/D_i) / sum_j (1/D_j)``.  Zero-distance routes (source
    is itself a member) consume no link resources at all, so they are
    given all the weight: the engineering extension of the paper's
    formula documented in DESIGN.md.
    """
    if not distances:
        raise ValueError("need at least one distance")
    if any(distance < 0 for distance in distances):
        raise ValueError(f"distances must be non-negative: {distances}")
    # Subnormal distances overflow 1/d to inf; treat them as zero-hop.
    inverses = [
        (1.0 / distance if distance > 0 else math.inf) for distance in distances
    ]
    zero_indices = [i for i, inverse in enumerate(inverses) if math.isinf(inverse)]
    total = sum(inverses)
    if not zero_indices and math.isinf(total):
        # Finite inverses whose *sum* overflows: the distances are so
        # extreme that only the nearest members matter anyway.
        nearest = min(distances)
        zero_indices = [i for i, d in enumerate(distances) if d == nearest]
    if zero_indices:
        share = 1.0 / len(zero_indices)
        return [share if i in zero_indices else 0.0 for i in range(len(distances))]
    return [inverse / total for inverse in inverses]


def _renormalize(weights: Sequence[float]) -> list[float]:
    """Scale weights to sum to one; uniform fallback when all-zero."""
    total = sum(weights)
    if total <= 0:
        return [1.0 / len(weights)] * len(weights)
    return [weight / total for weight in weights]


def cumulative_table(
    members: Sequence[NodeId],
    weights: Sequence[float],
    exclude: AbstractSet[NodeId] = frozenset(),
) -> Table:
    """The draw table of ``weights`` over the members not in ``exclude``.

    Excluded members are dropped and the remaining weights renormalized
    (uniformly when they are all zero).  The cumulative sums are the
    left-to-right additions :meth:`RandomStream.weighted_choice` makes,
    so a selector's draw picks what ``weighted_choice`` would over the
    same candidates.  Weights must be non-negative with a positive,
    finite sum.
    """
    if len(members) != len(weights):
        raise ValueError(f"{len(members)} members but {len(weights)} weights")
    if exclude:
        candidates: list[NodeId] = []
        kept: list[float] = []
        for member, weight in zip(members, weights):
            if member not in exclude:
                candidates.append(member)
                kept.append(weight)
        if not candidates:
            raise ValueError("all group members excluded")
        members, weights = candidates, _renormalize(kept)
    # One pass that checks and sums: for a few members it is faster than
    # itertools.accumulate plus a min() check, and the live selectors
    # build a table on every draw.
    cumulative: list[float] = []
    total = 0.0
    for weight in weights:
        if not weight >= 0:
            raise ValueError(f"weights must be non-negative, got {weight}")
        total += weight
        cumulative.append(total)
    if not 0.0 < total < math.inf:
        raise ValueError(f"weights need a positive, finite sum: {list(weights)}")
    return members, cumulative


class DestinationSelector(Protocol):
    """Interface the AC-router drives.

    ``weights()`` returns the current probability vector in group
    member order; ``select()`` draws a destination; ``observe()``
    feeds back the outcome of the subsequent reservation attempt.
    ``context`` holds the routes the AC-router reserves along.
    """

    name: str
    context: SelectionContext

    def weights(self) -> list[float]:
        """Current weight vector ``W_1..W_K`` (sums to one)."""
        ...

    def select(
        self, rng: RandomStream, exclude: AbstractSet[NodeId] = frozenset()
    ) -> NodeId:
        """Draw a destination, renormalizing over non-excluded members.

        ``exclude`` is only read during the call; the AC-routers pass
        their live set of refused destinations.
        """
        ...

    def observe(self, member: NodeId, success: bool) -> None:
        """Report the reservation outcome for ``member``."""
        ...


class _WeightedSelectorBase:
    """Shared machinery: draw a member from the live weight vector."""

    name = "base"

    def __init__(self, context: SelectionContext) -> None:
        self.context = context
        self.group = context.group
        self._members = context.group.members

    def weights(self) -> list[float]:  # pragma: no cover - abstract
        raise NotImplementedError

    def observe(self, member: NodeId, success: bool) -> None:
        """Default: stateless selectors ignore outcomes."""

    def _table(self, exclude: AbstractSet[NodeId]) -> Table:
        """The draw table for this selection: built from live weights."""
        return cumulative_table(self._members, self.weights(), exclude)

    def select(
        self, rng: RandomStream, exclude: AbstractSet[NodeId] = frozenset()
    ) -> NodeId:
        # weighted_choice's variate and pick: the first running sum
        # above uniform(0, total), else the last candidate.
        candidates, cumulative = self._table(exclude)
        index = bisect_right(cumulative, rng.uniform(0.0, cumulative[-1]))
        if index == len(cumulative):
            return candidates[-1]  # guard against floating-point edge at total
        return candidates[index]


class _StaticWeightedSelector(_WeightedSelectorBase):
    """A selector whose weights never change: one table per refused set.

    The tables are built on first use; with ``K`` members there are at
    most ``2**K - 1`` of them.
    """

    def __init__(self, context: SelectionContext) -> None:
        super().__init__(context)
        self._tables: dict[frozenset[NodeId], Table] = {}

    def _table(self, exclude: AbstractSet[NodeId]) -> Table:
        key = frozenset(exclude)
        table = self._tables.get(key)
        if table is None:
            table = cumulative_table(self._members, self.weights(), key)
            self._tables[key] = table
        return table


class EvenDistribution(_StaticWeightedSelector):
    """ED: every member equally likely, ``W_i = 1/K`` (eq. 2)."""

    name = "ED"

    def weights(self) -> list[float]:
        size = self.group.size
        return [1.0 / size] * size


class DistanceWeighted(_StaticWeightedSelector):
    """WD/D: static inverse-distance weights (eq. 4).

    Not one of the paper's three headline algorithms; used as the
    ablation isolating the distance term of WD/D+H, and as the
    alpha=1 degenerate case of that algorithm.
    """

    name = "WD/D"

    def __init__(self, context: SelectionContext) -> None:
        super().__init__(context)
        self._weights = distance_weights(
            [float(d) for d in context.routes.distances()]
        )

    def weights(self) -> list[float]:
        return list(self._weights)


class DistanceHistoryWeighted(_WeightedSelectorBase):
    """WD/D+H: distance seed + local-admission-history decay (eqs. 4, 8-10).

    The stored weight vector starts at the eq. 4 inverse-distance
    assignment.  Before every selection the vector is updated:

    1. ``AW = sum_i W_i * (1 - alpha ** h_i)`` (eq. 8) — the weight
       mass stripped from recently-failing destinations;
    2. ``W'_i = W_i * alpha**h_i`` for failing members, and
       ``W_i + AW / M`` for the ``M`` failure-free members (eq. 9);
    3. renormalize (eq. 10).

    Edge cases the paper leaves implicit, resolved here:

    * ``M == 0`` (every destination currently failing): there is
      nowhere to redistribute ``AW``; the decayed weights are simply
      renormalized, preserving the *relative* discrimination.
    * all updated weights zero (possible when ``alpha == 0`` and
      ``M == 0``): fall back to the distance seed so selection remains
      well defined.
    * a stranded zero weight: with ``alpha == 0`` a single failure
      zeroes a member's stored weight, and eq. 9's redistribution adds
      mass back only while *other* members are failing — so a member
      could stay at exactly zero forever even after its history
      clears.  We restore a small floor (``_WEIGHT_FLOOR`` times the
      member's seed weight) to every failure-free member, keeping all
      destinations eventually reachable.

    Parameters
    ----------
    alpha:
        History-impact parameter in [0, 1]; 0 = maximal impact
        (a single failure removes the destination until it succeeds),
        1 = no impact (degenerates to WD/D).
    """

    name = "WD/D+H"

    def __init__(
        self, context: SelectionContext, alpha: float = DEFAULT_ALPHA
    ) -> None:
        super().__init__(context)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.history = AdmissionHistory(context.group)
        self._seed_weights = distance_weights(
            [float(d) for d in context.routes.distances()]
        )
        self._floors = [_WEIGHT_FLOOR * seed for seed in self._seed_weights]
        self._weights = list(self._seed_weights)

    def weights(self) -> list[float]:
        """Apply the eq. 8-10 update and return the new stored vector."""
        counters = self.history.counters()
        current = self._weights
        decay = [self.alpha**h for h in counters]
        adjustable = sum(
            weight * (1.0 - d) for weight, d in zip(current, decay)
        )
        clean = counters.count(0)
        updated: list[float] = []
        for weight, h, d, floor in zip(current, counters, decay, self._floors):
            if h != 0:
                updated.append(weight * d)
            else:  # h == 0, so clean >= 1
                updated.append(max(weight + adjustable / clean, floor))
        if sum(updated) <= 0:
            updated = list(self._seed_weights)
        self._weights = _renormalize(updated)
        return list(self._weights)

    def observe(self, member: NodeId, success: bool) -> None:
        if success:
            self.history.record_success(member)
        else:
            self.history.record_failure(member)


class _BandwidthScoredSelector(_WeightedSelectorBase):
    """Shared route scoring of WD/D+B and WD/D+H+B: ``max(0, B_i) / D_i``.

    ``B_i`` is the bottleneck available bandwidth of the fixed route to
    member ``i``.  Each route's link ids are resolved once, and
    :meth:`_column_scores` reads every ``B_i`` in one scan of
    :class:`~repro.network.link.LinkStateArrays` columns: the network's
    live ones, or the copy ``snapshot`` holds.  A zero-hop route (the
    source is a member) is free to use and takes all the weight without
    a read.

    Parameters
    ----------
    snapshot:
        ``None`` (the default) reproduces the paper's always-fresh
        assumption; a :class:`repro.network.state.SnapshotBandwidthView`
        models the periodic link-state refresh a real deployment would
        have.
    """

    def __init__(
        self,
        context: SelectionContext,
        snapshot: Optional["SnapshotBandwidthView"] = None,
    ) -> None:
        super().__init__(context)
        network = context.network
        self._distances = [float(d) for d in context.routes.distances()]
        self.snapshot = snapshot
        self._live = network.link_state
        #: Whether a route has zero hops: such routes take all the weight.
        self._zero_hop = 0.0 in self._distances
        #: Each route's ``(link ids, D_i)`` in the link-state columns.
        self._scan = [
            (route.resolve_link_indices(network), distance)
            for route, distance in zip(context.routes.routes(), self._distances)
        ]

    def _zero_hop_weights(self) -> list[float]:
        return [1.0 if distance == 0 else 0.0 for distance in self._distances]

    def _column_scores(self) -> list[float]:
        """Each member's score from one scan of the columns.

        Never called with a zero-hop route, whose ``D_i`` is 0.
        """
        snapshot = self.snapshot
        columns = self._live if snapshot is None else snapshot.columns()
        capacity = columns.capacity
        reserved = columns.reserved
        scores: list[float] = []
        for hops, distance in self._scan:
            bandwidth = math.inf
            for i in hops:
                available = capacity[i] - reserved[i]
                if available < bandwidth:
                    bandwidth = available
            # max(0, B) / D: a non-positive (or NaN) B scores 0.0 / D.
            scores.append(bandwidth / distance if bandwidth > 0.0 else 0.0)
        return scores


class DistanceBandwidthWeighted(_BandwidthScoredSelector):
    """WD/D+B: weights proportional to ``B_i / D_i`` (eqs. 11-12).

    ``B_i`` is the bottleneck available bandwidth of the fixed route to
    member ``i``, read from the network's link state — standing in for
    the extended-RSVP RESV feedback the paper assumes.  Weights are
    recomputed from scratch at every selection, so without a snapshot
    this selector tracks network dynamics exactly (at the compatibility
    cost the paper highlights).

    When every route's bottleneck is zero the flow is doomed anyway;
    the selector falls back to inverse-distance weights so the draw
    stays well defined.

    The draw table comes from one pass: one scan of the link-state
    columns for the scores, then the normalisation and running sums of
    :func:`cumulative_table`, without building the weight vector first.
    A zero-hop route and all-zero bottlenecks take the generic table
    over :meth:`weights`.
    """

    name = "WD/D+B"

    def weights(self) -> list[float]:
        if self._zero_hop:
            return self._zero_hop_weights()
        scores = self._column_scores()
        total = sum(scores)
        if total <= 0:
            return distance_weights(self._distances)
        return [score / total for score in scores]

    def _table(self, exclude: AbstractSet[NodeId]) -> Table:
        # The table cumulative_table builds over weights(), from one
        # scan of the columns.  sum() must stay: it rounds differently
        # from a running total on some interpreters.
        if self._zero_hop:
            return super()._table(exclude)
        scores = self._column_scores()
        total = sum(scores)
        if not 0.0 < total < math.inf:
            return super()._table(exclude)
        if exclude:
            return cumulative_table(
                self._members, [score / total for score in scores], exclude
            )
        running = 0.0
        cumulative: list[float] = []
        for score in scores:
            running += score / total
            cumulative.append(running)
        return self._members, cumulative


class HybridWeighted(_BandwidthScoredSelector):
    """WD/D+H+B: every information source the paper considers, combined.

    Not one of the paper's three algorithms — the obvious next step it
    leaves open.  Weights multiply the bandwidth-per-distance score of
    WD/D+B (eqs. 11-12) with the history decay of WD/D+H (eqs. 8-9):

        W_i  ~  (B_i / D_i) * alpha ** h_i

    renormalized.  History covers what stale bandwidth snapshots miss
    (a route that *keeps failing* is punished immediately even if the
    advertised bandwidth looks fine), while bandwidth covers what
    history cannot see (congestion caused by other sources' flows).
    The ablation bench quantifies the gain over either parent.
    """

    name = "WD/D+H+B"

    def __init__(
        self,
        context: SelectionContext,
        alpha: float = DEFAULT_ALPHA,
        snapshot: Optional["SnapshotBandwidthView"] = None,
    ) -> None:
        super().__init__(context, snapshot)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.history = AdmissionHistory(context.group)

    def weights(self) -> list[float]:
        if self._zero_hop:
            return self._zero_hop_weights()
        scores = self._column_scores()
        alpha = self.alpha
        scores = [
            score * alpha**failures
            for score, failures in zip(scores, self.history.counters())
        ]
        total = sum(scores)
        if total <= 0:
            return distance_weights(self._distances)
        return [score / total for score in scores]

    def observe(self, member: NodeId, success: bool) -> None:
        if success:
            self.history.record_success(member)
        else:
            self.history.record_failure(member)


class ShortestPathSelector(_WeightedSelectorBase):
    """SP baseline: always the member with the shortest fixed route.

    All weight on one member, so anycast traffic from a source is never
    spread — the congestion-prone behaviour the paper argues against.
    """

    name = "SP"

    def __init__(self, context: SelectionContext) -> None:
        super().__init__(context)
        self._choice = context.routes.shortest_member()

    def weights(self) -> list[float]:
        return [
            1.0 if member == self._choice else 0.0
            for member in self.group.members
        ]

    def select(
        self, rng: RandomStream, exclude: AbstractSet[NodeId] = frozenset()
    ) -> NodeId:
        if self._choice in exclude:
            # SP has no second choice; fall back to the next-nearest
            # non-excluded member for well-definedness under R > 1.
            remaining = [
                member
                for member in self.group.members
                if member not in exclude
            ]
            if not remaining:
                raise ValueError("all group members excluded")
            return min(
                remaining,
                key=lambda member: self.context.routes.route_to(member).distance,
            )
        return self._choice
