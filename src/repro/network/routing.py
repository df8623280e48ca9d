"""Fixed-path routing and path search.

Section 3 of the paper assumes that "to one source, there is a fixed
path to each member in an anycast group", obtained from ordinary
routing protocols, and that path *length in hops* drives the biased
destination-selection algorithms.  This module provides:

* :func:`shortest_path` -- deterministic minimum-hop path (BFS with a
  lexicographic tie-break, so that repeated runs and the analytical
  model agree on the same fixed routes).
* :class:`RouteTable` -- the per-source table of fixed routes to every
  member of an anycast group.
* :func:`feasible_path` -- minimum-hop path restricted to links with
  sufficient available bandwidth, used by the GDI baseline's
  exhaustive global search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

from repro.network.link import Link
from repro.network.topology import Network, NetworkError

NodeId = Hashable


def _sorted_neighbors(network: Network, node: NodeId) -> list[NodeId]:
    """Out-neighbors in a stable, repeatable order."""
    return sorted(network.neighbors(node), key=repr)


def shortest_path(
    network: Network,
    source: NodeId,
    target: NodeId,
    min_available_bps: Optional[float] = None,
) -> Optional[list[NodeId]]:
    """Deterministic minimum-hop path from ``source`` to ``target``.

    Breadth-first search expanding neighbors in sorted order, so among
    equal-hop paths the lexicographically smallest (by node repr) is
    returned.  If ``min_available_bps`` is given, only links with at
    least that much available bandwidth are traversed — this variant
    implements the GDI baseline's feasibility search.

    Returns the node list (``[source, ..., target]``) or ``None`` if
    unreachable.
    """
    if not network.has_node(source):
        raise NetworkError(f"unknown source node {source!r}")
    if not network.has_node(target):
        raise NetworkError(f"unknown target node {target!r}")
    if source == target:
        return [source]
    parents: dict[NodeId, NodeId] = {source: source}
    frontier: deque[NodeId] = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in _sorted_neighbors(network, node):
            if neighbor in parents:
                continue
            if min_available_bps is not None:
                if not network.link(node, neighbor).can_admit(min_available_bps):
                    continue
            parents[neighbor] = node
            if neighbor == target:
                return _reconstruct(parents, source, target)
            frontier.append(neighbor)
    return None


def feasible_path(
    network: Network, source: NodeId, target: NodeId, bandwidth_bps: float
) -> Optional[list[NodeId]]:
    """Minimum-hop path using only links that can admit ``bandwidth_bps``.

    This is the primitive behind the GDI baseline: the admission
    succeeds iff such a path exists to *some* group member.
    """
    return shortest_path(network, source, target, min_available_bps=bandwidth_bps)


def _reconstruct(
    parents: dict[NodeId, NodeId], source: NodeId, target: NodeId
) -> list[NodeId]:
    path = [target]
    node = target
    while node != source:
        node = parents[node]
        path.append(node)
    path.reverse()
    return path


@dataclass(frozen=True)
class Route:
    """A fixed route from a source to one anycast-group member.

    Routes are static once built (the paper's fixed-path assumption),
    so the directed :class:`~repro.network.link.Link` objects and their
    link ids are resolved once and cached — the reservation path and
    the WD/D+B column scan would otherwise repeat the per-hop dict
    lookups on every admission attempt.

    Attributes
    ----------
    source:
        Origin node.
    destination:
        The anycast group member this route leads to.
    path:
        Node sequence ``(source, ..., destination)``.
    """

    source: NodeId
    destination: NodeId
    path: tuple[NodeId, ...]
    _links: Optional[tuple[Link, ...]] = field(
        default=None, compare=False, repr=False
    )
    _links_network: Optional[Network] = field(
        default=None, compare=False, repr=False
    )
    _link_indices: Optional[tuple[int, ...]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def distance(self) -> int:
        """Route distance ``D_i``: number of hops (links) on the path.

        A degenerate route from a node to itself has distance 0.
        """
        return max(0, len(self.path) - 1)

    def resolve_links(self, network: Network) -> tuple[Link, ...]:
        """Directed link objects of the path, cached per network.

        The cache is keyed by network identity, so a route queried
        against a different network instance re-resolves (and re-caches
        for that instance).
        """
        if self._links is not None and self._links_network is network:
            return self._links
        links = tuple(network.path_links(self.path))
        object.__setattr__(self, "_links", links)
        object.__setattr__(self, "_links_network", network)
        object.__setattr__(
            self, "_link_indices", tuple(link.index for link in links)
        )
        return links

    def resolve_link_indices(self, network: Network) -> tuple[int, ...]:
        """Dense link ids of the path within ``network.link_state``.

        Cached alongside :meth:`resolve_links`; the WD/D+B bottleneck
        scan and the reservation hot path index the network's columnar
        :class:`~repro.network.link.LinkStateArrays` with these.
        """
        if self._link_indices is not None and self._links_network is network:
            return self._link_indices
        self.resolve_links(network)
        indices = self._link_indices
        assert indices is not None  # resolve_links always fills the cache
        return indices

    def __str__(self) -> str:
        return "->".join(str(node) for node in self.path)


class RouteTable:
    """Fixed routes from one source to every member of an anycast group.

    Built once from shortest paths (the "existing routing protocols" of
    Section 3) and then treated as static, exactly as the paper
    assumes.  The table preserves the member order of the group.
    """

    def __init__(
        self, network: Network, source: NodeId, members: Sequence[NodeId]
    ) -> None:
        if not members:
            raise NetworkError("anycast group must have at least one member")
        self.source = source
        self._routes: dict[NodeId, Route] = {}
        ordered: list[NodeId] = []
        for member in members:
            path = shortest_path(network, source, member)
            if path is None:
                raise NetworkError(
                    f"no path from {source!r} to group member {member!r}"
                )
            route = Route(source=source, destination=member, path=tuple(path))
            # Warm the per-route link cache against the owning network
            # so the admission hot path never resolves hops again.
            route.resolve_links(network)
            self._routes[member] = route
            ordered.append(member)
        self.members: tuple[NodeId, ...] = tuple(ordered)
        self._route_list: list[Route] = [self._routes[m] for m in self.members]

    def route_to(self, member: NodeId) -> Route:
        """The fixed route to ``member``."""
        try:
            return self._routes[member]
        except KeyError:
            raise NetworkError(f"{member!r} is not a group member") from None

    def routes(self) -> list[Route]:
        """All routes, in group-member order."""
        return list(self._route_list)

    def distances(self) -> list[int]:
        """Route distances ``D_1..D_K`` in member order."""
        return [self._routes[member].distance for member in self.members]

    def shortest_member(self) -> NodeId:
        """The member with the minimum route distance (ties: first in
        member order), i.e. the destination the SP baseline always picks."""
        best = self.members[0]
        best_distance = self._routes[best].distance
        for member in self.members[1:]:
            distance = self._routes[member].distance
            if distance < best_distance:
                best, best_distance = member, distance
        return best

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RouteTable(source={self.source!r}, members={self.members})"
