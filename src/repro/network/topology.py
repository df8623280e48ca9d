"""The network graph: nodes plus directed capacitated links.

Implements the model of Section 3: "a network that consists of a
number of nodes... connected by physical links along which packets can
be transmitted".  Physical cables are bidirectional; each direction is
an independent :class:`repro.network.link.Link` with its own capacity
and reservation ledger, because a flow consumes bandwidth only along
its direction of travel.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Optional, Sequence

from repro.network.link import Link, LinkStateArrays
from repro.network.link import reserve_links as _reserve_links

NodeId = Hashable
FlowId = Hashable


class NetworkError(RuntimeError):
    """Raised for structural errors: unknown nodes, duplicate links..."""


class Network:
    """A directed multigraph-free network of capacitated links.

    Nodes are arbitrary hashable identifiers (the canned topologies use
    small integers).  At most one link may exist per ordered node pair.

    Parameters
    ----------
    name:
        Diagnostic label shown in reports.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: dict[NodeId, dict[str, Any]] = {}
        self._links: dict[tuple[NodeId, NodeId], Link] = {}
        self._adjacency: dict[NodeId, list[NodeId]] = {}
        #: Columnar bandwidth accounting shared by every link; link
        #: ids are dense indices in construction order.
        self.link_state = LinkStateArrays()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, **attributes: Any) -> None:
        """Add a node; re-adding an existing node updates attributes."""
        if node in self._nodes:
            self._nodes[node].update(attributes)
            return
        self._nodes[node] = dict(attributes)
        self._adjacency[node] = []

    def add_link(
        self,
        source: NodeId,
        target: NodeId,
        capacity_bps: float,
        propagation_delay_s: float = 0.001,
        bidirectional: bool = True,
    ) -> None:
        """Add a link (by default both directions of a physical cable).

        Endpoints are added implicitly if absent.

        Raises
        ------
        NetworkError
            On self-loops or duplicate directed links.
        """
        if source == target:
            raise NetworkError(f"self-loop on node {source!r} is not allowed")
        self.add_node(source)
        self.add_node(target)
        directions = [(source, target)]
        if bidirectional:
            directions.append((target, source))
        for u, v in directions:
            if (u, v) in self._links:
                raise NetworkError(f"duplicate link {u!r}->{v!r}")
        for u, v in directions:
            link = Link(
                u, v, capacity_bps, propagation_delay_s, state=self.link_state
            )
            self._links[(u, v)] = link
            self._adjacency[u].append(v)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def link_count(self) -> int:
        """Number of *directed* links."""
        return len(self._links)

    def nodes(self) -> list[NodeId]:
        """All node identifiers in insertion order."""
        return list(self._nodes)

    def node_attributes(self, node: NodeId) -> dict[str, Any]:
        """Attribute dict of ``node`` (mutable view)."""
        try:
            return self._nodes[node]
        except KeyError:
            raise NetworkError(f"unknown node {node!r}") from None

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` exists."""
        return node in self._nodes

    def has_link(self, source: NodeId, target: NodeId) -> bool:
        """Whether the directed link exists."""
        return (source, target) in self._links

    def link(self, source: NodeId, target: NodeId) -> Link:
        """The directed link object from ``source`` to ``target``."""
        try:
            return self._links[(source, target)]
        except KeyError:
            raise NetworkError(f"no link {source!r}->{target!r}") from None

    def links(self) -> Iterator[Link]:
        """Iterate over all directed links."""
        return iter(self._links.values())

    def neighbors(self, node: NodeId) -> Sequence[NodeId]:
        """Out-neighbors of ``node`` in insertion order."""
        try:
            return tuple(self._adjacency[node])
        except KeyError:
            raise NetworkError(f"unknown node {node!r}") from None

    def degree(self, node: NodeId) -> int:
        """Out-degree of ``node``."""
        return len(self._adjacency.get(node, ()))

    # ------------------------------------------------------------------
    # path-level bandwidth operations
    # ------------------------------------------------------------------
    def path_links(self, path: Sequence[NodeId]) -> list[Link]:
        """Resolve a node path to its directed link objects.

        :meth:`repro.network.routing.Route.resolve_links` caches the
        result, so every reservation and release addresses a route's
        links without resolving a hop again.
        """
        if len(path) < 2:
            return []
        return [self.link(u, v) for u, v in zip(path, path[1:])]

    #: The one grant body, all or nothing on resolved links (a cached
    #: :meth:`~repro.network.routing.Route.resolve_links`); see
    #: :func:`repro.network.link.reserve_links`.
    reserve_links = staticmethod(_reserve_links)

    def release_path(self, links: Sequence[Link], flow_id: FlowId) -> None:
        """Release the flow's reservation on every one of resolved ``links``.

        ``links`` is what :meth:`reserve_links` took, so no hop is
        resolved again.  Raises ``KeyError`` if any leg held no
        reservation — but only after releasing every leg that did: a
        strict hop-by-hop sweep would abort at the first missing leg
        and strand the bandwidth reserved on the links after it.
        """
        missing: Optional[Link] = None
        for link in links:
            if link.holds(flow_id):
                link.release(flow_id)
            elif missing is None:
                missing = link
        if missing is not None:
            raise KeyError(
                f"flow {flow_id!r} held no reservation on link "
                f"{missing.source}->{missing.target}"
            )

    def total_reserved_bps(self) -> float:
        """Sum of reservations over all directed links."""
        # The reserved column is ordered by link id = insertion order,
        # so this sums in the same order as walking the link dict.
        return sum(self.link_state.reserved)

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_networkx(self) -> Any:
        """Export to a :class:`networkx.DiGraph` (for tests/analysis).

        Link attributes ``capacity_bps``, ``available_bps`` and
        ``propagation_delay_s`` are attached to the edges.  networkx is
        in the ``dev`` extra, not a runtime dependency: it is imported
        here, on first use, and only this method and the tests need it.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        graph.add_nodes_from(self._nodes)
        for (u, v), link in self._links.items():
            graph.add_edge(
                u,
                v,
                capacity_bps=link.capacity_bps,
                available_bps=link.available_bps,
                propagation_delay_s=link.propagation_delay_s,
            )
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.name!r}, nodes={self.node_count}, "
            f"links={self.link_count})"
        )
