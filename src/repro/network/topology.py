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

from repro import invariants as _invariants
from repro.network.link import ADMIT_EPSILON_BPS, Link, LinkStateArrays

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
        """Resolve a node path to its directed link objects."""
        if len(path) < 2:
            return []
        return [self.link(u, v) for u, v in zip(path, path[1:])]

    def reserve_path(
        self, path: Sequence[NodeId], flow_id: FlowId, bandwidth_bps: float
    ) -> bool:
        """Atomically reserve ``bandwidth_bps`` on every link of ``path``.

        Either every link grants the reservation or none does (links
        reserved before the failing hop are rolled back).  Returns
        ``True`` on success.
        """
        return self.reserve_links(self.path_links(path), flow_id, bandwidth_bps)

    def reserve_links(
        self, links: Sequence[Link], flow_id: FlowId, bandwidth_bps: float
    ) -> bool:
        """Atomically reserve on pre-resolved ``links`` (all-or-nothing).

        The hot-path variant of :meth:`reserve_path` for callers that
        hold the link objects already (e.g. a cached
        :class:`~repro.network.routing.Route`).  Works directly on the
        shared :class:`~repro.network.link.LinkStateArrays` columns —
        one admission check and one accounting write per hop, no
        per-link method dispatch — with semantics identical to calling
        :meth:`Link.reserve` hop by hop: same admission epsilon, same
        grant/rejection counters, links reserved before the failing
        hop are rolled back.
        """
        if not bandwidth_bps >= 0:
            raise ValueError(f"bandwidth must be non-negative, got {bandwidth_bps}")
        amount = float(bandwidth_bps)
        state = self.link_state
        capacity = state.capacity
        reserved = state.reserved
        granted = 0
        for link in links:
            if flow_id in link._reservations:
                for position in range(granted):
                    # Rolling back legs this very call just granted:
                    # each definitely holds flow_id, release cannot raise.
                    links[position].release(flow_id)  # repro-lint: disable=R5
                raise ValueError(
                    f"flow {flow_id!r} already reserved on link "
                    f"{link.source}->{link.target}"
                )
            index = link._index
            if not (
                bandwidth_bps
                <= capacity[index] - reserved[index] + ADMIT_EPSILON_BPS
            ):
                link.rejections += 1
                for position in range(granted):
                    # Same as above: releasing just-granted legs only.
                    links[position].release(flow_id)  # repro-lint: disable=R5
                return False
            link._reservations[flow_id] = amount
            reserved[index] += amount
            link.grants += 1
            granted += 1
        if _invariants.enabled:
            for link in links:
                _invariants.check_link(link)
        return True

    def release_path(self, path: Sequence[NodeId], flow_id: FlowId) -> None:
        """Release the flow's reservation on every link of ``path``.

        Raises ``KeyError`` if any leg held no reservation — but only
        after releasing every leg that did: a strict hop-by-hop sweep
        would abort at the first missing leg (fault teardown, lease
        GC) and strand the bandwidth reserved on the links after it.
        """
        missing: Optional[Link] = None
        for link in self.path_links(path):
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
