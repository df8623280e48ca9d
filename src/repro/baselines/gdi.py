"""The GDI baseline: global dynamic information, any path.

The paper's idealized comparator assumes the admission controller
knows "the active flows and their usage of bandwidth on each link in
the network" and may route over *any* path, not only the fixed one.
Admission therefore succeeds exactly when some path from the source to
*some* group member has the required bandwidth available on every
link.

That existence question is a reachability problem on the subgraph of
links with ``AB_l >= b``, so the "exhaustive search for all the
available paths" reduces to one BFS per member; among feasible members
the minimum-hop path is used (deterministic tie-break), which also
makes GDI frugal with resources.

The paper stresses this system "is not realistic, and it is
difficult, if not impossible, to implement in practice" — it exists
to upper-bound the achievable admission probability.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.network.routing import Route, feasible_path
from repro.network.topology import Network

NodeId = Hashable


class GDIController:
    """Centralized admission with perfect global knowledge.

    One instance serves every source (it is the antithesis of the
    distributed mechanism).  The interface mirrors
    :class:`repro.core.admission.ACRouter` so the simulation can drive
    either interchangeably.
    """

    def __init__(self, network: Network, group: AnycastGroup) -> None:
        self.network = network
        self.group = group
        #: lifetime decision count
        self.requests_seen = 0

    def admit(self, request: FlowRequest, now: Optional[float] = None) -> FlowRequest:
        """Admit iff any member is reachable over links with room.

        Members are scanned in group order; the overall minimum-hop
        feasible path across members becomes the record's ``route``
        and is reserved under its ``flow_id``.  The search is one
        attempt; a refused record lists every member as tried.
        """
        if request.group != self.group:
            raise ValueError(
                f"request group {request.group.address!r} does not match "
                f"controller group {self.group.address!r}"
            )
        if request.tried:
            raise ValueError(f"flow request {request.flow_id!r} was already submitted")
        self.requests_seen += 1
        best_path: Optional[list[NodeId]] = None
        for member in self.group.members:
            path = feasible_path(
                self.network, request.source, member, request.bandwidth_bps
            )
            if path is not None and (best_path is None or len(path) < len(best_path)):
                best_path = path
        request.attempts = 1
        request.decided_at = request.arrival_time if now is None else now
        if best_path is None:
            request.tried = list(self.group.members)
            return request
        destination = best_path[-1]
        route = Route(request.source, destination, tuple(best_path))
        reserved = self.network.reserve_links(
            route.resolve_links(self.network), request.flow_id, request.bandwidth_bps
        )
        if not reserved:  # pragma: no cover - feasible_path guarantees room
            raise RuntimeError("feasible path refused reservation")
        request.destination = destination
        request.tried = [destination]
        request.route = route
        request.reservation_key = request.flow_id
        return request

    def release(self, flow: FlowRequest) -> None:
        """Tear down an admitted flow's reservations (idempotent).

        A refused record holds none, so releasing it does nothing.
        """
        route = flow.route
        if flow.released or route is None:
            return
        self.network.release_path(
            route.resolve_links(self.network), flow.reservation_key
        )
        flow.released = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GDIController(group={self.group.address!r}, seen={self.requests_seen})"
