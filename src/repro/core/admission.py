"""The AC-router: the DAC procedure of Figure 1.

Each source router that receives anycast flow requests is an
Admission-Control router.  For every request it loops:

1. select a destination in the anycast group (weight-driven draw);
2. try to reserve bandwidth along the fixed route to it;
3. admitted if the reservation succeeds; otherwise consult the
   retrial policy and possibly go around again.

The router owns its selector (and therefore its local admission
history) — state is strictly local, which is the point of the
*distributed* admission control mechanism.

The loop runs on the request's own record,
:class:`repro.flows.flow.FlowRequest`: each draw appends to its
``tried`` list and writes the drawn ``route``, each refusal grows its
``excluded`` set, and the decision is written into it
(``destination``, ``attempts``, ``decided_at``) while the set is
dropped; a refusal also clears ``route`` and ``reservation_key``.  An
admitted record's ``route`` and ``reservation_key`` name exactly the
links it holds, on both planes, and :meth:`ACRouter.release` tears
down by them.  :meth:`ACRouter.admit` returns that same record.

The loop body is written once, here; the signalled router in
:mod:`repro.signaling.admission` drives the same body from
reservation callbacks instead of a ``while`` loop.

The body reads two per-router constants, taken once when the router
is built: the group size ``K`` handed to the retrial policy, and each
member's fixed :class:`~repro.network.routing.Route`, indexed instead
of asking the route table.  ED and WD/D return their no-refusal draw
table, which every first attempt reads, without building the refused
set's ``frozenset`` key (:mod:`repro.core.selection`).  The selector,
retrial policy and reservation engine are still called through their
instance attributes on every attempt: perfbench's tracer replaces
those attributes after the router is built (``CONTRIBUTING.md``).
"""

from __future__ import annotations

from typing import Hashable, Optional, Protocol

from repro.core.reservation import AtomicReservationEngine
from repro.core.retrial import RetrialPolicy
from repro.core.selection import DestinationSelector
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.network.routing import Route
from repro.network.topology import Network
from repro.sim.random_streams import RandomStream

NodeId = Hashable
FlowId = Hashable


class ReservationEngine(Protocol):
    """What the AC-router needs from a reservation engine.

    A reservation is addressed by a route and a key, both ways.
    Satisfied by :class:`AtomicReservationEngine`, with or without link
    faults: a down link reads no capacity, so the engine refuses it as
    it refuses a full one.  :meth:`ACRouter.release` calls
    :meth:`release` with an admitted record's ``route`` and
    ``reservation_key``, which the signalled engine
    (:class:`repro.signaling.rsvp.SignalledReservationEngine`) takes
    too.
    """

    def try_reserve(self, route: Route, key: FlowId, bandwidth_bps: float) -> bool:
        """Reserve along ``route`` under ``key``; ``True`` on success."""
        ...

    def release(self, route: Route, key: FlowId) -> None:
        """Tear down the reservation held under ``key`` along ``route``."""
        ...


class ACRouter:
    """An admission-control router running the Figure 1 loop.

    The loop body is three steps shared with the signalled router:
    :meth:`_open` validates and counts a request, :meth:`_select` draws
    the next destination, and :meth:`_conclude` feeds back one
    reservation outcome and either decides or asks for another try.

    Parameters
    ----------
    network:
        Live network state shared with every other controller.
    source:
        The node this router fronts; only requests originating here may
        be submitted to it.
    group:
        The anycast group served.
    selector:
        Destination-selection algorithm (owns any local state such as
        the admission history).  Its context's route table, which must
        start at ``source``, is the router's.
    retrial_policy:
        When to keep trying after failures.
    rng:
        The router's private random stream for the weighted draws.
    reservation:
        Reservation engine; defaults to a private
        :class:`AtomicReservationEngine` on ``network``.
    resample_failed:
        If ``True`` (ablation), a destination that already failed for
        this request may be drawn again on retrial; the default
        excludes failed destinations, matching the paper's cap of
        ``R`` at the group size.
    """

    def __init__(
        self,
        network: Network,
        source: NodeId,
        group: AnycastGroup,
        selector: DestinationSelector,
        retrial_policy: RetrialPolicy,
        rng: RandomStream,
        reservation: Optional[ReservationEngine] = None,
        resample_failed: bool = False,
    ) -> None:
        routes = selector.context.routes
        if routes.source != source:
            raise ValueError(
                f"selector routes start at {routes.source!r}, "
                f"not at router source {source!r}"
            )
        self.network = network
        self.source = source
        self.group = group
        self.selector = selector
        self.retrial_policy = retrial_policy
        self.rng = rng
        self.reservation: ReservationEngine = (
            reservation or AtomicReservationEngine(network)
        )
        self.resample_failed = resample_failed
        self.routes = routes
        #: The loop's per-router constants, read once: ``K`` and each
        #: member's fixed route.
        self._group_size = group.size
        self._route_of = dict(zip(routes.members, routes.routes()))
        #: lifetime decision count
        self.requests_seen = 0

    def admit(self, request: FlowRequest, now: Optional[float] = None) -> FlowRequest:
        """Run the DAC procedure for ``request`` and return the decided record.

        On admission the flow's bandwidth is held on every link of its
        route, under its ``flow_id``, until :meth:`release` is called.
        """
        self._open(request)
        decided_at = request.arrival_time if now is None else now
        key = request.reservation_key = request.flow_id
        while True:
            route = self._select(request)
            success = self.reservation.try_reserve(
                route, key, request.bandwidth_bps
            )
            if self._conclude(request, success, decided_at):
                return request

    # ------------------------------------------------------------------
    # the Figure 1 loop body
    # ------------------------------------------------------------------
    def _open(self, request: FlowRequest) -> None:
        """Validate and count ``request``; give it empty loop state."""
        if request.source != self.source:
            raise ValueError(
                f"request source {request.source!r} does not match "
                f"router source {self.source!r}"
            )
        group = request.group
        if group is not self.group and group != self.group:
            raise ValueError(
                f"request group {group.address!r} does not match "
                f"router group {self.group.address!r}"
            )
        if request.tried:
            raise ValueError(f"flow request {request.flow_id!r} was already submitted")
        self.requests_seen += 1
        request.excluded = set()

    def _select(self, request: FlowRequest) -> Route:
        """Draw the next destination; record and return the route to reserve."""
        excluded = request.excluded
        assert excluded is not None  # set by _open, dropped on conclusion
        destination = self.selector.select(self.rng, excluded)
        request.tried.append(destination)
        route = request.route = self._route_of[destination]
        return route

    def _conclude(self, request: FlowRequest, success: bool, decided_at: float) -> bool:
        """Feed back the last attempt; ``True`` once the request is decided.

        A refused record holds nothing, so its ``route`` and
        ``reservation_key`` are cleared.
        """
        tried = request.tried
        destination = tried[-1]
        self.selector.observe(destination, success)
        attempts = len(tried)
        if success:
            request.destination = destination
        else:
            excluded = request.excluded
            assert excluded is not None  # set by _open, dropped on conclusion
            if self.resample_failed:
                distinct_tried = len(set(tried))
            else:
                excluded.add(destination)
                distinct_tried = len(excluded)
            if self.retrial_policy.should_retry(
                attempts, distinct_tried, self._group_size
            ):
                return False
            request.route = request.reservation_key = None
        request.attempts = attempts
        request.decided_at = decided_at
        request.excluded = None
        return True

    def release(self, flow: FlowRequest) -> None:
        """Tear down an admitted flow's reservations (idempotent).

        The engine releases the record's ``route`` under its
        ``reservation_key``: on the signalled plane that is a TEAR
        sweep.  A refused record holds none, so releasing it does
        nothing.
        """
        route = flow.route
        if flow.released or route is None:
            return
        self.reservation.release(route, flow.reservation_key)
        flow.released = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ACRouter(source={self.source!r}, selector={self.selector.name}, "
            f"seen={self.requests_seen})"
        )
