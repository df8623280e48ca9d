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

The loop body is written once, here; the signalled router in
:mod:`repro.signaling.admission` drives the same body from
reservation callbacks instead of a ``while`` loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Protocol, Sequence

from repro.core.reservation import AtomicReservationEngine
from repro.core.retrial import RetrialPolicy
from repro.core.selection import DestinationSelector
from repro.flows.flow import AdmittedFlow, FlowRequest
from repro.flows.group import AnycastGroup
from repro.network.routing import Route
from repro.network.topology import Network
from repro.sim.random_streams import RandomStream

NodeId = Hashable
FlowId = Hashable


class ReservationEngine(Protocol):
    """What the AC-router needs from a reservation engine.

    Satisfied by :class:`AtomicReservationEngine` and its fault-aware
    subclass in :mod:`repro.network.faults`.
    """

    def try_reserve(
        self, route: "Route", flow_id: FlowId, bandwidth_bps: float
    ) -> bool:
        """Reserve along ``route``; ``True`` on success."""
        ...

    def release(self, path: Sequence[NodeId], flow_id: FlowId) -> None:
        """Tear down the flow's reservations along ``path``."""
        ...


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of one DAC run for one request.

    Attributes
    ----------
    request:
        The request that was processed.
    flow:
        The admitted flow (``None`` if rejected).
    attempts:
        Number of destinations tried (the final value of the paper's
        retrial counter ``c``); >= 1 always.
    tried:
        Destinations tried, in order.
    decided_at:
        Simulation time of the decision (equals the request's arrival
        time under atomic reservations).
    """

    request: FlowRequest
    flow: Optional[AdmittedFlow]
    attempts: int
    tried: tuple[NodeId, ...]
    decided_at: float = 0.0

    @property
    def admitted(self) -> bool:
        """Whether the flow was established."""
        return self.flow is not None

    @property
    def retrials(self) -> int:
        """Attempts beyond the first, i.e. ``c - 1``."""
        return self.attempts - 1


class _Decision:
    """One request's progress through the Figure 1 loop."""

    __slots__ = ("request", "tried", "excluded")

    def __init__(self, request: FlowRequest) -> None:
        self.request = request
        #: destinations drawn so far; its length is the counter ``c``
        self.tried: list[NodeId] = []
        #: refused destinations the next draw must skip
        self.excluded: set[NodeId] = set()


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
        #: lifetime decision count
        self.requests_seen = 0

    def admit(self, request: FlowRequest, now: Optional[float] = None) -> AdmissionResult:
        """Run the DAC procedure for ``request``.

        Returns an :class:`AdmissionResult`; on admission the flow's
        bandwidth is held on every link of its route until
        :meth:`release` is called.
        """
        decision = self._open(request)
        decided_at = request.arrival_time if now is None else now
        while True:
            route = self._select(decision)
            success = self.reservation.try_reserve(
                route, request.flow_id, request.bandwidth_bps
            )
            result = self._conclude(decision, route, success, decided_at)
            if result is not None:
                return result

    # ------------------------------------------------------------------
    # the Figure 1 loop body
    # ------------------------------------------------------------------
    def _open(self, request: FlowRequest) -> _Decision:
        """Validate and count ``request``; return its empty loop state."""
        if request.source != self.source:
            raise ValueError(
                f"request source {request.source!r} does not match "
                f"router source {self.source!r}"
            )
        if request.group != self.group:
            raise ValueError(
                f"request group {request.group.address!r} does not match "
                f"router group {self.group.address!r}"
            )
        self.requests_seen += 1
        return _Decision(request)

    def _select(self, decision: _Decision) -> Route:
        """Draw the next destination and return the route to reserve."""
        destination = self.selector.select(self.rng, exclude=decision.excluded)
        decision.tried.append(destination)
        return self.routes.route_to(destination)

    def _conclude(
        self, decision: _Decision, route: Route, success: bool, decided_at: float
    ) -> Optional[AdmissionResult]:
        """Feed back the last attempt; the result, or ``None`` to retry."""
        request = decision.request
        tried = decision.tried
        destination = tried[-1]
        self.selector.observe(destination, success)
        attempts = len(tried)
        flow: Optional[AdmittedFlow] = None
        if success:
            flow = AdmittedFlow(
                request=request,
                destination=destination,
                path=route.path,
                admitted_at=decided_at,
                attempts=attempts,
            )
        else:
            if self.resample_failed:
                distinct_tried = len(set(tried))
            else:
                decision.excluded.add(destination)
                distinct_tried = len(decision.excluded)
            if self.retrial_policy.should_retry(
                attempts_made=attempts,
                distinct_tried=distinct_tried,
                group_size=self.group.size,
            ):
                return None
        return AdmissionResult(
            request=request,
            flow=flow,
            attempts=attempts,
            tried=tuple(tried),
            decided_at=decided_at,
        )

    def release(self, flow: AdmittedFlow) -> None:
        """Tear down an admitted flow's reservations (idempotent)."""
        if flow.released:
            return
        self.reservation.release(flow.path, flow.flow_id)
        flow.released = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ACRouter(source={self.source!r}, selector={self.selector.name}, "
            f"seen={self.requests_seen})"
        )
