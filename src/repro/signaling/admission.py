"""The DAC procedure driven by asynchronous RSVP-lite signalling.

:class:`repro.core.admission.ACRouter` decides instantly because its
reservation engine is atomic — the abstraction the paper's simulation
uses.  :class:`SignalledACRouter` is an ``ACRouter`` that runs the
*same* Figure 1 loop body on top of
:class:`repro.signaling.rsvp.SignalledReservationEngine`, where every
attempt costs a PATH/RESV round trip of simulated time.  The loop runs
on the request's own record (:class:`repro.flows.flow.FlowRequest`),
and one slotted :class:`_SignalledDecision` is its engine callback: its
bound ``concluded`` feeds each outcome to the shared body and either
launches the next attempt or hands the decided record to
``on_decision``, exactly once.  A decision holds no reference cycle
(closures calling each other would leave one per decision for the
cyclic GC), so reference counting frees it once it concludes.  That
yields the quantities the paper's overhead discussion appeals to but
never measures directly:

* **admission latency** — submission to final decision, growing with
  each retrial by a full signalling round trip (the record's
  ``latency_s``);
* **message count** — PATH/RESV/PATH_ERR transmissions, which the
  engine totals over the run.

Every attempt reserves under its own key ``(flow_id, attempt)``, so
the orphans of a timed-out attempt can never collide with (or be torn
down by) a later attempt of the same flow.  The record keeps the route
and the key its admitted flow's links are held under (``route``,
``reservation_key``), and the inherited
:meth:`~repro.core.admission.ACRouter.release` hands both to the
engine, which tears them down by a TEAR sweep.  With no concurrent
signalling races the decisions equal the atomic router's (a property
the test suite asserts).
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.admission import ACRouter
from repro.core.retrial import RetrialPolicy
from repro.core.selection import DestinationSelector
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.network.topology import Network
from repro.signaling.rsvp import ReservationOutcome, SignalledReservationEngine
from repro.sim.random_streams import RandomStream

NodeId = Hashable


class SignalledACRouter(ACRouter):
    """An AC-router whose reservations take signalling time.

    Decisions are delivered through a callback because they complete
    only after the (simulated) PATH/RESV exchanges.

    Parameters mirror :class:`repro.core.admission.ACRouter`; the
    reservation engine is the message-level ``engine``, which also
    supplies the simulation clock.
    """

    reservation: SignalledReservationEngine

    def __init__(
        self,
        network: Network,
        source: NodeId,
        group: AnycastGroup,
        selector: DestinationSelector,
        retrial_policy: RetrialPolicy,
        rng: RandomStream,
        engine: SignalledReservationEngine,
        resample_failed: bool = False,
    ):
        super().__init__(
            network,
            source,
            group,
            selector,
            retrial_policy,
            rng,
            engine,
            resample_failed,
        )

    def admit(  # type: ignore[override]
        self,
        request: FlowRequest,
        on_decision: Callable[[FlowRequest], None],
    ) -> None:
        """Start the DAC loop; ``on_decision`` gets the decided record once."""
        _SignalledDecision(self, request, on_decision).reserve_next()


class _SignalledDecision:
    """The engine callback of one request's Figure 1 loop.

    :meth:`reserve_next` draws a destination and launches its attempt
    with the bound :meth:`concluded` as the engine callback, which
    either launches the next attempt or delivers the decided record.
    The loop state and the outcome live in the record; this object adds
    only what the callback needs.  Nothing it holds refers back to it,
    so reference counting frees it as soon as the last attempt's
    session is done.
    """

    __slots__ = ("_router", "_request", "_on_decision", "_started_at")

    def __init__(
        self,
        router: SignalledACRouter,
        request: FlowRequest,
        on_decision: Callable[[FlowRequest], None],
    ) -> None:
        router._open(request)
        self._router = router
        self._request = request
        self._on_decision = on_decision
        self._started_at = router.reservation.simulator.now

    def reserve_next(self) -> None:
        """Draw the next destination and launch its reservation attempt."""
        router = self._router
        request = self._request
        route = router._select(request)
        key = request.reservation_key = (request.flow_id, len(request.tried))
        router.reservation.reserve(route, key, request.bandwidth_bps, self.concluded)

    def concluded(self, outcome: ReservationOutcome) -> None:
        """Feed one attempt's outcome to the loop body."""
        router = self._router
        request = self._request
        now = router.reservation.simulator.now
        if not router._conclude(request, outcome.success, now):
            self.reserve_next()
            return
        request.latency_s = now - self._started_at
        self._on_decision(request)
