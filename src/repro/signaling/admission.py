"""The DAC procedure driven by asynchronous RSVP-lite signalling.

:class:`repro.core.admission.ACRouter` decides instantly because its
reservation engine is atomic — the abstraction the paper's simulation
uses.  :class:`SignalledACRouter` is an ``ACRouter`` that runs the
*same* Figure 1 loop body on top of
:class:`repro.signaling.rsvp.SignalledReservationEngine`, where every
attempt costs a PATH/RESV round trip of simulated time.  Each
decision is one slotted :class:`_SignalledDecision` whose bound
``concluded`` is the engine callback: it feeds each outcome to the
shared body and either launches the next attempt or delivers the
decision.  A decision holds no reference cycle (closures calling each
other would leave one per decision for the cyclic GC), so reference
counting frees it once it concludes.  That yields the quantities the
paper's overhead discussion appeals to but never measures directly:

* **admission latency** — arrival to final decision, growing with each
  retrial by a full signalling round trip;
* **message count** — PATH/RESV/PATH_ERR transmissions per request.

Every attempt reserves under its own key ``(flow_id, attempt)``, so
the orphans of a timed-out attempt can never collide with (or be torn
down by) a later attempt of the same flow.  With no concurrent
signalling races the decisions equal the atomic router's (a property
the test suite asserts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.core.admission import ACRouter, AdmissionResult
from repro.core.retrial import RetrialPolicy
from repro.core.selection import DestinationSelector
from repro.flows.flow import AdmittedFlow, FlowRequest
from repro.flows.group import AnycastGroup
from repro.network.routing import Route
from repro.network.topology import Network
from repro.signaling.rsvp import ReservationOutcome, SignalledReservationEngine
from repro.sim.random_streams import RandomStream

NodeId = Hashable


@dataclass(frozen=True)
class SignalledAdmissionResult:
    """An :class:`AdmissionResult` plus its signalling costs.

    Attributes
    ----------
    result:
        The ordinary admission outcome.
    latency_s:
        Simulated time from request submission to the decision.
    messages:
        Total signalling messages across all attempts.
    reservation_key:
        The per-attempt key the admitted flow's links are held under
        (``None`` if rejected).
    """

    result: AdmissionResult
    latency_s: float
    messages: int
    reservation_key: Optional[Hashable] = None

    @property
    def admitted(self) -> bool:
        """Whether the flow was established."""
        return self.result.admitted


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
        # The key each admitted flow's links are held under.
        self._reservation_keys: dict[Hashable, Hashable] = {}

    def admit(  # type: ignore[override]
        self,
        request: FlowRequest,
        on_decision: Callable[[SignalledAdmissionResult], None],
    ) -> None:
        """Start the DAC loop; ``on_decision`` fires when it concludes."""
        _SignalledDecision(self, request, on_decision).reserve_next()

    def release(self, flow: AdmittedFlow) -> None:
        """Tear down an admitted flow by a TEAR sweep (idempotent)."""
        if flow.released:
            return
        key = self._reservation_keys.pop(flow.flow_id)
        self.reservation.release(flow.path, key)
        flow.released = True


class _SignalledDecision:
    """One request's Figure 1 loop, driven by reservation outcomes.

    :meth:`reserve_next` draws a destination and launches its attempt
    with the bound :meth:`concluded` as the engine callback, which
    either launches the next attempt or delivers the decision.  Nothing
    this object holds refers back to it, so reference counting frees
    the whole decision as soon as the last attempt's session is done.
    """

    __slots__ = (
        "_router",
        "_decision",
        "_on_decision",
        "_started_at",
        "_messages",
        "_key",
        "_route",
    )

    def __init__(
        self,
        router: SignalledACRouter,
        request: FlowRequest,
        on_decision: Callable[[SignalledAdmissionResult], None],
    ) -> None:
        self._router = router
        self._decision = router._open(request)
        self._on_decision = on_decision
        self._started_at = router.reservation.simulator.now
        self._messages = 0
        self._key: Hashable = None
        self._route: Optional[Route] = None

    def reserve_next(self) -> None:
        """Draw the next destination and launch its reservation attempt."""
        router = self._router
        decision = self._decision
        request = decision.request
        route = self._route = router._select(decision)
        key = self._key = (request.flow_id, len(decision.tried))
        router.reservation.reserve(route, key, request.bandwidth_bps, self.concluded)

    def concluded(self, outcome: ReservationOutcome) -> None:
        """Feed one attempt's outcome to the loop body."""
        self._messages += outcome.messages
        router = self._router
        now = router.reservation.simulator.now
        route = self._route
        assert route is not None  # set by the attempt that concluded
        result = router._conclude(self._decision, route, outcome.success, now)
        if result is None:
            self.reserve_next()
            return
        key = self._key
        if result.admitted:
            router._reservation_keys[self._decision.request.flow_id] = key
        self._on_decision(
            SignalledAdmissionResult(
                result=result,
                latency_s=now - self._started_at,
                messages=self._messages,
                reservation_key=key if result.admitted else None,
            )
        )
