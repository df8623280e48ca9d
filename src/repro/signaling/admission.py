"""The DAC procedure driven by asynchronous RSVP-lite signalling.

:class:`repro.core.admission.ACRouter` decides instantly because its
reservation engine is atomic — the abstraction the paper's simulation
uses.  :class:`SignalledACRouter` is an ``ACRouter`` that runs the
*same* Figure 1 loop body on top of
:class:`repro.signaling.rsvp.SignalledReservationEngine`, where every
attempt costs a PATH/RESV round trip of simulated time: each attempt's
outcome arrives through an engine callback, which feeds it to the
shared body and either launches the next attempt or delivers the
decision.  That yields the quantities the paper's overhead discussion
appeals to but never measures directly:

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
        decision = self._open(request)
        engine = self.reservation
        simulator = engine.simulator
        started_at = simulator.now
        messages = 0
        key: Hashable = None

        def attempt() -> None:
            nonlocal key
            route = self._select(decision)
            key = (request.flow_id, len(decision.tried))
            engine.reserve(
                route,
                key,
                request.bandwidth_bps,
                lambda outcome: conclude(route, outcome),
            )

        def conclude(route: Route, outcome: ReservationOutcome) -> None:
            nonlocal messages
            messages += outcome.messages
            now = simulator.now
            result = self._conclude(decision, route, outcome.success, now)
            if result is None:
                attempt()
                return
            if result.admitted:
                self._reservation_keys[request.flow_id] = key
            on_decision(
                SignalledAdmissionResult(
                    result=result,
                    latency_s=now - started_at,
                    messages=messages,
                    reservation_key=key if result.admitted else None,
                )
            )

        attempt()

    def release(self, flow: AdmittedFlow) -> None:
        """Tear down an admitted flow by a TEAR sweep (idempotent)."""
        if flow.released:
            return
        key = self._reservation_keys.pop(flow.flow_id)
        self.reservation.release(flow.path, key)
        flow.released = True
