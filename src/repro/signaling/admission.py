"""The DAC procedure driven by asynchronous RSVP-lite signalling.

:class:`repro.core.admission.ACRouter` decides instantly because its
reservation engine is atomic — the abstraction the paper's simulation
uses.  This module runs the *same* Figure 1 loop on top of
:class:`repro.signaling.rsvp.SignalledReservationEngine`, where every
attempt costs a PATH/RESV round trip of simulated time.  That yields
the quantities the paper's overhead discussion appeals to but never
measures directly:

* **admission latency** — arrival to final decision, growing with each
  retrial by a full signalling round trip;
* **message count** — PATH/RESV/PATH_ERR transmissions per request.

The selection/retrial semantics match the synchronous AC-router
exactly; with no concurrent signalling races the decisions are
identical (a property the test suite asserts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.core.admission import AdmissionResult
from repro.core.retrial import RetrialPolicy
from repro.core.selection import DestinationSelector
from repro.flows.flow import AdmittedFlow, FlowRequest
from repro.flows.group import AnycastGroup
from repro.network.routing import RouteTable
from repro.network.topology import Network
from repro.signaling.rsvp import ReservationOutcome, SignalledReservationEngine
from repro.sim.engine import Simulator
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
    """

    result: AdmissionResult
    latency_s: float
    messages: int
    #: Reservation key the links were reserved under (robust mode uses
    #: per-attempt keys; ``None`` means the plain flow id was used).
    reservation_key: Optional[Hashable] = None

    @property
    def admitted(self) -> bool:
        """Whether the flow was established."""
        return self.result.admitted


class SignalledACRouter:
    """An AC-router whose reservations take signalling time.

    Decisions are delivered through a callback because they complete
    only after the (simulated) PATH/RESV exchanges.

    Parameters mirror :class:`repro.core.admission.ACRouter`; the
    reservation engine is the message-level one.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        source: NodeId,
        group: AnycastGroup,
        selector: DestinationSelector,
        retrial_policy: RetrialPolicy,
        rng: RandomStream,
        engine: Optional[SignalledReservationEngine] = None,
    ):
        self.simulator = simulator
        self.network = network
        self.source = source
        self.group = group
        self.selector = selector
        self.retrial_policy = retrial_policy
        self.rng = rng
        self.engine = engine or SignalledReservationEngine(simulator, network)
        self.routes = RouteTable(network, source, group.members)
        self.requests_seen = 0
        self.requests_admitted = 0
        # Robust mode reserves under per-attempt keys so the orphans
        # of a timed-out attempt can never collide with (or be torn
        # down by) a later attempt of the same flow.  This maps an
        # admitted flow to the key its links are actually held under.
        self._reservation_keys: dict[Hashable, Hashable] = {}

    def admit(
        self,
        request: FlowRequest,
        on_decision: Callable[[SignalledAdmissionResult], None],
    ) -> None:
        """Start the DAC loop; ``on_decision`` fires when it concludes."""
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
        started_at = self.simulator.now
        state = {
            "attempts": 0,
            "tried": [],
            "excluded": set(),
            "messages": 0,
            "key": None,
        }

        robust = self.engine.robust

        def attempt() -> None:
            destination = self.selector.select(self.rng, exclude=state["excluded"])
            state["attempts"] += 1
            state["tried"].append(destination)
            route = self.routes.route_to(destination)
            key = (
                (request.flow_id, state["attempts"]) if robust else request.flow_id
            )
            state["key"] = key
            self.engine.reserve(
                route,
                key,
                request.bandwidth_bps,
                lambda outcome: conclude_or_retry(destination, route, outcome),
            )

        def conclude_or_retry(destination, route, outcome: ReservationOutcome):
            state["messages"] += outcome.messages
            self.selector.observe(destination, outcome.success)
            if outcome.success:
                self.requests_admitted += 1
                flow = AdmittedFlow(
                    request=request,
                    destination=destination,
                    path=route.path,
                    admitted_at=self.simulator.now,
                    attempts=state["attempts"],
                )
                self._reservation_keys[request.flow_id] = state["key"]
                finish(flow)
                return
            state["excluded"].add(destination)
            keep_going = self.retrial_policy.should_retry(
                attempts_made=state["attempts"],
                distinct_tried=len(state["excluded"]),
                group_size=self.group.size,
            )
            if keep_going:
                attempt()
            else:
                finish(None)

        def finish(flow: Optional[AdmittedFlow]) -> None:
            result = AdmissionResult(
                request=request,
                flow=flow,
                attempts=state["attempts"],
                tried=tuple(state["tried"]),
                decided_at=self.simulator.now,
            )
            on_decision(
                SignalledAdmissionResult(
                    result=result,
                    latency_s=self.simulator.now - started_at,
                    messages=state["messages"],
                    reservation_key=state["key"] if flow is not None else None,
                )
            )

        attempt()

    def reservation_key_for(self, flow: AdmittedFlow) -> Hashable:
        """The key ``flow``'s links are reserved under."""
        return self._reservation_keys.get(flow.flow_id, flow.flow_id)

    def release(self, flow: AdmittedFlow) -> None:
        """Tear down an admitted flow (TEAR messages charged)."""
        if flow.released:
            return
        key = self._reservation_keys.pop(flow.flow_id, flow.flow_id)
        self.engine.release(flow.path, key)
        flow.released = True
