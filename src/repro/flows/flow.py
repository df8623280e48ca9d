"""The flow record: one request, from arrival to departure.

A :class:`FlowRequest` is what an application hands to the network:
"establish an anycast flow from this source to this group with this
QoS".  The same slotted record then carries the request through its
whole life.  Admission control runs the Figure 1 loop on it
(``tried``, ``excluded``) and writes the decision into it; if the
request is admitted, the record is the flow, pinned to one
``destination`` and one ``route`` for its whole lifetime (the paper's
sequencing requirement that every packet of a flow goes to the member
the first packet reached) until it is ``released``.  Its ``route`` and
``reservation_key`` are the one address of its reservation: admission
reserves the route's resolved links under the key, and every release
tears down those same links under the same key.  A simulation
driver schedules the record's :meth:`FlowRequest.arrive` and
:meth:`FlowRequest.depart` as its arrival and departure events, so no
closure is built per request or per flow.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable, Optional, Protocol

from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.routing import Route
    from repro.sim.engine import Event

NodeId = Hashable


class FlowDriver(Protocol):
    """The simulation whose events a record's arrival and departure are."""

    def on_arrival(self, request: FlowRequest) -> None:
        """The request arrives: decide it."""
        ...

    def on_departure(self, flow: FlowRequest) -> None:
        """The admitted flow ends: release it."""
        ...


class FlowRequest:
    """An anycast flow request and, once decided, its outcome.

    The request fields are set once, here; ``bandwidth_bps`` is derived
    from ``qos`` once.  Every other attribute is written by admission
    control or by the simulation driver.

    Attributes
    ----------
    flow_id:
        Unique identifier; also keys the per-link reservation ledgers.
    source:
        Source node (the AC-router that handles admission).
    group:
        The anycast destination group ``G(A)``.
    qos:
        QoS requirement.
    arrival_time:
        Simulation time at which the request arrived.
    lifetime_s:
        Flow holding time, sampled at arrival (exponential in the
        paper's workload).  ``None`` for open-ended flows that are torn
        down explicitly.
    bandwidth_bps:
        Effective bandwidth the network must reserve for this flow.
    tried:
        Destinations tried, in order.
    excluded:
        Refused destinations the next draw must skip; ``None`` before
        the loop opens and once it concludes.
    attempts:
        Destinations tried by the decision (the final value of the
        paper's retrial counter ``c``); GDI's global search counts as
        one attempt.
    destination:
        The member the flow is pinned to; ``None`` unless admitted.
    route:
        The :class:`~repro.network.routing.Route` of the current
        attempt, then of the admitted flow: the links its reservation
        is held on.  Cleared with ``reservation_key`` on refusal.
    decided_at:
        Simulation time of the decision; ``None`` until decided.
    released:
        Whether the admitted flow's reservations were torn down.
    reservation_key:
        The key the flow's links are held under while an attempt runs
        and after admission: ``flow_id`` on the atomic plane, the
        per-attempt ``(flow_id, attempt)`` on the signalled plane.
        ``None`` before the loop opens and once the request is refused.
    latency_s:
        Simulated time from submission to decision (0 when reservations
        are atomic).
    driver:
        The simulation that scheduled the record's events.
    departure:
        The admitted flow's pending departure event; cleared once it
        fires or is cancelled, since its callback refers back here.
    """

    __slots__ = (
        "flow_id",
        "source",
        "group",
        "qos",
        "arrival_time",
        "lifetime_s",
        "bandwidth_bps",
        "tried",
        "excluded",
        "attempts",
        "destination",
        "route",
        "decided_at",
        "released",
        "reservation_key",
        "latency_s",
        "driver",
        "departure",
    )

    def __init__(
        self,
        flow_id: int,
        source: NodeId,
        group: AnycastGroup,
        qos: QoSRequirement,
        arrival_time: float = 0.0,
        lifetime_s: Optional[float] = None,
    ) -> None:
        # Written so that NaN fails: a non-finite time would be admitted
        # and then break the event loop in the middle of a run.
        if not 0.0 <= arrival_time < math.inf:
            raise ValueError(
                f"arrival time must be finite and non-negative, got {arrival_time}"
            )
        if lifetime_s is not None and not 0.0 <= lifetime_s < math.inf:
            raise ValueError(
                f"lifetime must be finite and non-negative, got {lifetime_s}"
            )
        self.flow_id = flow_id
        self.source = source
        self.group = group
        self.qos = qos
        self.arrival_time = arrival_time
        self.lifetime_s = lifetime_s
        self.bandwidth_bps = qos.effective_bandwidth_bps
        self.tried: list[NodeId] = []
        self.excluded: Optional[set[NodeId]] = None
        self.attempts = 0
        self.destination: Optional[NodeId] = None
        self.route: Optional[Route] = None
        self.decided_at: Optional[float] = None
        self.released = False
        self.reservation_key: Optional[Hashable] = None
        self.latency_s = 0.0
        self.driver: Optional[FlowDriver] = None
        self.departure: Optional[Event] = None

    @property
    def admitted(self) -> bool:
        """Whether the flow was established (node 0 is a valid member)."""
        return self.destination is not None

    def arrive(self) -> None:
        """The arrival event: hand the request to its driver."""
        assert self.driver is not None  # set by the driver that scheduled it
        self.driver.on_arrival(self)

    def depart(self) -> None:
        """The departure event: hand the ended flow to its driver."""
        assert self.driver is not None  # set by the driver that scheduled it
        self.driver.on_departure(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowRequest(flow_id={self.flow_id!r}, source={self.source!r}, "
            f"destination={self.destination!r}, decided_at={self.decided_at!r})"
        )
