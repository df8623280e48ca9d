"""Hop-by-hop RSVP-lite reservation sessions.

One :class:`RsvpSession` performs one check-and-reserve attempt along
a fixed route in simulated time:

1. a PATH message travels source → destination, advisorily checking
   available bandwidth at each hop (failing fast where bandwidth is
   already missing);
2. at the destination it turns around as a RESV message that travels
   destination → source, *actually* reserving bandwidth on each link
   (in the upstream direction of data flow) and accumulating the
   bottleneck available bandwidth — the route-bandwidth feedback the
   WD/D+B algorithm needs RESV to carry;
3. if a link refuses (a competing session won the race since the PATH
   probe), a PATH_ERR is charged for the remaining distance to the
   source and a TEAR sweeps downstream, releasing the partial
   reservations hop by hop.

Message counts and latency are recorded so the experiment harness can
report the true signalling cost of retrials.  Admission probabilities
are unaffected relative to the atomic engine except for rare races,
which tests quantify.

Every hop transfer, TEARs included, goes through a
:class:`repro.signaling.channel.SignalingChannel`.  The default is the
perfect channel — the idealization the paper works in — which makes
exactly one ``schedule`` call per message and no random draws.  A lossy
channel is paired with a
:class:`repro.signaling.channel.RetransmitPolicy` and usually a
:class:`repro.signaling.softstate.LeaseTable`:

* each hop transfer is guarded by a timer; undelivered messages are
  retransmitted with exponential backoff up to a cap, and receivers
  deduplicate late or duplicated copies.  The session asks the channel
  for a transmission's fate before sending it and arms the timer only
  when it can fire: when no copy arrives strictly before the timeout.
  A timer is scheduled before its own copies, so it wins an exact tie;
  a timer that is never armed is one a copy would have cancelled;
* when a transfer exhausts its retransmissions the session gives up:
  a PATH-phase loss behaves like a fail-fast PATH_ERR, a RESV-phase
  loss additionally starts a TEAR sweeping downstream to release the
  partial reservations — through the same unreliable channel, so a
  lost TEAR leaves orphans (which the lease collector later reclaims);
* every installed per-link reservation registers a soft-state lease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

from repro.network.link import InsufficientBandwidthError
from repro.network.routing import Route
from repro.network.topology import Network
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.signaling.softstate import LeaseTable
from repro.sim.engine import Event, Simulator

FlowId = Hashable

#: Per-hop message processing time (seconds); propagation delay comes
#: from each link.  Matches small-router forwarding-plane latencies.
DEFAULT_PROCESSING_DELAY_S = 0.0002


def _check_processing_delay(processing_delay_s: float) -> None:
    # Written so that NaN fails.
    if not 0.0 <= processing_delay_s < math.inf:
        raise ValueError(
            "processing delay must be finite and non-negative, "
            f"got {processing_delay_s}"
        )


@dataclass
class ReservationOutcome:
    """Result of one signalled reservation attempt.

    Attributes
    ----------
    success:
        Whether the route is now reserved for the flow.
    bottleneck_bps:
        Minimum available bandwidth observed by the RESV sweep
        (``inf`` if the PATH probe failed before turning around).
    messages:
        Total messages transmitted (PATH + RESV + PATH_ERR hops,
        including retransmissions; TEAR messages are counted by the
        engine because teardown outlives the attempt).
    latency_s:
        Wall-clock simulated time from start to decision.
    failed_link:
        The ``(u, v)`` pair that refused, if any.
    timed_out:
        Whether the attempt failed because a hop transfer exhausted
        its retransmissions.
    retransmissions:
        Retransmitted messages within the attempt.
    """

    success: bool
    bottleneck_bps: float
    messages: int
    latency_s: float
    failed_link: Optional[tuple] = None
    timed_out: bool = False
    retransmissions: int = 0


class _TearSweep:
    """One TEAR propagating source → destination along a path.

    Each delivered hop releases the upstream link it arrived over and
    drops it from the flow's lease, then forwards the TEAR while the
    next downstream link is still held.  The sweep travels through the
    (possibly lossy) channel with *no* retransmission — RSVP tears are
    unacknowledged — so a lost TEAR strands the remaining links until
    their lease expires.
    """

    __slots__ = (
        "_network",
        "_channel",
        "_path",
        "_flow_id",
        "_processing_delay",
        "_leases",
        "_on_message",
    )

    def __init__(
        self,
        network: Network,
        channel: SignalingChannel,
        path: Sequence,
        flow_id: FlowId,
        processing_delay_s: float,
        leases: Optional[LeaseTable],
        on_message: Callable[[], None],
    ) -> None:
        self._network = network
        self._channel = channel
        self._path = tuple(path)
        self._flow_id = flow_id
        self._processing_delay = processing_delay_s
        self._leases = leases
        self._on_message = on_message

    def start_from(self, node_index: int) -> None:
        """Begin the sweep at ``path[node_index]`` (holds no upstream leg)."""
        self._forward(node_index)

    def release_and_forward(self, node_index: int) -> None:
        """Release the upstream link at ``path[node_index]``, then forward."""
        path = self._path
        link = self._network.link(path[node_index - 1], path[node_index])
        link.release_if_held(self._flow_id)
        if self._leases is not None:
            self._leases.drop_link(self._flow_id, link)
        self._forward(node_index)

    def _forward(self, node_index: int) -> None:
        path = self._path
        if node_index >= len(path) - 1:
            return
        link = self._network.link(path[node_index], path[node_index + 1])
        if not link.holds(self._flow_id):
            # Nothing further downstream to tear (never installed, or
            # already collected); the sweep ends here.
            return
        self._on_message()
        delay = link.propagation_delay_s + self._processing_delay
        self._channel.send(delay, lambda: self.release_and_forward(node_index + 1))


class _Transfer:
    """One PATH or RESV message crossing one hop of a session's path.

    Without a retransmit policy this is a single channel transmission.
    With one, each transmission is guarded by a backoff timer and the
    message is retransmitted until a copy arrives or the cap is
    exhausted, when the session's ``_path_lost``/``_resv_lost`` fires.
    The timer is armed only if no copy of the transmission arrives
    strictly before it; a copy that does would cancel it unfired.  The
    receiver side (:meth:`arrive`) deduplicates, so duplicated or
    straggling copies cannot advance the protocol twice.
    """

    __slots__ = (
        "_session",
        "_delay",
        "_resv",
        "_node",
        "_bottleneck",
        "_tries",
        "_done",
        "_timer",
    )

    def __init__(
        self,
        session: "RsvpSession",
        delay_s: float,
        resv: bool,
        node_index: int,
        bottleneck: float,
    ) -> None:
        session._messages += 1
        self._session = session
        self._delay = delay_s
        # PATH travels away from path[0], RESV towards it; ``node_index``
        # is the sender's position on the path.
        self._resv = resv
        self._node = node_index
        self._bottleneck = bottleneck
        self._tries = 0
        self._done = False
        self._timer: Optional[Event] = None

    def transmit(self) -> None:
        """Send one copy of the message, arming its timer if it can fire."""
        session = self._session
        channel = session._channel
        policy = session._retransmit
        if policy is None:
            channel.send(self._delay, self.arrive)
            return
        timeout = policy.timeout(self._tries)
        arrivals = channel.plan(self._delay)
        simulator = session._simulator
        now = simulator.now
        # Compare the absolute times Simulator.schedule computes.  On a
        # tie the timer fires first: it is scheduled before the copies.
        if not arrivals or now + min(arrivals) >= now + timeout:
            self._timer = simulator.schedule(timeout, self.timed_out)
        channel.send(self._delay, self.arrive)

    def arrive(self) -> None:
        """A copy reached the next node: advance the protocol once."""
        if self._done:
            return  # duplicate or late copy
        self._done = True
        timer = self._timer
        if timer is not None:
            # The timer's callback is our own timed_out: drop it first,
            # or the pair is a cycle only the cyclic GC can free.
            self._timer = None
            timer.cancel()
        if self._resv:
            self._session._advance_resv(self._node - 1, self._bottleneck)
        else:
            self._session._advance_path(self._node + 1)

    def timed_out(self) -> None:
        """No copy arrived in time: retransmit, or give up at the cap."""
        self._timer = None
        session = self._session
        assert session._retransmit is not None  # only armed with a policy
        if self._tries >= session._retransmit.max_retransmits:
            # Give up; suppress any straggler copies still in flight.
            self._done = True
            if self._resv:
                session._resv_lost(self._node, self._bottleneck)
            else:
                session._path_lost(self._node)
            return
        self._tries += 1
        session._messages += 1
        session._retransmissions += 1
        self.transmit()


class RsvpSession:
    """One PATH/RESV exchange for one flow over one route.

    Parameters
    ----------
    simulator, network, route, flow_id, bandwidth_bps, on_complete:
        As before; ``flow_id`` doubles as the reservation key on every
        link (callers running retries pass a per-attempt key so a
        timed-out attempt's orphans never collide with a later
        attempt).
    processing_delay_s:
        Per-hop message processing time (finite, non-negative).
    channel:
        Delivery substrate; defaults to the perfect channel.  A channel
        with loss or duplication requires ``retransmit`` (timers
        provide both recovery and receiver-side deduplication).
    retransmit:
        Optional per-hop timeout/retransmission policy.
    leases:
        Optional soft-state lease table; every installed per-link
        reservation is registered under ``flow_id``.
    on_tear_message:
        Invoked once per TEAR transmission (teardown outlives the
        attempt, so these are not in ``ReservationOutcome.messages``).
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        route: Route,
        flow_id: FlowId,
        bandwidth_bps: float,
        on_complete: Callable[[ReservationOutcome], None],
        processing_delay_s: float = DEFAULT_PROCESSING_DELAY_S,
        channel: Optional[SignalingChannel] = None,
        retransmit: Optional[RetransmitPolicy] = None,
        leases: Optional[LeaseTable] = None,
        on_tear_message: Optional[Callable[[], None]] = None,
    ):
        if not bandwidth_bps >= 0:
            raise ValueError(f"bandwidth must be non-negative, got {bandwidth_bps}")
        _check_processing_delay(processing_delay_s)
        channel = channel if channel is not None else SignalingChannel(simulator)
        if retransmit is None and (
            channel.loss_rate > 0.0 or channel.duplicate_rate > 0.0
        ):
            raise ValueError(
                "a channel with loss or duplication requires a "
                "RetransmitPolicy (timers recover losses and receivers "
                "deduplicate copies)"
            )
        self._simulator = simulator
        self._network = network
        self._route = route
        self._flow_id = flow_id
        self._bandwidth = bandwidth_bps
        self._on_complete = on_complete
        self._processing_delay = processing_delay_s
        self._channel = channel
        self._retransmit = retransmit
        self._leases = leases
        self._on_tear_message = on_tear_message
        self._messages = 0
        self._retransmissions = 0
        self._started_at = simulator.now
        #: legs this session's RESV installed and no TEAR has taken
        #: over yet
        self._reserved_links: list = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the PATH probe from the source."""
        path = self._route.path
        if len(path) < 2:
            # Degenerate zero-hop route: nothing to reserve.
            self._finish(success=True, bottleneck=float("inf"))
            return
        self._advance_path(hop_index=0)

    # ------------------------------------------------------------------
    # PATH phase: source -> destination, advisory checks
    # ------------------------------------------------------------------
    def _advance_path(self, hop_index: int) -> None:
        path = self._route.path
        if hop_index == len(path) - 1:
            # PATH reached the destination: turn around as RESV.
            self._advance_resv(hop_index, math.inf)
            return
        link = self._network.link(path[hop_index], path[hop_index + 1])
        if not link.can_admit(self._bandwidth):
            # Fail fast: charge the hops travelled so far plus an error
            # message back to the source.
            self._messages += hop_index  # PATH_ERR retraces hop_index links
            self._finish(
                success=False,
                bottleneck=float("inf"),
                failed_link=(link.source, link.target),
            )
            return
        delay = link.propagation_delay_s + self._processing_delay
        _Transfer(self, delay, False, hop_index, math.inf).transmit()

    def _path_lost(self, hop_index: int) -> None:
        """The PATH transfer out of ``path[hop_index]`` exhausted retries."""
        path = self._route.path
        self._messages += hop_index  # PATH_ERR retraces hop_index links
        self._finish(
            success=False,
            bottleneck=float("inf"),
            failed_link=(path[hop_index], path[hop_index + 1]),
            timed_out=True,
        )

    # ------------------------------------------------------------------
    # RESV phase: destination -> source, actual reservation
    # ------------------------------------------------------------------
    def _advance_resv(self, node_index: int, bottleneck: float) -> None:
        path = self._route.path
        if node_index == 0:
            self._finish(success=True, bottleneck=bottleneck)
            return
        link = self._network.link(path[node_index - 1], path[node_index])
        available_before = link.available_bps
        try:
            link.reserve(self._flow_id, self._bandwidth)
        except InsufficientBandwidthError:
            # Race lost mid-sweep: charge PATH_ERR messages back to the
            # source and tear the downstream partial reservations hop
            # by hop (the TEAR itself may be lost; leases then cover
            # the orphans).
            self._messages += node_index
            if self._reserved_links:
                self._reserved_links.clear()
                self._start_tear().start_from(node_index)
            self._finish(
                success=False,
                bottleneck=bottleneck,
                failed_link=(link.source, link.target),
            )
            return
        self._reserved_links.append(link)
        if self._leases is not None:
            self._leases.register(self._flow_id, link)
        bottleneck = min(bottleneck, available_before)
        delay = link.propagation_delay_s + self._processing_delay
        _Transfer(self, delay, True, node_index, bottleneck).transmit()

    def _resv_lost(self, node_index: int, bottleneck: float) -> None:
        """The RESV transfer out of ``path[node_index]`` exhausted retries.

        The node releases its own upstream leg immediately (it knows
        the exchange is dead) and tears the rest downstream; the
        source-side outcome is a timed-out failure.
        """
        self._reserved_links.clear()
        self._start_tear().release_and_forward(node_index)
        path = self._route.path
        self._finish(
            success=False,
            bottleneck=bottleneck,
            failed_link=(path[node_index - 1], path[node_index]),
            timed_out=True,
        )

    def _start_tear(self) -> _TearSweep:
        on_message = self._on_tear_message
        return _TearSweep(
            self._network,
            self._channel,
            self._route.path,
            self._flow_id,
            self._processing_delay,
            self._leases,
            on_message if on_message is not None else lambda: None,
        )

    # ------------------------------------------------------------------
    def _finish(
        self,
        success: bool,
        bottleneck: float,
        failed_link: Optional[tuple] = None,
        timed_out: bool = False,
    ) -> None:
        outcome = ReservationOutcome(
            success=success,
            bottleneck_bps=bottleneck,
            messages=self._messages,
            latency_s=self._simulator.now - self._started_at,
            failed_link=failed_link,
            timed_out=timed_out,
            retransmissions=self._retransmissions,
        )
        self._on_complete(outcome)


class SignalledReservationEngine:
    """Asynchronous reservation engine driving RSVP-lite sessions.

    The message-level sibling of
    :class:`repro.core.reservation.AtomicReservationEngine`: same
    check-and-reserve semantics, but the decision arrives after the
    round-trip signalling delay, and message/latency totals accumulate
    for overhead reporting.

    Every session and every release goes through ``channel`` (the
    perfect channel unless given); releases travel as hop-by-hop TEAR
    sweeps, so the links free up one hop delay apart.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        processing_delay_s: float = DEFAULT_PROCESSING_DELAY_S,
        channel: Optional[SignalingChannel] = None,
        retransmit: Optional[RetransmitPolicy] = None,
        leases: Optional[LeaseTable] = None,
    ):
        _check_processing_delay(processing_delay_s)
        self.simulator = simulator
        self.network = network
        self.processing_delay_s = processing_delay_s
        self.channel = channel if channel is not None else SignalingChannel(simulator)
        self.retransmit = retransmit
        self.leases = leases
        self.attempts = 0
        self.failures = 0
        self.total_messages = 0
        self.total_latency_s = 0.0
        #: retransmitted messages across all attempts
        self.total_retransmissions = 0
        #: attempts abandoned because a hop exhausted its retries
        self.timeouts = 0
        #: TEAR transmissions (teardowns outlive their attempts)
        self.tear_messages = 0

    def _count_tear_message(self) -> None:
        self.total_messages += 1
        self.tear_messages += 1

    def reserve(
        self,
        route: Route,
        flow_id: FlowId,
        bandwidth_bps: float,
        on_complete: Callable[[ReservationOutcome], None],
    ) -> None:
        """Start a reservation attempt; ``on_complete`` fires later.

        ``flow_id`` is the reservation key on every link;
        :class:`repro.signaling.admission.SignalledACRouter` passes a
        per-attempt key.
        """
        self.attempts += 1

        def record_and_forward(outcome: ReservationOutcome) -> None:
            if not outcome.success:
                self.failures += 1
            self.total_messages += outcome.messages
            self.total_latency_s += outcome.latency_s
            self.total_retransmissions += outcome.retransmissions
            if outcome.timed_out:
                self.timeouts += 1
            on_complete(outcome)

        session = RsvpSession(
            self.simulator,
            self.network,
            route,
            flow_id,
            bandwidth_bps,
            record_and_forward,
            processing_delay_s=self.processing_delay_s,
            channel=self.channel,
            retransmit=self.retransmit,
            leases=self.leases,
            on_tear_message=self._count_tear_message,
        )
        session.start()

    def release(self, path: Sequence, flow_id: FlowId) -> None:
        """Tear down a reservation; TEAR messages are charged.

        Launches a hop-by-hop TEAR sweep through the channel: each
        delivered hop releases its leg, and a lost TEAR strands the
        rest for the lease collector.
        """
        _TearSweep(
            self.network,
            self.channel,
            path,
            flow_id,
            self.processing_delay_s,
            self.leases,
            self._count_tear_message,
        ).start_from(0)

    @property
    def mean_latency_s(self) -> float:
        """Average signalling latency per attempt (0 when untried)."""
        if self.attempts == 0:
            return 0.0
        return self.total_latency_s / self.attempts

    @property
    def mean_messages(self) -> float:
        """Average messages per attempt (0 when untried)."""
        if self.attempts == 0:
            return 0.0
        return self.total_messages / self.attempts
