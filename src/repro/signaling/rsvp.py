"""Hop-by-hop RSVP-lite reservation sessions.

A :class:`SignalledReservationEngine` is the signalling plane: every
:meth:`~SignalledReservationEngine.reserve` runs one session of the
engine, a check-and-reserve attempt along a fixed route in simulated
time:

1. a PATH message travels source → destination, advisorily checking
   available bandwidth at each hop (failing fast where bandwidth is
   already missing);
2. at the destination it turns around as a RESV message that travels
   destination → source, *actually* reserving bandwidth on each link
   (in the upstream direction of data flow).  RESV carries no
   bottleneck: WD/D+B reads each route's available bandwidth from the
   link-state columns, not from the reservation's messages;
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
  A copy that lands before the backoff's floor (``base * (1 -
  jitter)``, a lower bound on every jittered timeout) beats any
  timeout, so the session draws no timeout for it and passes its
  jitter variate over; the timeouts it does draw read the variates
  they would read if every transmission drew one.  A timer is
  scheduled before its own copies, so it wins an exact tie; a timer
  that is never armed is one a copy would have cancelled;
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

from repro.network.link import InsufficientBandwidthError, Link
from repro.network.routing import Route
from repro.network.topology import Network
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.signaling.softstate import LeaseTable
from repro.sim.engine import Event, Simulator

FlowId = Hashable

#: Per-hop message processing time (seconds); propagation delay comes
#: from each link.  Matches small-router forwarding-plane latencies.
DEFAULT_PROCESSING_DELAY_S = 0.0002


@dataclass(slots=True)
class ReservationOutcome:
    """Result of one signalled reservation attempt.

    Attributes
    ----------
    success:
        Whether the route is now reserved for the flow.
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
    their lease expires.  ``links[i]`` is the link out of the path's
    node ``i``.
    """

    __slots__ = ("_engine", "_links", "_flow_id")

    def __init__(
        self,
        engine: SignalledReservationEngine,
        links: Sequence[Link],
        flow_id: FlowId,
    ) -> None:
        self._engine = engine
        self._links = links
        self._flow_id = flow_id

    def start_from(self, node_index: int) -> None:
        """Begin the sweep at node ``node_index`` (holds no upstream leg)."""
        self._forward(node_index)

    def release_and_forward(self, node_index: int) -> None:
        """Release the upstream link of node ``node_index``, then forward."""
        link = self._links[node_index - 1]
        link.release_if_held(self._flow_id)
        leases = self._engine.leases
        if leases is not None:
            leases.drop_link(self._flow_id, link)
        self._forward(node_index)

    def _forward(self, node_index: int) -> None:
        links = self._links
        if node_index >= len(links):
            return
        link = links[node_index]
        if not link.holds(self._flow_id):
            # Nothing further downstream to tear (never installed, or
            # already collected); the sweep ends here.
            return
        engine = self._engine
        # TEARs outlive their attempt, so the engine charges them.
        engine.total_messages += 1
        engine.tear_messages += 1
        delay = link.propagation_delay_s + engine.processing_delay_s
        engine.channel.send(delay, lambda: self.release_and_forward(node_index + 1))


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

    __slots__ = ("_session", "_delay", "_resv", "_node", "_tries", "_done", "_timer")

    def __init__(
        self, session: _Session, delay_s: float, resv: bool, node_index: int
    ) -> None:
        session._messages += 1
        self._session = session
        self._delay = delay_s
        # PATH travels away from path[0], RESV towards it; ``node_index``
        # is the sender's position on the path.
        self._resv = resv
        self._node = node_index
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
        arrivals = channel.plan(self._delay)
        simulator = session._simulator
        now = simulator.now
        backoff = policy.backoff
        # Compare the absolute times Simulator.schedule computes.  On a
        # tie the timer fires first: it is scheduled before the copies.
        landed = now + min(arrivals) if arrivals else math.inf
        tries = self._tries
        if landed < now + backoff.floor(tries):
            # The copy beats every timeout the backoff could draw.
            backoff.skipped += 1
        else:
            timeout = policy.timeout(tries)
            if landed >= now + timeout:
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
            self._session._advance_resv(self._node - 1)
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
                session._resv_lost(self._node)
            else:
                session._path_lost(self._node)
            return
        self._tries += 1
        session._messages += 1
        session._retransmissions += 1
        self.transmit()


class _Session:
    """One PATH/RESV exchange for one flow over one route of an engine.

    The engine's settings are copied into slots because every hop reads
    them.  The hops index the route's resolved links: ``_links[i]``
    carries the flow out of the path's node ``i``.
    """

    __slots__ = (
        "_engine",
        "_simulator",
        "_channel",
        "_retransmit",
        "_leases",
        "_processing_delay",
        "_links",
        "_flow_id",
        "_bandwidth",
        "_on_complete",
        "_messages",
        "_retransmissions",
        "_started_at",
        "_reserved_links",
    )

    def __init__(
        self,
        engine: SignalledReservationEngine,
        route: Route,
        flow_id: FlowId,
        bandwidth_bps: float,
        on_complete: Callable[[ReservationOutcome], None],
    ) -> None:
        if not bandwidth_bps >= 0:
            raise ValueError(f"bandwidth must be non-negative, got {bandwidth_bps}")
        self._engine = engine
        self._simulator = engine.simulator
        self._channel = engine.channel
        self._retransmit = engine.retransmit
        self._leases = engine.leases
        self._processing_delay = engine.processing_delay_s
        self._links = route.resolve_links(engine.network)
        self._flow_id = flow_id
        self._bandwidth = bandwidth_bps
        self._on_complete = on_complete
        self._messages = 0
        self._retransmissions = 0
        self._started_at = engine.simulator.now
        #: legs this session's RESV installed and no TEAR has taken
        #: over yet
        self._reserved_links: list[Link] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the PATH probe from the source."""
        if not self._links:
            # Degenerate zero-hop route: nothing to reserve.
            self._finish(success=True)
            return
        self._advance_path(hop_index=0)

    # ------------------------------------------------------------------
    # PATH phase: source -> destination, advisory checks
    # ------------------------------------------------------------------
    def _advance_path(self, hop_index: int) -> None:
        links = self._links
        if hop_index == len(links):
            # PATH reached the destination: turn around as RESV.
            self._advance_resv(hop_index)
            return
        link = links[hop_index]
        if not link.can_admit(self._bandwidth):
            # Fail fast: charge the hops travelled so far plus an error
            # message back to the source.
            self._messages += hop_index  # PATH_ERR retraces hop_index links
            self._finish(success=False, failed_link=(link.source, link.target))
            return
        delay = link.propagation_delay_s + self._processing_delay
        _Transfer(self, delay, False, hop_index).transmit()

    def _path_lost(self, hop_index: int) -> None:
        """The PATH transfer out of ``path[hop_index]`` exhausted retries."""
        link = self._links[hop_index]
        self._messages += hop_index  # PATH_ERR retraces hop_index links
        self._finish(
            success=False, failed_link=(link.source, link.target), timed_out=True
        )

    # ------------------------------------------------------------------
    # RESV phase: destination -> source, actual reservation
    # ------------------------------------------------------------------
    def _advance_resv(self, node_index: int) -> None:
        if node_index == 0:
            self._finish(success=True)
            return
        links = self._links
        link = links[node_index - 1]
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
                _TearSweep(self._engine, links, self._flow_id).start_from(node_index)
            self._finish(success=False, failed_link=(link.source, link.target))
            return
        self._reserved_links.append(link)
        if self._leases is not None:
            self._leases.register(self._flow_id, link)
        delay = link.propagation_delay_s + self._processing_delay
        _Transfer(self, delay, True, node_index).transmit()

    def _resv_lost(self, node_index: int) -> None:
        """The RESV transfer out of ``path[node_index]`` exhausted retries.

        The node releases its own upstream leg immediately (it knows
        the exchange is dead) and tears the rest downstream; the
        source-side outcome is a timed-out failure.
        """
        self._reserved_links.clear()
        _TearSweep(self._engine, self._links, self._flow_id).release_and_forward(
            node_index
        )
        link = self._links[node_index - 1]
        self._finish(
            success=False, failed_link=(link.source, link.target), timed_out=True
        )

    # ------------------------------------------------------------------
    def _finish(
        self,
        success: bool,
        failed_link: Optional[tuple] = None,
        timed_out: bool = False,
    ) -> None:
        outcome = ReservationOutcome(
            success=success,
            messages=self._messages,
            latency_s=self._simulator.now - self._started_at,
            failed_link=failed_link,
            timed_out=timed_out,
            retransmissions=self._retransmissions,
        )
        engine = self._engine
        if not success:
            engine.failures += 1
        engine.total_messages += outcome.messages
        engine.total_latency_s += outcome.latency_s
        engine.total_retransmissions += outcome.retransmissions
        if timed_out:
            engine.timeouts += 1
        self._on_complete(outcome)


class SignalledReservationEngine:
    """Asynchronous reservation engine driving RSVP-lite sessions.

    The message-level sibling of
    :class:`repro.core.reservation.AtomicReservationEngine`: same
    check-and-reserve semantics, but the decision arrives after the
    round-trip signalling delay, and message/latency totals accumulate
    for overhead reporting.

    Parameters
    ----------
    simulator, network:
        The clock the sessions run on and the links they reserve.
    processing_delay_s:
        Per-hop message processing time (finite, non-negative).
    channel:
        Delivery substrate for every session and release; defaults to
        the perfect channel.  A channel with loss or duplication
        requires ``retransmit`` (timers provide both recovery and
        receiver-side deduplication) and is refused here, before any
        attempt, without one.
    retransmit:
        Optional per-hop timeout/retransmission policy.
    leases:
        Optional soft-state lease table; every installed per-link
        reservation is registered under its reservation key.

    Releases travel as hop-by-hop TEAR sweeps, so the links free up
    one hop delay apart.
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
        # Written so that NaN fails.
        if not 0.0 <= processing_delay_s < math.inf:
            raise ValueError(
                "processing delay must be finite and non-negative, "
                f"got {processing_delay_s}"
            )
        channel = channel if channel is not None else SignalingChannel(simulator)
        if retransmit is None and (
            channel.loss_rate > 0.0 or channel.duplicate_rate > 0.0
        ):
            raise ValueError(
                "a channel with loss or duplication requires a "
                "RetransmitPolicy (timers recover losses and receivers "
                "deduplicate copies)"
            )
        self.simulator = simulator
        self.network = network
        self.processing_delay_s = processing_delay_s
        self.channel = channel
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
        per-attempt key so a timed-out attempt's orphans never collide
        with a later attempt.
        """
        session = _Session(self, route, flow_id, bandwidth_bps, on_complete)
        self.attempts += 1  # counted once the session validated its request
        session.start()

    def release(self, route: Route, flow_id: FlowId) -> None:
        """Tear down the reservation along ``route``; TEAR messages are charged.

        Launches a hop-by-hop TEAR sweep through the channel: each
        delivered hop releases its leg, and a lost TEAR strands the
        rest for the lease collector.
        """
        _TearSweep(self, route.resolve_links(self.network), flow_id).start_from(0)

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
