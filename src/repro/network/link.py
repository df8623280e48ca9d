"""Directed capacitated links with per-flow reservation ledgers.

The paper's network model (Section 3) gives every link a capacity that
is consumed by active anycast flows; the *available bandwidth*
``AB_l`` is what admission control checks and what the WD/D+B
destination-selection algorithm feeds on.

A physical cable is modelled as two :class:`Link` objects, one per
direction, since a flow consumes bandwidth only in its direction of
travel.  Each link keeps a ledger mapping flow identifiers to granted
bandwidth so releases are exact, double-reservations are caught, and
heterogeneous per-flow bandwidths are supported even though the
paper's experiments use a single 64 kbit/s class.

A reservation on a route tests every hop before it writes any: the
paper's PATH probes each hop, and only then does RESV reserve.  A
refused attempt therefore leaves every ledger and column exactly as
it found them; there is nothing to roll back.

Bandwidth *accounting*, however, does not live on the link objects:
every link in a network shares one :class:`LinkStateArrays` — a
columnar store of capacity and reserved totals indexed by a dense
integer link id assigned at construction.  The admission hot paths
(the one grant body :func:`reserve_links`, the WD/D+B bottleneck
scan) read and write those flat arrays directly instead of walking
per-link attribute dicts, and vector consumers (analysis,
future thousands-node topologies) can view the whole network's state
as two contiguous double arrays.
"""

from __future__ import annotations

import math
from array import array
from typing import Hashable, Iterator, Optional, Sequence

from repro import invariants as _invariants

FlowId = Hashable
NodeId = Hashable

#: Admission slack: a request fits if it exceeds the available
#: bandwidth by no more than this (absorbs benign float rounding).
ADMIT_EPSILON_BPS = 1e-9


class InsufficientBandwidthError(RuntimeError):
    """Raised by :meth:`Link.reserve` when the request does not fit."""


class LinkStateArrays:
    """Columnar bandwidth accounting for a set of links.

    One instance is shared by every link of a
    :class:`~repro.network.topology.Network`; slots are appended while
    the topology is built and the arrays are fixed-size afterwards
    (the paper's networks are static).  ``capacity[i]`` and
    ``reserved[i]`` are the capacity and reserved totals of the link
    with id ``i``; available bandwidth is always computed as
    ``capacity[i] - reserved[i]`` at read time, never maintained
    incrementally, so results are bit-identical to per-link
    accounting.

    The ``array('d')`` columns support the buffer protocol, so numpy
    consumers can wrap them zero-copy with ``numpy.frombuffer``.
    """

    __slots__ = ("capacity", "reserved")

    def __init__(self) -> None:
        self.capacity = array("d")
        self.reserved = array("d")

    def __len__(self) -> int:
        return len(self.capacity)

    def add(self, capacity_bps: float) -> int:
        """Append a slot with ``capacity_bps`` and return its link id."""
        index = len(self.capacity)
        self.capacity.append(float(capacity_bps))
        self.reserved.append(0.0)
        return index

    def copy(self) -> "LinkStateArrays":
        """An independent copy of both columns (a link-state snapshot)."""
        columns = LinkStateArrays()
        columns.capacity = self.capacity[:]
        columns.reserved = self.reserved[:]
        return columns


class Link:
    """A directed link from ``source`` to ``target``.

    Parameters
    ----------
    source, target:
        Endpoint node identifiers.
    capacity_bps:
        Bandwidth available to anycast flows, in bits per second;
        finite and non-negative.  In the paper's setup this is the
        20 % anycast share of a 100 Mbit/s cable, i.e. 20 Mbit/s.
    propagation_delay_s:
        One-way propagation delay, finite and non-negative; used by the
        RSVP-lite signalling model (the admission results themselves do
        not depend on it).
    state:
        The :class:`LinkStateArrays` this link's accounting lives in;
        a network passes its shared instance.  A stand-alone link
        (constructed directly, e.g. in tests) gets a private
        single-slot store.
    """

    __slots__ = (
        "source",
        "target",
        "propagation_delay_s",
        "_reservations",
        "_state",
        "_index",
        "rejections",
        "grants",
    )

    def __init__(
        self,
        source: NodeId,
        target: NodeId,
        capacity_bps: float,
        propagation_delay_s: float = 0.001,
        state: Optional[LinkStateArrays] = None,
    ) -> None:
        # Written so that NaN fails the comparison and is refused.
        if not 0 <= capacity_bps < math.inf:
            raise ValueError(
                f"capacity must be finite and non-negative, got {capacity_bps}"
            )
        if not 0 <= propagation_delay_s < math.inf:
            raise ValueError(
                "propagation delay must be finite and non-negative, "
                f"got {propagation_delay_s}"
            )
        self.source = source
        self.target = target
        self.propagation_delay_s = float(propagation_delay_s)
        self._state = state if state is not None else LinkStateArrays()
        self._index = self._state.add(capacity_bps)
        self._reservations: dict[FlowId, float] = {}
        #: number of reservation attempts refused for lack of bandwidth
        self.rejections = 0
        #: number of reservation attempts that passed this link's
        #: admission test: one PATH probe each, also counted when a
        #: later hop of the same attempt refuses and nothing is written
        self.grants = 0

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> LinkStateArrays:
        """The shared columnar store this link's accounting lives in."""
        return self._state

    @property
    def index(self) -> int:
        """Dense link id of this link within :attr:`state`."""
        return self._index

    @property
    def capacity_bps(self) -> float:
        """Link capacity in bits per second."""
        return self._state.capacity[self._index]

    @property
    def reserved_bps(self) -> float:
        """Total bandwidth currently reserved on this link."""
        return self._state.reserved[self._index]

    @property
    def available_bps(self) -> float:
        """Available bandwidth ``AB_l`` — capacity minus reservations."""
        state = self._state
        return state.capacity[self._index] - state.reserved[self._index]

    @property
    def utilization(self) -> float:
        """Instantaneous fraction of capacity reserved (0 without capacity)."""
        state = self._state
        capacity = state.capacity[self._index]
        if capacity <= 0:
            return 0.0
        return state.reserved[self._index] / capacity

    @property
    def flow_count(self) -> int:
        """Number of flows holding reservations."""
        return len(self._reservations)

    def holds(self, flow_id: FlowId) -> bool:
        """Whether ``flow_id`` has a reservation on this link."""
        return flow_id in self._reservations

    def reservation_of(self, flow_id: FlowId) -> float:
        """Bandwidth reserved by ``flow_id`` (0.0 if none)."""
        return self._reservations.get(flow_id, 0.0)

    def flows(self) -> Iterator[FlowId]:
        """Iterate over flow ids with active reservations."""
        return iter(self._reservations)

    # ------------------------------------------------------------------
    # reservation operations
    # ------------------------------------------------------------------
    def can_admit(self, bandwidth_bps: float) -> bool:
        """Whether ``bandwidth_bps`` fits in the available bandwidth."""
        return bandwidth_bps <= self.available_bps + ADMIT_EPSILON_BPS

    def reserve(self, flow_id: FlowId, bandwidth_bps: float) -> None:
        """Reserve ``bandwidth_bps`` for ``flow_id`` on this link.

        The grant is :func:`reserve_links` on this one link; a refusal
        is raised instead of returned.

        Raises
        ------
        InsufficientBandwidthError
            If the link lacks the requested bandwidth.  The rejection
            counter is incremented in that case.
        ValueError
            If the flow already holds a reservation here (a flow
            traverses a link at most once) or the amount is invalid.
        """
        if not reserve_links((self,), flow_id, bandwidth_bps):
            raise InsufficientBandwidthError(
                f"link {self.source}->{self.target}: requested "
                f"{bandwidth_bps:g} bps but only {self.available_bps:g} available"
            )

    def release(self, flow_id: FlowId) -> float:
        """Release the reservation held by ``flow_id``.

        Returns the bandwidth released.

        Raises
        ------
        KeyError
            If the flow holds no reservation on this link.
        """
        bandwidth = self._reservations.pop(flow_id)
        reservations = self._reservations
        state = self._state
        index = self._index
        state.reserved[index] -= bandwidth
        if not reservations or state.reserved[index] < 0:
            # Snap accumulated floating-point drift: with an empty
            # ledger the reserved total is exactly zero by definition,
            # and it can never legitimately go negative.  Without the
            # snap, ~1e5 reserve/release cycles of unequal amounts
            # leave an idle link with available_bps slightly below
            # capacity (or slightly above — leaked capacity), enough
            # to refuse an admissible flow at full occupancy.
            state.reserved[index] = math.fsum(reservations.values())
            assert state.reserved[index] >= 0.0, (
                f"negative reserved total on link {self.source}->{self.target}"
            )
        if _invariants.enabled:
            _invariants.check_link(self)
        return bandwidth

    def release_if_held(self, flow_id: FlowId) -> float:
        """Release the flow's reservation if present; returns amount (or 0)."""
        if flow_id not in self._reservations:
            return 0.0
        return self.release(flow_id)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.source}->{self.target}, "
            f"{self.reserved_bps:g}/{self.capacity_bps:g} bps reserved)"
        )


def reserve_links(
    links: Sequence[Link], flow_id: FlowId, bandwidth_bps: float
) -> bool:
    """Reserve ``bandwidth_bps`` for ``flow_id`` on every one of ``links``.

    The one grant body: :meth:`Link.reserve` calls it with its own
    link, and :class:`~repro.network.topology.Network` binds it as
    ``Network.reserve_links``.  All or nothing, in the paper's PATH
    then RESV order: every hop is tested in route order first, and
    only when every hop passed are the ledgers and the links'
    :class:`LinkStateArrays` slots written.  A refusal therefore
    writes nothing.  Each hop that passes the test counts a grant (one
    PATH probe), also when a later hop refuses; the refusing hop counts
    a rejection and ``False`` is returned.  Returns ``True`` once every
    link holds the reservation.  ``links`` are distinct, as on any
    route, so each test reads the state no earlier hop of this call
    could have changed.

    Raises
    ------
    ValueError
        If the amount is invalid or a link already holds ``flow_id``;
        nothing is written then either.
    """
    if not bandwidth_bps >= 0:
        raise ValueError(f"bandwidth must be non-negative, got {bandwidth_bps}")
    if not links:
        return True
    for link in links:
        ledger = link._reservations
        if flow_id in ledger:
            raise ValueError(
                f"flow {flow_id!r} already reserved on link "
                f"{link.source}->{link.target}"
            )
        state = link._state
        index = link._index
        reserved = state.reserved
        if not (
            bandwidth_bps
            <= state.capacity[index] - reserved[index] + ADMIT_EPSILON_BPS
        ):
            link.rejections += 1
            return False
        link.grants += 1
    # Every hop passed.  The last hop is written through the names its
    # test left bound, so a one-link call (RSVP's RESV hop) walks the
    # links once; a longer route then writes the hops before it.
    amount = float(bandwidth_bps)
    ledger[flow_id] = amount
    reserved[index] += amount
    if links[0] is not link:
        for earlier in links:
            if earlier is link:
                break
            earlier._reservations[flow_id] = amount
            earlier._state.reserved[earlier._index] += amount
    if _invariants.enabled:
        for link in links:
            _invariants.check_link(link)
    return True
