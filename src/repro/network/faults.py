"""Link faults and repairs (the paper's Section 3 extension hook).

The paper assumes a fault-free network "between any pair of nodes,
there exists at least one functioning path", noting that "our approach
can be extended to deal with the situation when this assumption does
not hold".  This module implements that extension:

* A fault is link state.  Failing a cable empties both of its links'
  ledgers and sets their slots in the shared
  :class:`~repro.network.link.LinkStateArrays` capacity column to
  :data:`DOWN_CAPACITY_BPS`; repairing it writes the saved nominal
  capacities back.  Every admission check and the WD/D+B column scan
  (of the live columns or a snapshot copy) already reads
  ``capacity - reserved``, so each of them refuses a down hop, or
  scores it as having no bandwidth, with no fault check of its own.
* Flows that were traversing a failed link are killed (their
  reservations released everywhere) — the behaviour of a hard RSVP
  state timeout.
* :class:`FaultInjector` schedules random link down/up events on the
  simulation clock (exponential time-to-failure and time-to-repair),
  and notifies a callback with the flows it killed so the simulation
  can record them.

AC-routers keep their fixed routes (the paper's model); a route
through a failed link simply fails reservation, and retrial control
redirects the request to another member — which is precisely how the
DAC procedure absorbs faults without new machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional

from repro import invariants as _invariants
from repro.network.link import ADMIT_EPSILON_BPS
from repro.network.topology import Network
from repro.sim.engine import Event, Simulator
from repro.sim.random_streams import RandomStream

NodeId = Hashable
FlowId = Hashable
LinkKey = tuple[NodeId, NodeId]

#: What a down link's capacity slot reads.  Its ledger is empty, so the
#: admission test ``b <= capacity - reserved + ADMIT_EPSILON_BPS`` reads
#: ``b <= 0.0`` and refuses every positive request, while the link's
#: available bandwidth stays within the sanitizer's admission slack.
DOWN_CAPACITY_BPS = -ADMIT_EPSILON_BPS


def check_fault_means(
    mean_time_to_failure_s: float, mean_time_to_repair_s: float
) -> None:
    """Raise ``ValueError`` unless both means are positive and finite.

    Written so that NaN fails: it passes a sign check, then breaks a run.
    """
    if not (
        0.0 < mean_time_to_failure_s < math.inf
        and 0.0 < mean_time_to_repair_s < math.inf
    ):
        raise ValueError(
            "failure and repair means must be positive and finite, got "
            f"{mean_time_to_failure_s}, {mean_time_to_repair_s}"
        )


@dataclass
class FaultEvent:
    """One fault-state transition, for tracing."""

    time: float
    link: LinkKey
    failed: bool
    killed_flows: tuple[FlowId, ...] = ()


class FaultState:
    """Fails and repairs the cables of a network.

    Both directions of a cable fail together (a fiber cut).  A down
    cable's links read :data:`DOWN_CAPACITY_BPS` in the capacity column
    until :meth:`repair` writes back the nominal capacities that
    :meth:`fail` saved; those saved values are the only record of which
    cables are down.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        #: Each down cable's ``(link id, nominal capacity)`` pairs.
        self._nominal: dict[frozenset[NodeId], list[tuple[int, float]]] = {}
        self.events: list[FaultEvent] = []

    @staticmethod
    def _cable(u: NodeId, v: NodeId) -> frozenset[NodeId]:
        return frozenset((u, v))

    def is_down(self, u: NodeId, v: NodeId) -> bool:
        """Whether the physical cable between ``u`` and ``v`` is down."""
        return self._cable(u, v) in self._nominal

    def down_cables(self) -> list[tuple[NodeId, ...]]:
        """Currently failed cables as sorted node pairs."""
        return sorted(tuple(sorted(cable, key=repr)) for cable in self._nominal)

    def fail(self, u: NodeId, v: NodeId, now: float = 0.0) -> list[FlowId]:
        """Fail the cable; returns the flows whose reservations crossed it.

        The affected flows' reservations are released on *both
        directions* of the failed cable only — the caller must finish
        the teardown along the rest of each flow's route (it knows the
        routes; this module does not).
        """
        if not self.network.has_link(u, v):
            raise ValueError(f"no cable between {u!r} and {v!r}")
        cable = self._cable(u, v)
        if cable in self._nominal:
            return []
        capacity = self.network.link_state.capacity
        killed: list[FlowId] = []
        saved: list[tuple[int, float]] = []
        for a, b in ((u, v), (v, u)):
            if self.network.has_link(a, b):
                link = self.network.link(a, b)
                for flow_id in list(link.flows()):
                    # Iterating a snapshot of this link's own ledger:
                    # every flow in it is held here, release cannot raise.
                    link.release(flow_id)  # repro-lint: disable=R5
                    killed.append(flow_id)
                saved.append((link.index, capacity[link.index]))
                capacity[link.index] = DOWN_CAPACITY_BPS
                if _invariants.enabled:
                    _invariants.check_link(link)
        self._nominal[cable] = saved
        self.events.append(
            FaultEvent(time=now, link=(u, v), failed=True, killed_flows=tuple(killed))
        )
        return killed

    def repair(self, u: NodeId, v: NodeId, now: float = 0.0) -> None:
        """Bring the cable back into service at its nominal capacity."""
        saved = self._nominal.pop(self._cable(u, v), None)
        if saved is None:
            return
        capacity = self.network.link_state.capacity
        for index, nominal in saved:
            capacity[index] = nominal
        self.events.append(FaultEvent(time=now, link=(u, v), failed=False))


class FaultInjector:
    """Schedules random fail/repair cycles on the simulation clock.

    Each physical cable independently alternates between up and down
    states with exponential holding times.

    Parameters
    ----------
    simulator:
        The event engine to schedule on.
    faults:
        Shared fault state.
    rng:
        Random stream for failure/repair times.
    mean_time_to_failure_s / mean_time_to_repair_s:
        Exponential means of the up and down periods.
    cables:
        The cables subject to faults (defaults to every cable); each
        must be a link of the network.
    on_fail:
        Callback ``(cable, killed_flow_ids)`` invoked at each failure
        so the owning simulation can finish tearing down killed flows.
    """

    def __init__(
        self,
        simulator: Simulator,
        faults: FaultState,
        rng: RandomStream,
        mean_time_to_failure_s: float,
        mean_time_to_repair_s: float,
        cables: Optional[Iterable[LinkKey]] = None,
        on_fail: Optional[Callable[[LinkKey, list[FlowId]], None]] = None,
    ) -> None:
        check_fault_means(mean_time_to_failure_s, mean_time_to_repair_s)
        self.simulator = simulator
        self.faults = faults
        self.rng = rng
        self.mttf = mean_time_to_failure_s
        self.mttr = mean_time_to_repair_s
        self.on_fail = on_fail
        if cables is None:
            seen: set[frozenset[NodeId]] = set()
            cables = []
            for link in faults.network.links():
                cable = frozenset((link.source, link.target))
                if cable not in seen:
                    seen.add(cable)
                    cables.append((link.source, link.target))
        self.cables = list(cables)
        for u, v in self.cables:
            if not faults.network.has_link(u, v):
                raise ValueError(f"no cable between {u!r} and {v!r}")
        self.failures_injected = 0
        self._stopped = False
        # Each cable has at most one timer armed at a time (the next
        # failure while up, the repair while down); tracked so stop()
        # can cancel them instead of leaving dead events in the
        # calendar.
        self._pending: dict[LinkKey, Event] = {}

    def start(self) -> None:
        """Arm the first failure timer of every cable."""
        self._stopped = False
        for cable in self.cables:
            self._schedule_failure(cable)

    def stop(self) -> None:
        """Cease injecting: pending fail/repair timers are cancelled.

        Without this, the injector's self-rescheduling timers keep the
        event calendar non-empty forever, so a caller that wants to
        drain remaining flow departures after the measurement horizon
        (``simulator.run()`` with no bound) would never return.
        Cancellation removes the timers outright — after ``stop()``
        the injector contributes nothing to ``pending_count`` and
        injects no further transitions.  A cable that is down when
        ``stop()`` is called *stays* down (its repair timer is
        cancelled too); repair it explicitly via ``faults.repair`` if
        the scenario needs the cable back.
        """
        self._stopped = True
        for event in self._pending.values():
            event.cancel()
        self._pending.clear()

    def _schedule_failure(self, cable: LinkKey) -> None:
        delay = self.rng.exponential(self.mttf)
        self._pending[cable] = self.simulator.schedule(
            delay, lambda: self._fail(cable)
        )

    def _fail(self, cable: LinkKey) -> None:
        self._pending.pop(cable, None)
        if self._stopped:
            return
        u, v = cable
        killed = self.faults.fail(u, v, now=self.simulator.now)
        self.failures_injected += 1
        if self.on_fail is not None:
            self.on_fail(cable, killed)
        self._pending[cable] = self.simulator.schedule(
            self.rng.exponential(self.mttr), lambda: self._repair(cable)
        )

    def _repair(self, cable: LinkKey) -> None:
        self._pending.pop(cable, None)
        u, v = cable
        self.faults.repair(u, v, now=self.simulator.now)
        if not self._stopped:
            self._schedule_failure(cable)
