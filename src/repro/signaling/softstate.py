"""Soft-state reservation leases with an orphan garbage collector.

Hard-state reservations leak: when a ``Resv`` is installed but the
confirmation is lost (the sender times out and walks away), or a
``Tear`` is dropped in transit, bandwidth stays reserved on links that
no live flow owns — forever.  RSVP's answer is *soft state*: every
installed reservation is a lease that must be refreshed, and a
periodic collector expires whatever stopped being refreshed.

:class:`LeaseTable` implements that contract for the RSVP-lite layer:

* each successful per-link ``Resv`` installation registers the link
  under the reservation's key and (re)arms the key's lease for
  ``ttl_s`` seconds;
* delivered ``Tear`` messages drop individual links from the lease as
  the teardown sweeps the path (a completed teardown removes the key);
* the owner of an admitted flow refreshes its lease periodically —
  one :meth:`LeaseTable.refresh` per refresh, or, when its refreshes
  cannot be lost, a single :meth:`LeaseTable.hold` that states when the
  first refresh lands and when the last one runs out;
* a sweep every ``sweep_interval_s`` releases every link of every
  expired lease (``release_if_held``, since a fault or competing tear
  may already have dropped some legs) and counts the reclaimed
  bandwidth.

The sweep is **self-quiescing**: it re-arms itself only while leases
exist, and registration re-arms it on demand.  An idle table therefore
keeps no pending event, so an unbounded ``simulator.run()`` used to
drain a finished scenario still terminates — the same design as
:meth:`repro.network.faults.FaultInjector.stop`, without needing an
explicit stop call.

Iteration during the sweep walks the insertion-ordered lease dict, so
collection order — and with it every downstream event sequence — is
deterministic.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional

from repro import invariants as _invariants
from repro.network.link import Link
from repro.network.topology import Network
from repro.sim.engine import Event, Simulator

#: A reservation key: the signalled router's per-attempt
#: ``(flow_id, attempt)`` tuple, which isolates attempts from each other.
LeaseKey = Hashable


class _Lease:
    """Links held under one reservation key, plus its expiry time.

    A held lease (see :meth:`LeaseTable.hold`) also lasts until
    ``held_until`` once the clock reaches ``held_from``.
    """

    __slots__ = ("links", "expires_at", "held_from", "held_until")

    def __init__(self, expires_at: float) -> None:
        self.links: list[Link] = []
        self.expires_at = expires_at
        self.held_from = math.inf
        self.held_until = -math.inf


class LeaseTable:
    """Tracks reservation leases and collects expired orphans.

    Parameters
    ----------
    simulator:
        Event engine for the periodic sweep.
    network:
        The network whose links the leases cover (used only by the
        soft-state invariant check).
    ttl_s:
        Lease lifetime granted by each register/refresh.
    sweep_interval_s:
        Period of the garbage-collection sweep while leases exist.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        ttl_s: float,
        sweep_interval_s: float,
    ) -> None:
        if not 0 < ttl_s < math.inf:
            raise ValueError(f"lease TTL must be positive and finite, got {ttl_s}")
        if not 0 < sweep_interval_s < math.inf:
            raise ValueError(
                f"sweep interval must be positive and finite, got {sweep_interval_s}"
            )
        self._simulator = simulator
        self._network = network
        self.ttl_s = ttl_s
        self.sweep_interval_s = sweep_interval_s
        self._entries: dict[LeaseKey, _Lease] = {}
        self._sweep_event: Optional[Event] = None
        #: expired leases collected (each may span several links)
        self.orphans_collected = 0
        #: total bandwidth reclaimed from expired leases
        self.reclaimed_bps = 0.0
        #: sweeps executed
        self.sweeps = 0

    # ------------------------------------------------------------------
    # lease lifecycle
    # ------------------------------------------------------------------
    def register(self, key: LeaseKey, link: Link) -> None:
        """Record that ``key`` reserved ``link``; (re)arm its lease."""
        lease = self._entries.get(key)
        if lease is None:
            lease = _Lease(self._simulator.now + self.ttl_s)
            self._entries[key] = lease
        else:
            lease.expires_at = self._simulator.now + self.ttl_s
        if link not in lease.links:
            lease.links.append(link)
        self._ensure_sweep()

    def refresh(self, key: LeaseKey) -> bool:
        """Extend ``key``'s lease by the TTL; ``False`` if unknown."""
        lease = self._entries.get(key)
        if lease is None:
            return False
        lease.expires_at = self._simulator.now + self.ttl_s
        return True

    def hold(
        self, key: LeaseKey, first_refresh_at: float, last_refresh_at: float
    ) -> None:
        """Stand in for ``key``'s refreshes from ``first_refresh_at`` on.

        An owner whose refreshes cannot be lost need not send them one
        by one: the times of its first and last refresh fix the lease's
        whole future.  Until ``first_refresh_at`` the lease keeps the
        expiry its registrations gave it; from then on it lasts until
        ``last_refresh_at`` plus the TTL.  While the refreshes come less
        than a TTL apart, every sweep then reaches the verdict it would
        reach had :meth:`refresh` run at each refresh time.  An unknown
        key is ignored: its lease was collected before the hold.
        """
        lease = self._entries.get(key)
        if lease is None:
            return
        lease.held_from = first_refresh_at
        lease.held_until = last_refresh_at + self.ttl_s

    def drop_link(self, key: LeaseKey, link: Link) -> None:
        """Forget ``link`` from ``key``'s lease (a delivered Tear leg).

        The caller releases the link itself; this only updates the
        lease so the collector will not release it a second time.  The
        lease disappears once its last link is dropped.
        """
        lease = self._entries.get(key)
        if lease is None:
            return
        if link in lease.links:
            lease.links.remove(link)
        if not lease.links:
            del self._entries[key]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def covers(self, key: LeaseKey, link: Link) -> bool:
        """Whether ``key`` holds a lease covering ``link``."""
        lease = self._entries.get(key)
        return lease is not None and link in lease.links

    def __contains__(self, key: LeaseKey) -> bool:
        """Whether ``key`` still holds a lease."""
        return key in self._entries

    def live_leases(self) -> int:
        """Number of keys currently holding a lease."""
        return len(self._entries)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def _ensure_sweep(self) -> None:
        if self._sweep_event is None:
            self._sweep_event = self._simulator.schedule(
                self.sweep_interval_s, self._sweep
            )

    def _sweep(self) -> None:
        self._sweep_event = None
        self.sweeps += 1
        if _invariants.enabled:
            _invariants.check_soft_state(self._network, self)
        now = self._simulator.now
        expired = [
            key
            for key, lease in self._entries.items()
            if lease.expires_at <= now
            and (lease.held_until <= now or lease.held_from > now)
        ]
        for key in expired:
            lease = self._entries.pop(key)
            freed = 0.0
            for link in lease.links:
                freed += link.release_if_held(key)
            self.orphans_collected += 1
            self.reclaimed_bps += freed
        if self._entries:
            self._ensure_sweep()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeaseTable(ttl={self.ttl_s:g}s, live={len(self._entries)}, "
            f"collected={self.orphans_collected})"
        )
