"""Resource reservation (paper Section 4.4).

Once a destination is selected, the DAC procedure must (task 1) check
that every link of the fixed route has enough available bandwidth and
(task 2) reserve that bandwidth — the check-and-reserve the paper
delegates to RSVP PATH/RESV messages.

:class:`AtomicReservationEngine` performs both tasks in one critical
step against the live network state, which is the semantics the
paper's simulation model assumes (reservations are instantaneous and
race-free).  The step keeps the paper's PATH-then-RESV order: it
tests every hop first (task 1) and writes the reservation only when
every hop passed (task 2), so a refused attempt writes nothing.  The
message-driven variant with propagation delays lives in
:mod:`repro.signaling.rsvp`; admission *probabilities* are identical,
only latency/overhead bookkeeping differs.
"""

from __future__ import annotations

from typing import Hashable

from repro.network.routing import Route
from repro.network.topology import Network

FlowId = Hashable


class AtomicReservationEngine:
    """All-or-nothing bandwidth reservation on fixed routes.

    A reservation is addressed by its route's resolved links and one
    key, both to reserve and to release, so no hop is looked up again
    after the route table is built.  Counts attempts and failures so
    the experiment harness can report signalling overhead (each attempt
    corresponds to one PATH/RESV round trip in a deployed system).
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        #: reservation attempts made (one per destination tried)
        self.attempts = 0
        #: attempts refused for lack of bandwidth on some link
        self.failures = 0

    def try_reserve(self, route: Route, key: FlowId, bandwidth_bps: float) -> bool:
        """Attempt to reserve ``bandwidth_bps`` along ``route`` under ``key``.

        Returns ``True`` and holds the bandwidth on every link on
        success; returns ``False`` and leaves the network untouched on
        failure.
        """
        # The route caches its resolved link objects, so repeated
        # attempts skip the per-hop (u, v) dict lookups entirely.
        # reserve_links refuses a bad bandwidth or a held key with
        # ValueError, before this counts the attempt.
        success = self.network.reserve_links(
            route.resolve_links(self.network), key, bandwidth_bps
        )
        self.attempts += 1
        if not success:
            self.failures += 1
        return success

    def release(self, route: Route, key: FlowId) -> None:
        """Tear down the reservation held under ``key`` along ``route``."""
        self.network.release_path(route.resolve_links(self.network), key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AtomicReservationEngine(attempts={self.attempts}, "
            f"failures={self.failures})"
        )
