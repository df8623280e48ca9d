"""Stale link-state information: a periodically refreshed snapshot.

The WD/D+B algorithm needs the bottleneck available bandwidth ``B_i``
of every route.  The paper obtains it by extending RSVP so RESV
messages carry the value back — which means, in any real deployment,
the AC-router works with a *snapshot* that ages between refreshes.
The evaluation models the optimistic limit (always-fresh values): a
bandwidth selector with no snapshot scans the network's live
:class:`~repro.network.link.LinkStateArrays` columns.  A
:class:`SnapshotBandwidthView` makes information freshness an
explicit, controllable knob: the selector scans a copy of those
columns taken every ``refresh_period_s`` of simulated time, emulating
periodic link-state advertisements or RESV-piggybacked feedback.

The staleness ablation bench sweeps the refresh period and shows how
WD/D+B's advantage erodes as its information ages.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.network.link import LinkStateArrays
from repro.network.topology import Network

__all__ = ["LinkStateArrays", "SnapshotBandwidthView"]


class SnapshotBandwidthView:
    """Copy of the link-state columns, refreshed every ``refresh_period_s``.

    The first :meth:`columns` call copies the network's ``capacity``
    and ``reserved`` columns; later calls return that copy until the
    simulated clock advances by the refresh period, at which point the
    next call copies them again (one flooded advertisement, as a
    link-state protocol would).

    Parameters
    ----------
    network:
        The live network to snapshot.
    clock:
        Zero-argument callable returning current simulated time.
    refresh_period_s:
        Snapshot lifetime, finite and non-negative; 0 degenerates to
        live information.
    """

    def __init__(
        self,
        network: Network,
        clock: Callable[[], float],
        refresh_period_s: float,
    ) -> None:
        if not 0 <= refresh_period_s < math.inf:  # NaN fails too
            raise ValueError(
                "refresh period must be finite and non-negative, "
                f"got {refresh_period_s}"
            )
        self._live = network.link_state
        self._clock = clock
        self.refresh_period_s = refresh_period_s
        self._columns = LinkStateArrays()
        self._taken_at: float = float("-inf")
        #: number of snapshots taken (advertisement count)
        self.refreshes = 0

    def columns(self) -> LinkStateArrays:
        """The snapshot's columns, re-copied once the period has passed."""
        now = self._clock()
        if now - self._taken_at >= self.refresh_period_s:
            self._columns = self._live.copy()
            self._taken_at = now
            self.refreshes += 1
        return self._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SnapshotBandwidthView(period={self.refresh_period_s:g}s, "
            f"refreshes={self.refreshes})"
        )
