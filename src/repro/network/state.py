"""Bandwidth views: live versus stale link-state information.

The WD/D+B algorithm needs the bottleneck available bandwidth ``B_i``
of every route.  The paper obtains it by extending RSVP so RESV
messages carry the value back — which means, in any real deployment,
the AC-router works with a *snapshot* that ages between refreshes.
The evaluation models the optimistic limit (always-fresh values); this
module makes information freshness an explicit, controllable knob:

* :class:`LiveBandwidthView` -- reads the network's current state on
  every query (the paper's idealization; zero staleness).
* :class:`SnapshotBandwidthView` -- caches the whole network's
  available bandwidths and refreshes the cache only every
  ``refresh_period_s`` of simulated time, emulating periodic
  link-state advertisements or RESV-piggybacked feedback.

The staleness ablation bench sweeps the refresh period and shows how
WD/D+B's advantage erodes as its information ages.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Hashable, Protocol, Sequence

from repro.network.link import LinkStateArrays
from repro.network.topology import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.routing import Route

NodeId = Hashable

__all__ = [
    "BandwidthView",
    "LinkStateArrays",
    "LiveBandwidthView",
    "SnapshotBandwidthView",
]


class BandwidthView(Protocol):
    """Source of (possibly stale) route-bandwidth information."""

    def path_available_bps(self, path: Sequence[NodeId]) -> float:
        """Bottleneck available bandwidth of ``path`` as this view sees it."""
        ...

    def route_available_bps(self, route: "Route") -> float:
        """Bottleneck bandwidth of a fixed :class:`Route` (hot path)."""
        ...


class LiveBandwidthView:
    """Perfectly fresh information: queries hit the network directly."""

    def __init__(self, network: Network) -> None:
        self._network = network

    @property
    def network(self) -> Network:
        """The network this view reads."""
        return self._network

    def path_available_bps(self, path: Sequence[NodeId]) -> float:
        """Current bottleneck bandwidth of ``path``."""
        return self._network.path_available_bps(path)

    def route_available_bps(self, route: "Route") -> float:
        """Current bottleneck bandwidth of ``route`` (its
        :meth:`~repro.network.routing.Route.bottleneck_bps`)."""
        return route.bottleneck_bps(self._network)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LiveBandwidthView()"


class SnapshotBandwidthView:
    """Link-state snapshot refreshed every ``refresh_period_s``.

    The first query takes a snapshot; subsequent queries reuse it until
    the simulated clock advances past the refresh period, at which
    point the next query re-snapshots the whole network (one flooded
    advertisement, as a link-state protocol would).

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
        self._network = network
        self._clock = clock
        self.refresh_period_s = refresh_period_s
        self._snapshot: dict[tuple[NodeId, NodeId], float] = {}
        self._taken_at: float = float("-inf")
        #: number of snapshots taken (advertisement count)
        self.refreshes = 0

    def _maybe_refresh(self) -> None:
        now = self._clock()
        if now - self._taken_at >= self.refresh_period_s:
            self._snapshot = self._network.snapshot_available()
            self._taken_at = now
            self.refreshes += 1

    @property
    def age_s(self) -> float:
        """Seconds since the current snapshot was taken."""
        if self.refreshes == 0:  # no snapshot yet: infinitely stale
            return float("inf")
        return self._clock() - self._taken_at

    def path_available_bps(self, path: Sequence[NodeId]) -> float:
        """Bottleneck bandwidth according to the cached snapshot."""
        self._maybe_refresh()
        if len(path) < 2:
            return float("inf")
        return min(
            self._snapshot[(u, v)] for u, v in zip(path, path[1:])
        )

    def route_available_bps(self, route: "Route") -> float:
        """Snapshot bottleneck of ``route`` via its cached link keys."""
        self._maybe_refresh()
        keys = route.link_keys()
        if not keys:
            return float("inf")
        snapshot = self._snapshot
        return min(snapshot[key] for key in keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SnapshotBandwidthView(period={self.refresh_period_s:g}s, "
            f"refreshes={self.refreshes})"
        )
