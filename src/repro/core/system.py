"""Assembly of complete ``<A, R>`` admission systems.

The paper names its systems with a 2-tuple ``<A, R>`` where ``A`` is
the destination-selection algorithm and ``R`` the retrial limit, e.g.
``<ED, 2>``.  :class:`SystemSpec` captures that naming (plus the
baselines, which take no ``R``) and :func:`build_system` wires up a
ready-to-run :class:`AdmissionSystem`: one AC-router per source for
the distributed systems, or a single global controller for GDI.  It
is the one place routers are built, whichever reservation engine they
share: atomic or signalled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Optional, Sequence

from repro.baselines.gdi import GDIController
from repro.core.admission import ACRouter, ReservationEngine
from repro.core.reservation import AtomicReservationEngine
from repro.core.retrial import CounterRetrialPolicy
from repro.core.selection import (
    DEFAULT_ALPHA,
    DistanceBandwidthWeighted,
    DistanceHistoryWeighted,
    DistanceWeighted,
    EvenDistribution,
    HybridWeighted,
    SelectionContext,
    ShortestPathSelector,
)
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.network.routing import RouteTable
from repro.network.topology import Network
from repro.signaling.admission import SignalledACRouter
from repro.signaling.rsvp import SignalledReservationEngine
from repro.sim.random_streams import StreamFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.selection import DestinationSelector
    from repro.network.state import SnapshotBandwidthView

NodeId = Hashable

#: Recognized algorithm names, as printed in the paper.
ALGORITHM_NAMES = ("ED", "WD/D", "WD/D+H", "WD/D+B", "WD/D+H+B", "SP", "GDI")

@dataclass(frozen=True)
class SystemSpec:
    """A system in the paper's ``<A, R>`` notation.

    Attributes
    ----------
    algorithm:
        One of :data:`ALGORITHM_NAMES`.  ``WD/D`` is the distance-only
        ablation; ``SP`` and ``GDI`` are the baselines.
    retrials:
        ``R``: maximum destinations tried per request.  Ignored by
        GDI; SP conventionally uses 1 (it has only one choice).
    alpha:
        History-decay parameter of WD/D+H (ignored elsewhere).
    resample_failed:
        Ablation flag: allow re-drawing destinations that already
        failed within the same request.
    bandwidth_refresh_s:
        Staleness ablation for WD/D+B and WD/D+H+B: refresh period of
        the shared link-state snapshot feeding ``B_i``, finite and
        non-negative.
        0 (default) is the paper's always-fresh idealization; > 0
        requires the builder to receive a simulation clock.
    """

    algorithm: str
    retrials: int = 1
    alpha: float = DEFAULT_ALPHA
    resample_failed: bool = False
    bandwidth_refresh_s: float = 0.0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHM_NAMES:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {ALGORITHM_NAMES}"
            )
        if self.retrials < 1:
            raise ValueError(f"R must be >= 1, got {self.retrials}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 <= self.bandwidth_refresh_s < math.inf:  # NaN fails too
            raise ValueError(
                f"bandwidth refresh period must be finite and non-negative, "
                f"got {self.bandwidth_refresh_s}"
            )

    @property
    def is_distributed(self) -> bool:
        """Whether the system runs per-source AC-routers (all but GDI)."""
        return self.algorithm != "GDI"

    @property
    def effective_retrials(self) -> int:
        """The retrial limit the system actually runs with.

        SP has a single choice, so it always runs with ``R = 1``
        whatever ``retrials`` says.
        """
        return 1 if self.algorithm == "SP" else self.retrials

    @property
    def label(self) -> str:
        """The paper's display name, e.g. ``<ED,2>`` or ``GDI``."""
        if self.algorithm in ("SP", "GDI"):
            return self.algorithm
        return f"<{self.algorithm},{self.retrials}>"


class AdmissionSystem:
    """A complete admission-control system bound to one network.

    Routes requests to the AC-router of their source (or the single
    global controller for GDI).
    """

    def __init__(
        self,
        spec: SystemSpec,
        network: Network,
        group: AnycastGroup,
        controllers: dict[NodeId, ACRouter],
        global_controller: Optional[GDIController] = None,
    ) -> None:
        self.spec = spec
        self.network = network
        self.group = group
        self._controllers = controllers
        self._global_controller = global_controller

    def controller_for(self, source: NodeId) -> "ACRouter | GDIController":
        """The controller that handles requests from ``source``."""
        if self._global_controller is not None:
            return self._global_controller
        try:
            return self._controllers[source]
        except KeyError:
            raise ValueError(
                f"no AC-router for source {source!r}; known sources: "
                f"{sorted(self._controllers, key=repr)}"
            ) from None

    def admit(self, request: FlowRequest, now: Optional[float] = None) -> FlowRequest:
        """Run admission control for ``request`` at its source's controller."""
        return self.controller_for(request.source).admit(request, now=now)

    def release(self, flow: FlowRequest) -> None:
        """Tear down an admitted flow."""
        self.controller_for(flow.source).release(flow)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AdmissionSystem({self.spec.label}, network={self.network.name!r})"


def build_selector(
    spec: SystemSpec,
    context: SelectionContext,
    snapshot: Optional["SnapshotBandwidthView"] = None,
) -> "DestinationSelector":
    """The destination selector for one AC-router under ``spec``.

    Explicit dispatch (rather than a class registry) so each
    constructor is called with exactly the arguments it accepts.
    """
    if spec.algorithm == "ED":
        return EvenDistribution(context)
    if spec.algorithm == "WD/D":
        return DistanceWeighted(context)
    if spec.algorithm == "WD/D+H":
        return DistanceHistoryWeighted(context, alpha=spec.alpha)
    if spec.algorithm == "WD/D+H+B":
        return HybridWeighted(context, alpha=spec.alpha, snapshot=snapshot)
    if spec.algorithm == "WD/D+B":
        return DistanceBandwidthWeighted(context, snapshot=snapshot)
    if spec.algorithm == "SP":
        return ShortestPathSelector(context)
    raise ValueError(f"no per-source selector for algorithm {spec.algorithm!r}")


def build_system(
    spec: SystemSpec,
    network: Network,
    sources: Sequence[NodeId],
    group: AnycastGroup,
    streams: StreamFactory,
    clock: Optional[Callable[[], float]] = None,
    reservation: "ReservationEngine | SignalledReservationEngine | None" = None,
) -> AdmissionSystem:
    """Instantiate the system ``spec`` over ``network``.

    Parameters
    ----------
    spec:
        Which ``<A, R>`` system to build.
    network:
        The live network; controllers share its link state.
    sources:
        Nodes that originate requests; each gets its own AC-router
        (with its own selector state and random stream) for the
        distributed systems.
    group:
        The anycast group served.
    streams:
        Factory for the routers' private selection streams, named
        ``"select.<source>"`` so results are reproducible and
        independent across sources.
    clock:
        Simulated-time source; required only when
        ``spec.bandwidth_refresh_s > 0`` (the stale-snapshot ablation
        of WD/D+B needs to know when to refresh).
    reservation:
        The engine every AC-router shares (default: a fresh
        :class:`AtomicReservationEngine` on ``network``).  A
        :class:`SignalledReservationEngine` gets signalled routers
        (:class:`SignalledACRouter`), which decide through callbacks.
        GDI ignores it.
    """
    if spec.algorithm == "GDI":
        controller = GDIController(network, group)
        return AdmissionSystem(spec, network, group, {}, global_controller=controller)

    snapshot: Optional["SnapshotBandwidthView"] = None
    if spec.algorithm in ("WD/D+B", "WD/D+H+B") and spec.bandwidth_refresh_s > 0:
        if clock is None:
            raise ValueError(
                "bandwidth_refresh_s > 0 needs a simulation clock; "
                "pass build_system(..., clock=...)"
            )
        from repro.network.state import SnapshotBandwidthView

        # One shared snapshot per system: a flooded link-state
        # advertisement reaches every AC-router at once.
        snapshot = SnapshotBandwidthView(network, clock, spec.bandwidth_refresh_s)

    if reservation is None:
        reservation = AtomicReservationEngine(network)
    controllers: dict[NodeId, ACRouter] = {}
    for source in sources:
        routes = RouteTable(network, source, group.members)
        context = SelectionContext(network=network, routes=routes, group=group)
        args = (
            network,
            source,
            group,
            build_selector(spec, context, snapshot),
            CounterRetrialPolicy(spec.effective_retrials),
            streams.stream(f"select.{source}"),
        )
        if isinstance(reservation, SignalledReservationEngine):
            controllers[source] = SignalledACRouter(
                *args, reservation, spec.resample_failed
            )
        else:
            controllers[source] = ACRouter(*args, reservation, spec.resample_failed)
    return AdmissionSystem(spec, network, group, controllers)
