"""Network-level diagnostics of simulation runs.

The paper argues SP performs poorly because it "funnels" anycast
traffic and congests particular links.  These helpers make that
mechanism visible: they aggregate the per-link utilization snapshots a
:class:`repro.sim.metrics.SimulationResult` carries and render the
hottest links, so the congestion signature of each selection algorithm
can be inspected and compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.report import format_table
from repro.sim.metrics import SimulationResult


@dataclass(frozen=True)
class LinkHotspot:
    """One directed link's load summary."""

    link: tuple
    utilization: float


@dataclass(frozen=True)
class CongestionReport:
    """Utilization profile of one simulation run.

    Attributes
    ----------
    system_label:
        Which system produced the profile.
    hotspots:
        Links sorted by descending utilization.
    mean_utilization:
        Average utilization across all directed links.
    peak_utilization:
        The hottest link's utilization.
    gini:
        Gini coefficient of link utilizations — 0 means perfectly even
        spreading; values near 1 mean a few funnels carry everything.
    """

    system_label: str
    hotspots: tuple
    mean_utilization: float
    peak_utilization: float
    gini: float

    def top(self, n: int = 5) -> list[LinkHotspot]:
        """The ``n`` hottest links."""
        return list(self.hotspots[:n])

    def render(self, n: int = 5) -> str:
        """Text table of the hottest links."""
        rows = [
            [f"{h.link[0]}->{h.link[1]}", f"{h.utilization:.1%}"]
            for h in self.top(n)
        ]
        rows.append(["(mean over all links)", f"{self.mean_utilization:.1%}"])
        return format_table(
            ["link", "utilization"],
            rows,
            title=(
                f"hottest links, {self.system_label} "
                f"(gini={self.gini:.3f})"
            ),
        )


def _gini(values: Sequence[float]) -> float:
    """Gini coefficient of non-negative values (0 when all equal)."""
    items = sorted(values)
    n = len(items)
    total = sum(items)
    if n == 0 or total == 0:
        return 0.0
    cumulative = 0.0
    for rank, value in enumerate(items, start=1):
        cumulative += rank * value
    return (2.0 * cumulative) / (n * total) - (n + 1.0) / n


def congestion_report(result: SimulationResult) -> CongestionReport:
    """Build a :class:`CongestionReport` from a simulation result.

    Uses the end-of-run link utilization snapshot the simulation
    recorded; with a steady-state measurement window this is an
    unbiased sample of the stationary occupancy.
    """
    if not result.link_utilization:
        raise ValueError("simulation result carries no link utilization data")
    hotspots = tuple(
        LinkHotspot(link=link, utilization=utilization)
        for link, utilization in sorted(
            result.link_utilization.items(),
            key=lambda kv: (-kv[1], repr(kv[0])),
        )
    )
    values = [h.utilization for h in hotspots]
    return CongestionReport(
        system_label=result.system_label,
        hotspots=hotspots,
        mean_utilization=sum(values) / len(values),
        peak_utilization=values[0],
        gini=_gini(values),
    )
