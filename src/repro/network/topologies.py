"""Canned topologies, including the paper's 19-node MCI backbone.

The paper evaluates on "the MCI ISP backbone network" with 19 router
nodes (its Figure 2 shows the map but the edge list is not published).
:func:`mci_backbone` encodes the 19-node MCI Internet backbone commonly
used in the QoS-routing literature of the same era; see DESIGN.md for
the substitution note.  Additional generators (NSFNET, grid, line,
star, Waxman random graphs) support the robustness ablations.

All generators return a fresh :class:`repro.network.topology.Network`
whose links carry ``capacity_bps`` in *each direction*.  The paper's
default is 100 Mbit/s cables with 20 % reserved for anycast flows,
i.e. ``capacity_bps=20_000_000`` from the admission controller's point
of view; helpers below default to that value.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.network.topology import Network
from repro.sim.random_streams import StreamFactory

#: Raw cable speed in the paper's experiments (bits per second).
LINK_CAPACITY_BPS = 100_000_000
#: Fraction of each cable reserved for anycast flows.
ANYCAST_SHARE = 0.20
#: Bandwidth available to anycast flows on every link (bits per second).
ANYCAST_CAPACITY_BPS = LINK_CAPACITY_BPS * ANYCAST_SHARE
#: Per-flow bandwidth requirement (bits per second).
FLOW_BANDWIDTH_BPS = 64_000
#: Anycast link capacity expressed in 64 kbit/s trunk slots.
TRUNKS_PER_LINK = int(ANYCAST_CAPACITY_BPS // FLOW_BANDWIDTH_BPS)

#: Edge list of the 19-node MCI Internet backbone used for Figure 2.
#: Node identifiers are 0..18 so the paper's "routers with odd
#: identification numbers" (sources) and the anycast group at routers
#: {0, 4, 8, 12, 16} are well defined.
MCI_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 18),
    (1, 2), (1, 3),
    (2, 4), (2, 17),
    (3, 4), (3, 5),
    (4, 6), (4, 15),
    (5, 6), (5, 7), (5, 12),
    (6, 8), (6, 13),
    (7, 8), (7, 9),
    (8, 10), (8, 11),
    (9, 10), (9, 11),
    (10, 12),
    (11, 12), (11, 13),
    (12, 14),
    (13, 14), (13, 15),
    (14, 16),
    (15, 16), (15, 17),
    (16, 18),
    (17, 18),
)

#: Sources in the paper's traffic model: hosts at odd-ID routers.
MCI_SOURCES: tuple[int, ...] = tuple(range(1, 19, 2))
#: The paper's anycast group: hosts at routers 0, 4, 8, 12 and 16.
MCI_GROUP_MEMBERS: tuple[int, ...] = (0, 4, 8, 12, 16)


def _build(
    name: str,
    edges: Sequence[tuple[int, int]],
    capacity_bps: float,
    propagation_delay_s: float,
) -> Network:
    network = Network(name=name)
    for u, v in edges:
        network.add_link(
            u, v, capacity_bps=capacity_bps, propagation_delay_s=propagation_delay_s
        )
    return network


def mci_backbone(
    capacity_bps: float = ANYCAST_CAPACITY_BPS,
    propagation_delay_s: float = 0.005,
) -> Network:
    """The 19-node MCI ISP backbone of the paper's evaluation (Fig. 2).

    Parameters
    ----------
    capacity_bps:
        Per-direction link capacity visible to anycast admission
        control.  Defaults to the paper's 20 % share of 100 Mbit/s.
    propagation_delay_s:
        One-way link delay for the signalling model.
    """
    return _build("mci-backbone", MCI_EDGES, capacity_bps, propagation_delay_s)


#: Edge list of the classic 14-node NSFNET T1 backbone.
NSFNET_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 7),
    (1, 2), (1, 3),
    (2, 5),
    (3, 4), (3, 10),
    (4, 5), (4, 6),
    (5, 8), (5, 12),
    (6, 7),
    (7, 9),
    (8, 9), (8, 11),
    (9, 10), (9, 13),
    (10, 11), (10, 12),
    (11, 13),
    (12, 13),
)


def nsfnet(
    capacity_bps: float = ANYCAST_CAPACITY_BPS,
    propagation_delay_s: float = 0.005,
) -> Network:
    """The 14-node NSFNET backbone, used for topology-robustness runs."""
    return _build("nsfnet", NSFNET_EDGES, capacity_bps, propagation_delay_s)


def line(
    n: int,
    capacity_bps: float = ANYCAST_CAPACITY_BPS,
    propagation_delay_s: float = 0.001,
) -> Network:
    """A line of ``n`` nodes 0-1-...-(n-1); handy for exact unit tests."""
    if n < 2:
        raise ValueError(f"line needs >= 2 nodes, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    return _build(f"line-{n}", edges, capacity_bps, propagation_delay_s)


def star(
    leaves: int,
    capacity_bps: float = ANYCAST_CAPACITY_BPS,
    propagation_delay_s: float = 0.001,
) -> Network:
    """A star: hub node 0 joined to leaves 1..``leaves``.

    Stars make blocking exactly Erlang-B per spoke, which the analysis
    tests exploit.
    """
    if leaves < 1:
        raise ValueError(f"star needs >= 1 leaf, got {leaves}")
    edges = [(0, i) for i in range(1, leaves + 1)]
    return _build(f"star-{leaves}", edges, capacity_bps, propagation_delay_s)


def grid(
    rows: int,
    cols: int,
    capacity_bps: float = ANYCAST_CAPACITY_BPS,
    propagation_delay_s: float = 0.001,
) -> Network:
    """A ``rows`` x ``cols`` mesh; node id of cell (r, c) is r*cols + c."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid needs positive dimensions, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return _build(f"grid-{rows}x{cols}", edges, capacity_bps, propagation_delay_s)


def ring(
    n: int,
    capacity_bps: float = ANYCAST_CAPACITY_BPS,
    propagation_delay_s: float = 0.001,
) -> Network:
    """A cycle of ``n`` nodes; the minimal two-path topology."""
    if n < 3:
        raise ValueError(f"ring needs >= 3 nodes, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _build(f"ring-{n}", edges, capacity_bps, propagation_delay_s)


def dumbbell(
    side: int,
    bottleneck_capacity_bps: float,
    capacity_bps: float = ANYCAST_CAPACITY_BPS,
    propagation_delay_s: float = 0.001,
) -> Network:
    """Two stars joined by one thin bottleneck link.

    ``side`` leaves hang off each hub; hubs are ``0`` (left) and ``1``
    (right); left leaves are ``10..10+side-1``, right leaves
    ``100..100+side-1``.  The canonical topology for studying how
    destination selection shields a scarce core link.
    """
    if side < 1:
        raise ValueError(f"dumbbell needs >= 1 leaf per side, got {side}")
    network = Network(f"dumbbell-{side}")
    network.add_link(0, 1, capacity_bps=bottleneck_capacity_bps,
                     propagation_delay_s=propagation_delay_s)
    for i in range(side):
        network.add_link(0, 10 + i, capacity_bps=capacity_bps,
                         propagation_delay_s=propagation_delay_s)
        network.add_link(1, 100 + i, capacity_bps=capacity_bps,
                         propagation_delay_s=propagation_delay_s)
    return network


def waxman_random(
    n: int,
    alpha: float = 0.4,
    beta: float = 0.6,
    seed: int = 0,
    capacity_bps: float = ANYCAST_CAPACITY_BPS,
    propagation_delay_s: float = 0.001,
) -> Network:
    """A connected Waxman random topology on ``n`` nodes.

    Nodes are placed uniformly in the unit square; an edge (u, v) is
    added with probability ``alpha * exp(-d(u,v) / (beta * sqrt(2)))``.
    A deterministic spanning chain over the node order is added first
    so the result is always connected (standard practice for
    simulation topologies).

    Parameters
    ----------
    n:
        Number of nodes (>= 2).
    alpha:
        Edge-density parameter in (0, 1].
    beta:
        Distance-decay parameter in (0, 1].
    seed:
        Seed for node placement and edge sampling.
    """
    if n < 2:
        raise ValueError(f"waxman graph needs >= 2 nodes, got {n}")
    if not 0 < alpha <= 1 or not 0 < beta <= 1:
        raise ValueError(f"alpha and beta must be in (0, 1], got {alpha}, {beta}")
    stream = StreamFactory(seed).stream("waxman")
    positions = [(stream.uniform(), stream.uniform()) for _ in range(n)]
    max_distance = math.sqrt(2.0)
    edges: list[tuple[int, int]] = [(i, i + 1) for i in range(n - 1)]
    existing = set(edges)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in existing:
                continue
            dx = positions[u][0] - positions[v][0]
            dy = positions[u][1] - positions[v][1]
            distance = math.hypot(dx, dy)
            probability = alpha * math.exp(-distance / (beta * max_distance))
            if stream.uniform() < probability:
                edges.append((u, v))
                existing.add((u, v))
    network = _build(f"waxman-{n}-s{seed}", edges, capacity_bps, propagation_delay_s)
    for node, (x, y) in enumerate(positions):
        network.node_attributes(node)["pos"] = (x, y)
    return network
