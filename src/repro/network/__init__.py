"""Network substrate: links, topologies and fixed-path routing.

Implements the network model of Section 3 of the paper: nodes joined
by capacitated links, where each link tracks the bandwidth reserved by
admitted anycast flows and exposes its *available bandwidth* (``AB_l``)
to the admission-control machinery.

* :mod:`repro.network.link` -- a directed capacitated link with a
  per-flow reservation ledger.
* :mod:`repro.network.topology` -- the network graph.
* :mod:`repro.network.routing` -- fixed shortest-path routes (and
  the feasible-path search used by the GDI baseline).
* :mod:`repro.network.topologies` -- canned topologies including the
  19-node MCI ISP backbone of the paper's evaluation.
"""

from repro.network.link import InsufficientBandwidthError, Link
from repro.network.routing import (
    Route,
    RouteTable,
    feasible_path,
    shortest_path,
)
from repro.network.topologies import (
    dumbbell,
    grid,
    line,
    mci_backbone,
    nsfnet,
    ring,
    star,
    waxman_random,
)
from repro.network.topology import Network, NetworkError

__all__ = [
    "InsufficientBandwidthError",
    "Link",
    "Network",
    "NetworkError",
    "Route",
    "RouteTable",
    "dumbbell",
    "feasible_path",
    "grid",
    "line",
    "mci_backbone",
    "nsfnet",
    "ring",
    "shortest_path",
    "star",
    "waxman_random",
]
