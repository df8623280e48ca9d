"""Experiment configuration (the knobs of paper Section 5.1).

:class:`ExperimentConfig` bundles the topology, traffic model and
run-length parameters shared by every figure/table regeneration.  Two
presets are provided:

* :func:`paper_config` -- the paper's setup: MCI backbone, group at
  routers {0,4,8,12,16}, sources at odd routers, long runs with
  multiple replications.  Minutes of wall-clock per figure.
* :func:`quick_config` -- the same model with shorter horizons and a
  single replication; preserves every qualitative conclusion and runs
  each figure in seconds.  Used by the pytest benchmarks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Callable

from repro.flows.group import AnycastGroup
from repro.flows.traffic import (
    DEFAULT_FLOW_BANDWIDTH_BPS,
    DEFAULT_MEAN_LIFETIME_S,
    WorkloadSpec,
)
from repro.network.topologies import (
    MCI_GROUP_MEMBERS,
    MCI_SOURCES,
    mci_backbone,
    nsfnet,
    waxman_random,
)
from repro.network.topology import Network

#: Arrival-rate grid of the paper's x-axes (requests/second).
PAPER_ARRIVAL_RATES: tuple[float, ...] = (5.0, 12.5, 20.0, 27.5, 35.0, 42.5, 50.0)
#: Arrival rates of Tables 1 and 2.
TABLE_ARRIVAL_RATES: tuple[float, ...] = (5.0, 20.0, 35.0, 50.0)
#: Retrial limits swept in Figures 3-5 (the upper limit is the group size).
PAPER_RETRIAL_LIMITS: tuple[int, ...] = (1, 2, 3, 4, 5)

#: Named topology factories usable from configs and the CLI.
TOPOLOGY_FACTORIES: dict[str, Callable[[], Network]] = {
    "mci": mci_backbone,
    "nsfnet": nsfnet,
    "waxman20": lambda: waxman_random(20, seed=42),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs besides the system spec.

    Attributes
    ----------
    topology:
        Key into :data:`TOPOLOGY_FACTORIES`.
    sources:
        Request-originating nodes.
    group_members:
        The anycast group, in weight-vector order.
    mean_lifetime_s, bandwidth_bps:
        Flow parameters (paper: 180 s, 64 kbit/s).
    warmup_s, measure_s:
        Per-run simulated warm-up and measurement horizons.
    replications:
        Independent replications per point (seeds derive from ``seed``).
    seed:
        Root seed for the whole experiment.
    arrival_rates:
        The lambda grid for sweeps.
    retrial_limits:
        The R grid for the sensitivity figures.
    source_weights:
        Optional relative request rates per source (hot-spot
        workloads); ``None`` is the paper's uniform choice.
    workers:
        Process count for the experiment runner.  1 (default) runs
        serially in-process; > 1 fans independent replications and
        sweep points out over a :mod:`multiprocessing` pool with
        bit-identical results (see :mod:`repro.experiments.parallel`).
    """

    topology: str = "mci"
    sources: tuple = MCI_SOURCES
    group_members: tuple = MCI_GROUP_MEMBERS
    mean_lifetime_s: float = DEFAULT_MEAN_LIFETIME_S
    bandwidth_bps: float = DEFAULT_FLOW_BANDWIDTH_BPS
    warmup_s: float = 1000.0
    measure_s: float = 4000.0
    replications: int = 3
    seed: int = 2001
    arrival_rates: tuple = PAPER_ARRIVAL_RATES
    retrial_limits: tuple = PAPER_RETRIAL_LIMITS
    source_weights: tuple = None
    workers: int = 1

    def __post_init__(self):
        if self.topology not in TOPOLOGY_FACTORIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"known: {sorted(TOPOLOGY_FACTORIES)}"
            )
        for name in ("replications", "workers"):
            value = getattr(self, name)
            # A float such as 2.5 would pass ``< 1`` and fail inside range().
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "group_members", tuple(self.group_members))
        object.__setattr__(self, "arrival_rates", tuple(self.arrival_rates))
        object.__setattr__(self, "retrial_limits", tuple(self.retrial_limits))

    def network_factory(self) -> Callable[[], Network]:
        """Factory building a fresh instance of the configured topology."""
        return TOPOLOGY_FACTORIES[self.topology]

    def group(self) -> AnycastGroup:
        """The anycast group object."""
        return AnycastGroup("A", self.group_members)

    def workload(self, arrival_rate: float) -> WorkloadSpec:
        """The workload at one arrival rate."""
        return WorkloadSpec(
            arrival_rate=arrival_rate,
            sources=self.sources,
            group=self.group(),
            mean_lifetime_s=self.mean_lifetime_s,
            bandwidth_bps=self.bandwidth_bps,
            source_weights=self.source_weights,
        )

    def scaled(self, **overrides) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


def paper_config(seed: int = 2001) -> ExperimentConfig:
    """The paper's full experimental setup."""
    return ExperimentConfig(seed=seed)


def quick_config(seed: int = 2001) -> ExperimentConfig:
    """Scaled-down setup for benchmarks and CI.

    One replication of a 200 s warm-up + 800 s measurement window and a
    four-point lambda grid: every ordering and trend of the paper
    survives (benchmarks assert them), at interactive wall-clock cost.
    """
    return ExperimentConfig(
        warmup_s=200.0,
        measure_s=800.0,
        replications=1,
        seed=seed,
        arrival_rates=TABLE_ARRIVAL_RATES,
    )
