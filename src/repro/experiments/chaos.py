"""Chaos scenario: admission control over an unreliable signalling plane.

The paper's DAC protocol negotiates admission hop-by-hop over
PATH/RESV signalling but is evaluated under perfectly reliable
delivery.  This scenario measures what a deployed controller would
face: control messages are dropped, delayed and duplicated by a
:class:`repro.signaling.channel.SignalingChannel`, senders recover
with per-hop timeouts, exponential backoff and a retransmission cap,
and reservations are soft state — leases refreshed by their owners,
with a garbage collector reclaiming the orphans left by lost
``Resv``/``Tear`` messages.

The model is the signalled plane of the one simulation driver,
:class:`repro.sim.simulation.AnycastSimulation` with ``chaos=...``
(:class:`ChaosConfig` and :class:`ChaosResult` are re-exported from
there); :class:`ChaosSimulation` only shortens its default windows.

:func:`chaos_sweep` runs one system across a grid of loss rates;
:func:`chaos_figure` produces the paper-style summary (blocking
probability and mean signalled admission latency versus loss rate for
``<ED,2>`` against ``<WD/D+B,2>``).  Every run drains its event
calendar to completion and reports the bandwidth still reserved
afterwards — the headline robustness invariant is that this is zero:
whatever the loss rate, leases guarantee no reservation outlives its
flow by more than a TTL.

Determinism: each impairment and the backoff jitter draw from
dedicated named streams, so two runs with the same seed are
bit-identical, and disabling the impairments restores the exact event
sequence of a perfectly reliable plane.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.core.system import SystemSpec
from repro.experiments.config import ExperimentConfig, quick_config
from repro.experiments.figures import FigureResult
from repro.flows.traffic import WorkloadSpec
from repro.network.topology import Network
from repro.sim.simulation import AnycastSimulation, ChaosConfig, ChaosResult

__all__ = [
    "CHAOS_SPECS",
    "DEFAULT_LOSS_RATES",
    "ChaosConfig",
    "ChaosResult",
    "ChaosSimulation",
    "chaos_figure",
    "chaos_sweep",
    "run_chaos_point",
]

#: Loss rates swept by the default chaos figure.
DEFAULT_LOSS_RATES: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.2)

#: Systems contrasted by the chaos figure: the blind baseline vs the
#: bandwidth-informed selector, both with one retrial.
CHAOS_SPECS: tuple[SystemSpec, ...] = (
    SystemSpec("ED", retrials=2),
    SystemSpec("WD/D+B", retrials=2),
)


class ChaosSimulation(AnycastSimulation):
    """One run of :class:`AnycastSimulation` on its signalled plane.

    Every admission runs the full PATH/RESV exchange through the
    impaired channel, admitted flows refresh their leases, and
    departures tear down through the same lossy channel.  Only the
    default windows (200 s warm-up, 800 s measured) differ from the
    driver's.
    """

    def __init__(
        self,
        network_factory: Callable[[], Network],
        system_spec: SystemSpec,
        workload: WorkloadSpec,
        chaos: ChaosConfig,
        warmup_s: float = 200.0,
        measure_s: float = 800.0,
        seed: int = 0,
        batch_size: int = 200,
    ) -> None:
        super().__init__(
            network_factory,
            system_spec,
            workload,
            warmup_s=warmup_s,
            measure_s=measure_s,
            seed=seed,
            batch_size=batch_size,
            chaos=chaos,
        )


def run_chaos_point(
    spec: SystemSpec,
    arrival_rate: float,
    config: ExperimentConfig,
    chaos: ChaosConfig,
) -> ChaosResult:
    """One system at one arrival rate under one impairment setting."""
    result = ChaosSimulation(
        network_factory=config.network_factory(),
        system_spec=spec,
        workload=config.workload(arrival_rate),
        chaos=chaos,
        warmup_s=config.warmup_s,
        measure_s=config.measure_s,
        seed=config.seed,
    ).run()
    assert isinstance(result, ChaosResult)  # chaos: the signalled plane
    return result


def chaos_sweep(
    spec: SystemSpec,
    loss_rates: tuple[float, ...],
    config: ExperimentConfig,
    chaos: ChaosConfig,
    arrival_rate: float,
) -> tuple[ChaosResult, ...]:
    """Sweep ``spec`` over the loss-rate grid (single replication).

    Every point reuses the same seed, so the arrival process and
    selection dice are common random numbers across loss rates — the
    degradation curve measures the impairments, not sampling noise.
    """
    return tuple(
        run_chaos_point(spec, arrival_rate, config, replace(chaos, loss_rate=loss))
        for loss in loss_rates
    )


def chaos_figure(
    config: Optional[ExperimentConfig] = None,
    loss_rates: tuple[float, ...] = DEFAULT_LOSS_RATES,
    chaos: Optional[ChaosConfig] = None,
    arrival_rate: Optional[float] = None,
) -> FigureResult:
    """Blocking probability and admission latency vs loss rate.

    Contrasts ``<ED,2>`` with ``<WD/D+B,2>`` (the paper's blind vs
    bandwidth-informed endpoints) at one arrival rate — the middle of
    ``config.arrival_rates`` unless given — under increasing Bernoulli
    loss.  Two series per system: ``"<label> blocking"`` and
    ``"<label> latency_ms"``.
    """
    config = config if config is not None else quick_config()
    chaos = chaos if chaos is not None else ChaosConfig()
    if arrival_rate is None:
        rates = config.arrival_rates
        arrival_rate = float(rates[len(rates) // 2])
    series: dict[str, list[float]] = {}
    sweeps: list[tuple[ChaosResult, ...]] = []
    for spec in CHAOS_SPECS:
        results = chaos_sweep(spec, loss_rates, config, chaos, arrival_rate)
        sweeps.append(results)
        series[f"{spec.label} blocking"] = [
            round(r.blocking_probability, 6) for r in results
        ]
        series[f"{spec.label} latency_ms"] = [
            round(r.mean_admission_latency_s * 1e3, 4) for r in results
        ]
    return FigureResult(
        figure_id="figchaos",
        title=(
            "Blocking probability and signalled admission latency vs "
            f"signalling loss rate @ lambda={arrival_rate:g}/s"
        ),
        x_values=tuple(loss_rates),
        series=series,
        sweeps=tuple(sweeps),
    )
