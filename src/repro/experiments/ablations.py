"""Ablation studies as reusable library functions.

Each function runs one study; the CLI's ``ablation-*`` targets call
them, and users can run the same studies with their own configurations
(different topologies, loads, seeds) and get structured results back.
The benchmarks under ``benchmarks/test_ablation_*.py`` assert the
qualitative outcome of each study with their own sweeps; they do not
call these functions.

Every function takes an :class:`repro.experiments.config.
ExperimentConfig` plus study-specific knobs and returns a mapping of
condition label to :class:`repro.experiments.runner.PointResult`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.system import SystemSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_point

#: Default alpha grid of the WD/D+H decay study.
DEFAULT_ALPHAS: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Default snapshot refresh periods of the staleness study (seconds).
DEFAULT_REFRESH_PERIODS: tuple[float, ...] = (0.0, 1.0, 10.0, 60.0)


def alpha_sweep(
    config: ExperimentConfig,
    arrival_rate: float,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    retrials: int = 2,
) -> dict:
    """WD/D+H with varying history-decay alpha, plus the WD/D anchor.

    ``alpha = 1`` disables the history term entirely, so its result
    should match the ``"WD/D"`` entry up to simulation noise.
    """
    results: dict = {}
    for alpha in alphas:
        spec = SystemSpec("WD/D+H", retrials=retrials, alpha=alpha)
        results[alpha] = run_point(spec, arrival_rate, config)
    results["WD/D"] = run_point(
        SystemSpec("WD/D", retrials=retrials), arrival_rate, config
    )
    return results


def information_decomposition(
    config: ExperimentConfig, arrival_rate: float, retrials: int = 2
) -> dict:
    """ED vs WD/D vs WD/D+H vs WD/D+B: what each information source buys."""
    return {
        algorithm: run_point(
            SystemSpec(algorithm, retrials=retrials), arrival_rate, config
        )
        for algorithm in ("ED", "WD/D", "WD/D+H", "WD/D+B")
    }


def staleness_sweep(
    config: ExperimentConfig,
    arrival_rate: float,
    refresh_periods: Sequence[float] = DEFAULT_REFRESH_PERIODS,
    retrials: int = 2,
) -> dict:
    """WD/D+B with aging link-state snapshots, plus the WD/D anchor."""
    results: dict = {}
    for period in refresh_periods:
        spec = SystemSpec(
            "WD/D+B", retrials=retrials, bandwidth_refresh_s=period
        )
        results[period] = run_point(spec, arrival_rate, config)
    results["WD/D"] = run_point(
        SystemSpec("WD/D", retrials=retrials), arrival_rate, config
    )
    return results


def retrial_discipline(
    config: ExperimentConfig,
    arrival_rate: float,
    algorithm: str = "ED",
    retrials: int = 3,
) -> dict:
    """Without-replacement (paper reading) vs resampling failed members."""
    return {
        "exclude": run_point(
            SystemSpec(algorithm, retrials=retrials, resample_failed=False),
            arrival_rate,
            config,
        ),
        "resample": run_point(
            SystemSpec(algorithm, retrials=retrials, resample_failed=True),
            arrival_rate,
            config,
        ),
    }
