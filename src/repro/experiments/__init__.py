"""Regeneration of the paper's evaluation (Section 5 + Appendix A.3).

Every table and figure in the paper maps to a function here:

==========  ====================================================
Paper item  Function
==========  ====================================================
Figure 3    :func:`repro.experiments.figures.figure3`
Figure 4    :func:`repro.experiments.figures.figure4`
Figure 5    :func:`repro.experiments.figures.figure5`
Figure 6    :func:`repro.experiments.figures.figure6`
Figure 7    :func:`repro.experiments.figures.figure7`
Table 1     :func:`repro.experiments.tables.table1`
Table 2     :func:`repro.experiments.tables.table2`
==========  ====================================================

All of them accept an :class:`repro.experiments.config.ExperimentConfig`
(or use paper defaults) and return structured results that
:mod:`repro.experiments.report` renders as aligned text tables.  The
``repro-anycast`` console script (:mod:`repro.experiments.cli`) exposes
everything from the command line.
"""

from repro.experiments.ablations import (
    alpha_sweep,
    information_decomposition,
    retrial_discipline,
    staleness_sweep,
)
from repro.experiments.chaos import (
    ChaosConfig,
    ChaosResult,
    ChaosSimulation,
    chaos_figure,
    chaos_sweep,
    run_chaos_point,
)
from repro.experiments.config import ExperimentConfig, paper_config, quick_config
from repro.experiments.diagnostics import CongestionReport, congestion_report
from repro.experiments.figures import (
    FigureResult,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)
from repro.experiments.runner import PointResult, SweepResult, run_point, sweep
from repro.experiments.tables import TableResult, table1, table2

__all__ = [
    "ChaosConfig",
    "ChaosResult",
    "ChaosSimulation",
    "ExperimentConfig",
    "FigureResult",
    "PointResult",
    "SweepResult",
    "CongestionReport",
    "TableResult",
    "alpha_sweep",
    "chaos_figure",
    "chaos_sweep",
    "congestion_report",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "information_decomposition",
    "paper_config",
    "quick_config",
    "retrial_discipline",
    "run_chaos_point",
    "run_point",
    "staleness_sweep",
    "sweep",
    "table1",
    "table2",
]
