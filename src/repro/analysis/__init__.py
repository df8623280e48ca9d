"""Mathematical analysis of admission probability (paper Appendix A).

The paper computes admission probabilities analytically with the
classic reduced-load (Erlang fixed-point) method for loss networks:

* :mod:`repro.analysis.erlang` -- the link-level blocking function
  ``L(v, C)``: exact Erlang-B and the Uniform Asymptotic Approximation
  (UAA) the paper uses (eqs. 23-29).
* :mod:`repro.analysis.fixedpoint` -- the fixed-point iteration over
  link blocking probabilities under the link-independence assumption
  (eqs. 18-22).
* :mod:`repro.analysis.admission` -- system-level admission
  probability (eq. 15) for ``<ED,1>`` and ``SP`` as in the appendix,
  plus the documented extension to static-weight systems with
  retrials.
"""

from repro.analysis.admission import (
    AnalysisResult,
    analyze_system,
    build_route_loads,
)
from repro.analysis.erlang import erlang_b, uaa_blocking
from repro.analysis.fixedpoint import FixedPointSolution, ReducedLoadSolver, RouteLoad
from repro.analysis.planning import max_arrival_rate, required_capacity

__all__ = [
    "AnalysisResult",
    "FixedPointSolution",
    "ReducedLoadSolver",
    "RouteLoad",
    "analyze_system",
    "build_route_loads",
    "erlang_b",
    "max_arrival_rate",
    "required_capacity",
    "uaa_blocking",
]
