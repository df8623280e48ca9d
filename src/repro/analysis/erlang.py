"""Link blocking functions: exact Erlang-B and the paper's UAA.

A link with ``C`` trunk slots offered Poisson traffic of intensity
``v`` erlangs (each flow holding one slot) blocks new flows with the
Erlang-B probability

    B(v, C) = (v^C / C!) / sum_{k=0..C} v^k / k!

computed here with the standard numerically-stable recursion.

The paper instead evaluates ``L(v)`` with the *Uniform Asymptotic
Approximation* (UAA) of eqs. 23-29, accurate for large ``C`` with
``v = O(C)`` — cheap in 2001, merely a historical choice today.  We
implement the UAA faithfully (it is also an ablation subject:
``benchmarks/test_ablation_erlang_vs_uaa.py`` quantifies the
approximation error inside the fixed point) with one pragmatic
adjustment: in a narrow window around the critical load ``v = C``
(where the published formula switches to a special case) we fall back
to exact Erlang-B, because the OCR'd critical-case constant in the
paper is ambiguous and the window has measure zero in the fixed-point
iteration anyway.
"""

from __future__ import annotations

import math


def erlang_b(load_erlangs: float, capacity: int) -> float:
    """Exact Erlang-B blocking probability.

    Uses the recursion ``B_0 = 1``,
    ``B_c = v B_{c-1} / (c + v B_{c-1})``, which is stable for any
    load and linear in ``capacity``.  Once ``B_c`` underflows to 0.0
    every later step is 0.0 too, so the recursion stops there: huge
    capacities at light load cost only the steps before underflow.

    Parameters
    ----------
    load_erlangs:
        Offered traffic intensity ``v`` >= 0.
    capacity:
        Number of trunk slots ``C`` >= 0.

    Returns
    -------
    float
        Blocking probability in [0, 1].
    """
    if load_erlangs < 0:
        raise ValueError(f"load must be non-negative, got {load_erlangs}")
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    if load_erlangs == 0:
        return 0.0 if capacity > 0 else 1.0
    blocking = 1.0
    for c in range(1, capacity + 1):
        blocking = load_erlangs * blocking / (c + load_erlangs * blocking)
        if blocking == 0.0:
            break
    return blocking


#: Half-width of the critical window |z* - 1| inside which the UAA
#: switches to exact Erlang-B (see module docstring).
_CRITICAL_WINDOW = 0.02

#: F(z*) below which exp(F) nears the subnormal range (~1e-304).  The
#: M formula then relies on a cancellation between 0.5*erfc(sqrt(-F))
#: and the -1/sqrt(-2F) correction, both of order exp(F); once they
#: are subnormal the cancellation loses all precision (B can come out
#: past 1 where the true limit is 1 - C/v), so we use exact Erlang-B.
_UNDERFLOW_F = -700.0


def uaa_blocking(load_erlangs: float, capacity: int) -> float:
    """Uniform Asymptotic Approximation of Erlang-B (paper eqs. 23-29).

    With ``z* = C / v``, ``F(z) = v (z - 1) - C ln z`` and
    ``V(z) = v z``:

        B  ~=  exp(F(z*)) / (M * sqrt(2 pi V(z*)))

    where for ``z* != 1``

        M = (1/2) erfc(sgn(1 - z*) sqrt(-F(z*)))
            + exp(F(z*)) / sqrt(2 pi)
              * ( 1 / (sqrt(V(z*)) (1 - z*))  -  sgn(1 - z*) / sqrt(-2 F(z*)) )

    The two correction terms individually diverge as ``z* -> 1`` but
    their difference stays finite; within ``|z* - 1| < 0.02`` we return
    exact Erlang-B instead of evaluating the ill-conditioned formula.

    Validity assumptions (paper eqs. 23-24): ``C >= 1`` and
    ``v = O(C)``; tests verify agreement with exact Erlang-B to a few
    percent over the operating range of the experiments.
    """
    if load_erlangs < 0:
        raise ValueError(f"load must be non-negative, got {load_erlangs}")
    if capacity < 1:
        raise ValueError(f"UAA requires capacity >= 1, got {capacity}")
    if load_erlangs == 0:
        return 0.0
    v = float(load_erlangs)
    c = float(capacity)
    z_star = c / v
    if abs(z_star - 1.0) < _CRITICAL_WINDOW:
        return erlang_b(v, capacity)
    f_star = v * (z_star - 1.0) - c * math.log(z_star)  # always <= 0
    if f_star < _UNDERFLOW_F:
        return erlang_b(v, capacity)
    variance = v * z_star  # V(z*) = C
    sign = 1.0 if z_star < 1.0 else -1.0  # sgn(1 - z*)
    sqrt_neg_f = math.sqrt(max(0.0, -f_star))
    exp_f = math.exp(f_star)
    m = 0.5 * math.erfc(sign * sqrt_neg_f) + (exp_f / math.sqrt(2.0 * math.pi)) * (
        1.0 / (math.sqrt(variance) * (1.0 - z_star))
        - sign / math.sqrt(-2.0 * f_star)
    )
    if m <= 0:  # numerically impossible in the valid regime; be safe
        return erlang_b(v, capacity)
    blocking = exp_f / (m * math.sqrt(2.0 * math.pi * variance))
    return min(1.0, max(0.0, blocking))

