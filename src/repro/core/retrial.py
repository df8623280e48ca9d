"""Retrial control (paper Section 4.5).

After a failed reservation the DAC procedure must decide whether to
try an alternative destination.  More retrials raise the admission
probability but cost extra signalling round trips, so the paper uses a
simple counter scheme: a counter ``c`` incremented on every attempt,
with retrial allowed while ``c < R``.  ``R`` is therefore the maximum
number of destinations tried per request; ``R = 1`` means a single
shot with no retry.

The policy is pluggable so ablations can explore alternatives; the
paper's scheme is :class:`CounterRetrialPolicy`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.random_streams import RandomStream


class RetrialPolicy(Protocol):
    """Decides whether the DAC loop keeps going after a failure."""

    def should_retry(self, attempts_made: int, distinct_tried: int, group_size: int) -> bool:
        """Return ``True`` to try another destination.

        Parameters
        ----------
        attempts_made:
            Value of the paper's counter ``c``: destinations tried so
            far for this request (>= 1 when consulted).
        distinct_tried:
            Number of *distinct* destinations tried; when selection
            excludes failed destinations this equals ``attempts_made``.
        group_size:
            ``K``; no policy can usefully exceed it when failed
            destinations are excluded.
        """
        ...


class CounterRetrialPolicy:
    """The paper's counter scheme: retry while ``c < R``.

    Parameters
    ----------
    max_attempts:
        ``R``, the total number of destinations that may be tried.
    """

    def __init__(self, max_attempts: int) -> None:
        if max_attempts < 1:
            raise ValueError(f"R must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts

    def should_retry(self, attempts_made: int, distinct_tried: int, group_size: int) -> bool:
        """Retry while the counter is below ``R`` and members remain."""
        if distinct_tried >= group_size:
            return False
        return attempts_made < self.max_attempts

    def __repr__(self) -> str:
        return f"CounterRetrialPolicy(R={self.max_attempts})"


class AlwaysRetryPolicy:
    """Ablation: exhaust every distinct destination (R = K).

    Equivalent to ``CounterRetrialPolicy(group_size)`` for any request;
    provided for readability in ablation configs.
    """

    def should_retry(self, attempts_made: int, distinct_tried: int, group_size: int) -> bool:
        """Retry until every member has been tried."""
        return distinct_tried < group_size

    def __repr__(self) -> str:
        return "AlwaysRetryPolicy()"


class NeverRetryPolicy:
    """Ablation: single-shot admission, identical to ``R = 1``."""

    def should_retry(self, attempts_made: int, distinct_tried: int, group_size: int) -> bool:
        """Never retry."""
        return False

    def __repr__(self) -> str:
        return "NeverRetryPolicy()"


class ExponentialBackoff:
    """Per-hop retransmission timeout schedule with optional jitter.

    Destination *re-selection* (the policies above) decides whether to
    try another group member after a failed reservation; this schedule
    governs the orthogonal, lower layer: how long a signalling sender
    waits for a per-hop acknowledgement before retransmitting the same
    message over an unreliable channel.  The two compose — a request
    may burn several retransmissions inside each reservation attempt
    before the retrial policy redirects it.

    The timeout for transmission ``attempt`` (0-based: the first
    retransmission waits ``timeout(0)``) is::

        min(initial_timeout_s * factor ** attempt, max_timeout_s)

    optionally multiplied by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter)`` — the classic decorrelation trick so
    retransmissions of concurrent sessions do not stay synchronized.
    Jitter draws come from a dedicated :class:`RandomStream` so the
    schedule is deterministic under a fixed seed and perturbs no other
    stream (common random numbers).

    Parameters
    ----------
    initial_timeout_s:
        Timeout before the first retransmission.
    factor:
        Multiplier applied per retransmission (>= 1).
    max_timeout_s:
        Cap on the un-jittered timeout.
    jitter:
        Relative jitter amplitude in ``[0, 1)``; 0 disables jitter.
    rng:
        Random stream for jitter draws; required iff ``jitter > 0``.
    """

    def __init__(
        self,
        initial_timeout_s: float,
        factor: float = 2.0,
        max_timeout_s: float = float("inf"),
        jitter: float = 0.0,
        rng: Optional["RandomStream"] = None,
    ) -> None:
        # Written so that NaN fails: a sender arms a timer only when no
        # copy arrives before it, and every comparison with NaN is false.
        if not 0.0 < initial_timeout_s < math.inf:
            raise ValueError(
                f"initial timeout must be finite and positive, got {initial_timeout_s}"
            )
        if not 1.0 <= factor < math.inf:
            raise ValueError(f"backoff factor must be finite and >= 1, got {factor}")
        # An infinite cap (the default) means no cap.
        if not max_timeout_s >= initial_timeout_s:
            raise ValueError(
                f"max timeout {max_timeout_s} below initial {initial_timeout_s}"
            )
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if jitter > 0.0 and rng is None:
            raise ValueError("jitter > 0 requires a random stream")
        self.initial_timeout_s = initial_timeout_s
        self.factor = factor
        self.max_timeout_s = max_timeout_s
        self.jitter = jitter
        self._rng = rng

    def timeout(self, attempt: int) -> float:
        """Timeout (seconds) before retransmission number ``attempt``."""
        if attempt < 0:
            raise ValueError(f"attempt must be non-negative, got {attempt}")
        base = self.initial_timeout_s * self.factor**attempt
        if base > self.max_timeout_s:
            base = self.max_timeout_s
        if self.jitter > 0.0:
            assert self._rng is not None  # enforced by the constructor
            base *= 1.0 + self.jitter * (2.0 * self._rng.uniform() - 1.0)
        return base

    def __repr__(self) -> str:
        return (
            f"ExponentialBackoff(initial={self.initial_timeout_s:g}, "
            f"factor={self.factor:g}, max={self.max_timeout_s:g}, "
            f"jitter={self.jitter:g})"
        )
