"""Unreliable delivery substrate for signalling messages.

Every hop-to-hop transmission of the RSVP-lite protocol goes through a
:class:`SignalingChannel`, which can inject the three classic
control-plane impairments:

* **Bernoulli loss** — each transmission is dropped independently with
  probability ``loss_rate``;
* **extra delay** — each *delivered* copy waits an additional uniform
  ``[0, extra_delay_s)`` on top of propagation + processing, which
  reorders messages of concurrent sessions;
* **duplication** — each delivered transmission spawns a second copy
  with probability ``duplicate_rate`` (its own extra-delay draw, so
  the duplicate may arrive first).

Each impairment draws from its *own* :class:`RandomStream` so enabling
one never perturbs the variate sequences of the others (common random
numbers), and the whole channel is deterministic under a fixed seed.

The loss stream is read ahead.  Transmission ``i`` is lost when the
stream's ``i``-th unit uniform is below ``loss_rate``, but most are
not, so instead of drawing one variate per transmission the channel
asks the stream (:meth:`RandomStream.pass_over_at_least`) how many
variates at or above ``loss_rate`` come before the next one below it,
counts that gap down one kept transmission at a time, and draws only
the variate that loses a message.  Every transmission meets the fate
it would meet with one draw each; this is valid only because nothing
else draws from the loss stream, so reading it ahead moves no other
variate.

A sender that needs to know whether a transmission will arrive before
some deadline calls :meth:`SignalingChannel.plan` first: it draws the
transmission's fate (loss, duplication, each copy's extra delay) and
returns the copies' arrival delays, and the next
:meth:`SignalingChannel.send` delivers exactly that fate.  A ``send``
without a plan draws the fate itself, so planning changes no fate.

The perfect channel is the default and is guaranteed bit-identical to
scheduling directly on the simulator: with all rates at zero,
:meth:`SignalingChannel.send` performs exactly one
``simulator.schedule(delay_s, deliver)`` call and **zero** rng draws,
so event sequence numbers and every stream's state match a build
without the channel layer.  The golden determinism tests rest on this.

:class:`RetransmitPolicy` is the sender-side half of reliability: it
bundles a :class:`repro.core.retrial.ExponentialBackoff` timeout
schedule with a retransmission cap.  The channel drops messages; the
policy decides how long to wait for the per-hop acknowledgement and
how many times to retransmit before declaring the transfer lost.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Optional

from repro.core.retrial import ExponentialBackoff
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStream


class SignalingChannel:
    """Lossy, delaying, duplicating hop-to-hop message delivery.

    Parameters
    ----------
    simulator:
        Event engine the deliveries are scheduled on.
    loss_rate:
        Probability each transmission is silently dropped.
    extra_delay_s:
        Upper bound of the per-delivery uniform extra delay (0 = none).
    duplicate_rate:
        Probability a delivered transmission arrives twice.
    loss_rng / delay_rng / duplicate_rng:
        Dedicated random streams, required iff the matching rate is
        positive.  Keeping them separate preserves common random
        numbers across impairment configurations; the loss stream must
        be separate, as it is read ahead.
    """

    def __init__(
        self,
        simulator: Simulator,
        loss_rate: float = 0.0,
        extra_delay_s: float = 0.0,
        duplicate_rate: float = 0.0,
        loss_rng: Optional[RandomStream] = None,
        delay_rng: Optional[RandomStream] = None,
        duplicate_rng: Optional[RandomStream] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        # Written so that NaN fails.
        if not 0.0 <= extra_delay_s < math.inf:
            raise ValueError(
                f"extra delay must be finite and non-negative, got {extra_delay_s}"
            )
        if not 0.0 <= duplicate_rate < 1.0:
            raise ValueError(
                f"duplicate rate must be in [0, 1), got {duplicate_rate}"
            )
        if loss_rate > 0.0 and loss_rng is None:
            raise ValueError("loss_rate > 0 requires loss_rng")
        if extra_delay_s > 0.0 and delay_rng is None:
            raise ValueError("extra_delay_s > 0 requires delay_rng")
        if duplicate_rate > 0.0 and duplicate_rng is None:
            raise ValueError("duplicate_rate > 0 requires duplicate_rng")
        if loss_rate > 0.0 and (
            (extra_delay_s > 0.0 and delay_rng is loss_rng)
            or (duplicate_rate > 0.0 and duplicate_rng is loss_rng)
        ):
            raise ValueError("the loss stream is read ahead and cannot be shared")
        self._simulator = simulator
        self.loss_rate = loss_rate
        self.extra_delay_s = extra_delay_s
        self.duplicate_rate = duplicate_rate
        self._loss_rng = loss_rng
        self._delay_rng = delay_rng
        self._duplicate_rng = duplicate_rng
        self._impaired = loss_rate > 0.0 or extra_delay_s > 0.0 or duplicate_rate > 0.0
        #: transmissions offered to the channel
        self.sent = 0
        #: transmissions dropped by loss injection
        self.dropped = 0
        #: extra deliveries created by duplication
        self.duplicated = 0
        # Transmissions kept before the next loss, or -1 when the loss
        # stream has not been read ahead since the last one.
        self._kept = -1
        # Arrival delays drawn by plan() for the next send(), if any.
        self._planned: Optional[tuple[float, ...]] = None

    def plan(self, delay_s: float) -> tuple[float, ...]:
        """Draw the fate of the next transmission of a ``delay_s`` message.

        Returns the arrival delays of the copies that will survive, in
        the order :meth:`send` schedules them: empty if the message is
        lost, two delays if it is duplicated.  The next :meth:`send`
        delivers exactly this fate, so the caller must send next.  The
        perfect channel draws nothing and returns ``(delay_s,)``.
        """
        if not self._impaired:
            return (delay_s,)
        arrivals = self._planned = self._draw_fate(delay_s)
        return arrivals

    def send(self, delay_s: float, deliver: Callable[[], None]) -> None:
        """Transmit one message; ``deliver`` fires on each arrival.

        ``delay_s`` is the nominal propagation + processing delay.  A
        lost message never fires ``deliver``; a duplicated one fires it
        twice (receivers deduplicate).  The fate is the one drawn by
        the preceding :meth:`plan`, or drawn now if there was none.
        The perfect channel compiles to exactly one ``schedule`` call
        with no rng draws.
        """
        self.sent += 1
        arrivals = self._planned
        if arrivals is None:
            if not self._impaired:
                self._simulator.schedule(delay_s, deliver)
                return
            arrivals = self._draw_fate(delay_s)
        else:
            self._planned = None
        for arrival in arrivals:
            self._simulator.schedule(arrival, deliver)

    def _draw_fate(self, delay_s: float) -> tuple[float, ...]:
        """Loss, duplication and extra delays of one transmission."""
        if self.loss_rate > 0.0:
            kept = self._kept
            if kept < 0:
                assert self._loss_rng is not None  # enforced by the constructor
                kept = self._loss_rng.pass_over_at_least(self.loss_rate)
            if kept:
                self._kept = kept - 1
            else:
                # Serve the variate below loss_rate that the scan stopped at.
                assert self._loss_rng is not None
                lost = self._loss_rng.uniform()
                assert lost < self.loss_rate
                self._kept = -1
                self.dropped += 1
                return ()
        first = self._copy_delay(delay_s)
        if self.duplicate_rate > 0.0:
            assert self._duplicate_rng is not None
            if self._duplicate_rng.uniform() < self.duplicate_rate:
                self.duplicated += 1
                return (first, self._copy_delay(delay_s))
        return (first,)

    def _copy_delay(self, delay_s: float) -> float:
        if self.extra_delay_s > 0.0:
            assert self._delay_rng is not None
            delay_s += self._delay_rng.uniform(0.0, self.extra_delay_s)
        return delay_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SignalingChannel(loss={self.loss_rate:g}, "
            f"extra_delay={self.extra_delay_s:g}s, "
            f"dup={self.duplicate_rate:g}, sent={self.sent}, "
            f"dropped={self.dropped})"
        )


class RetransmitPolicy:
    """Sender-side reliability: timeout schedule plus a retry cap.

    Parameters
    ----------
    backoff:
        The :class:`ExponentialBackoff` giving the wait before each
        retransmission (``backoff.timeout(0)`` guards the initial
        transmission).
    max_retransmits:
        Retransmissions allowed per hop transfer before the sender
        declares it lost; 0 means a single transmission guarded by a
        timeout but never retried.
    """

    def __init__(self, backoff: ExponentialBackoff, max_retransmits: int = 3) -> None:
        if not isinstance(max_retransmits, numbers.Integral) or max_retransmits < 0:
            raise ValueError(
                "max retransmits must be a non-negative integer, "
                f"got {max_retransmits!r}"
            )
        self.backoff = backoff
        self.max_retransmits = max_retransmits

    def timeout(self, transmission: int) -> float:
        """Timeout guarding transmission number ``transmission`` (0-based)."""
        return self.backoff.timeout(transmission)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetransmitPolicy({self.backoff!r}, "
            f"max_retransmits={self.max_retransmits})"
        )
