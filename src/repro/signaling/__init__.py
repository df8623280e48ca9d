"""RSVP-lite signalling (paper Section 4.4).

The paper delegates resource reservation to "the standard RSVP
protocol": PATH messages probe the route hop by hop, RESV messages
reserve on the way back.  Admission *probabilities* do not depend on
the message mechanics (the paper's simulation treats reservation as
atomic), but the mechanics determine the *overhead* of each retrial —
the very trade-off retrial control balances.

This subpackage implements a small message-level model so reservation
latency and message counts can be measured:

* :mod:`repro.signaling.rsvp` -- :class:`SignalledReservationEngine`,
  the signalling plane: each reservation is a hop-by-hop PATH/RESV
  session on the discrete-event engine with per-link propagation
  delays, and each release a hop-by-hop TEAR sweep;
* :mod:`repro.signaling.channel` -- the delivery substrate every hop
  message crosses (perfect by default, optionally lossy, delayed or
  duplicating) and the per-hop retransmission policy that recovers
  losses;
* :mod:`repro.signaling.softstate` -- soft-state leases and the orphan
  collector that reclaims reservations a lost message stranded;
* :mod:`repro.signaling.admission` -- :class:`SignalledACRouter`, the
  DAC loop of Figure 1 run on the engine.
"""

from repro.signaling.admission import SignalledACRouter
from repro.signaling.rsvp import ReservationOutcome, SignalledReservationEngine

__all__ = [
    "ReservationOutcome",
    "SignalledACRouter",
    "SignalledReservationEngine",
]
