"""RSVP-lite signalling (paper Section 4.4).

The paper delegates resource reservation to "the standard RSVP
protocol": PATH messages probe the route hop by hop, RESV messages
reserve on the way back.  Admission *probabilities* do not depend on
the message mechanics (the paper's simulation treats reservation as
atomic), but the mechanics determine the *overhead* of each retrial —
the very trade-off retrial control balances.

This subpackage implements a small message-level model so reservation
latency and message counts can be measured:

* :mod:`repro.signaling.rsvp` -- a hop-by-hop signalling session that
  runs on the discrete-event engine with per-link propagation delays.
"""

from repro.signaling.admission import SignalledACRouter
from repro.signaling.rsvp import ReservationOutcome, RsvpSession, SignalledReservationEngine

__all__ = [
    "ReservationOutcome",
    "RsvpSession",
    "SignalledACRouter",
    "SignalledReservationEngine",
]
