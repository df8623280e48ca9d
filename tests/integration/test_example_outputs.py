"""Pinned output of the examples that build a signalling engine.

``examples/signaling_overhead.py`` is the one program outside the
simulation driver that builds a
:class:`repro.signaling.rsvp.SignalledReservationEngine` and reports its
totals (messages, TEARs, mean messages and latency per attempt), so its
table is compared to the text it printed when it was recorded.
"""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

SIGNALING_OVERHEAD = """\
RSVP-lite signalling from router 9 on the MCI backbone
(8 anycast slots per link, 5 ms propagation per hop)
==============================================================
metric                        value
----------------------------  -------
flows offered                 120
flows admitted                16
destination attempts          227
signalling messages           161
  of which TEAR (lost races)  7
messages per attempt          0.71
mean reservation latency      3.39 ms

Every retrial costs another PATH/RESV round trip, which is why
the paper prefers selection algorithms that need few retrials
(Figure 7) and caps R at 2 in its recommended systems.
"""


def test_signaling_overhead_table(capsys):
    runpy.run_path(str(EXAMPLES / "signaling_overhead.py"), run_name="__main__")
    assert capsys.readouterr().out == SIGNALING_OVERHEAD
