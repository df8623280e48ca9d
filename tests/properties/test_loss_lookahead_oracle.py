"""Property: the read-ahead loss stream and lazy jitter change no outcome.

``SignalingChannel`` reads its loss stream ahead: it counts down the
run of variates at or above ``loss_rate`` instead of drawing one per
transmission.  A hop transfer draws its jittered timeout only when the
earliest copy does not land before the backoff's floor, and passes the
variate over otherwise.  The oracle below is the signalled plane as it
was before both: a channel that draws one loss uniform per
transmission, and the eager transfer that draws a timeout, and arms
its timer, for every transmission.  Every ``ChaosResult`` field must
agree with the oracle across loss, duplication, extra delay, jitter,
backoff shapes, seeds and the sanitizer switch, including copies that
land exactly on the floor.
"""

import dataclasses
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import invariants
from repro.experiments.chaos import ChaosConfig
from repro.signaling import rsvp
from repro.signaling.channel import SignalingChannel
from repro.sim import simulation

from tests.properties.test_transfer_timer_oracle import EagerTransfer, run


class PerTransmissionChannel(SignalingChannel):
    """The channel with one loss uniform drawn per transmission."""

    def _draw_fate(self, delay_s):
        if self.loss_rate > 0.0:
            if self._loss_rng.uniform() < self.loss_rate:
                self.dropped += 1
                return ()
        first = self._copy_delay(delay_s)
        if self.duplicate_rate > 0.0:
            if self._duplicate_rng.uniform() < self.duplicate_rate:
                self.duplicated += 1
                return (first, self._copy_delay(delay_s))
        return (first,)


def oracle_run(chaos, link_delay_s, seed):
    with mock.patch.object(
        simulation, "SignalingChannel", PerTransmissionChannel
    ), mock.patch.object(rsvp, "_Transfer", EagerTransfer):
        return run(chaos, link_delay_s, seed)


#: Short-lived leases so that collection, refresh and TEARs all run.
SOFT_STATE = dict(lease_ttl_s=3.0, refresh_interval_s=1.0, gc_interval_s=0.5)


@st.composite
def scenarios(draw):
    """A chaos configuration and the link delay it runs over.

    Loss rates run from long gaps that outlast a block of variates
    (0.001) to runs of consecutive losses (0.6).
    """
    link_delay = draw(st.sampled_from([0.005, 0.0078125, 0.0625]))
    chaos = ChaosConfig(
        loss_rate=draw(st.sampled_from([0.0, 0.001, 0.05, 0.2, 0.6])),
        duplicate_rate=draw(st.sampled_from([0.0, 0.1, 0.5])),
        extra_delay_s=draw(st.sampled_from([0.0, 0.001, 0.02])),
        initial_timeout_s=draw(st.sampled_from([0.01, 0.02, 0.05, 0.3])),
        backoff_factor=draw(st.sampled_from([1.0, 2.0])),
        timeout_jitter=draw(st.sampled_from([0.0, 0.1, 0.5, 0.9])),
        max_retransmits=draw(st.sampled_from([0, 1, 4])),
        processing_delay_s=draw(st.sampled_from([0.0, 0.0002])),
        **SOFT_STATE,
    )
    return chaos, link_delay


#: Every copy lands exactly on the floor ``0.125 * (1 - 0.5)`` of its
#: timeout, so every transmission takes the slow path and draws.
ON_JITTER_FLOOR = ChaosConfig(
    loss_rate=0.2,
    duplicate_rate=0.1,
    initial_timeout_s=0.125,
    backoff_factor=1.0,
    timeout_jitter=0.5,
    max_retransmits=2,
    processing_delay_s=0.0,
    **SOFT_STATE,
)
#: Without jitter the floor is the timeout itself: a copy landing on it
#: ties with the timer, which must be armed and win.  A floor test that
#: let such a copy skip its timer would retransmit nothing here.
ON_BARE_FLOOR = dataclasses.replace(
    ON_JITTER_FLOOR, initial_timeout_s=0.0625, timeout_jitter=0.0
)


@settings(max_examples=40, deadline=None)
@given(
    scenario=scenarios(),
    seed=st.integers(1, 1000),
    sanitize=st.booleans(),
)
@example(scenario=(ON_BARE_FLOOR, 0.0625), seed=3, sanitize=False)
@example(scenario=(ON_JITTER_FLOOR, 0.0625), seed=5, sanitize=True)
@example(scenario=(ChaosConfig(loss_rate=0.05), 0.005), seed=3, sanitize=False)
@example(
    scenario=(ChaosConfig(loss_rate=0.001, timeout_jitter=0.5), 0.005),
    seed=11,
    sanitize=True,
)
def test_lookahead_and_lazy_jitter_match_per_transmission_draws(
    scenario, seed, sanitize
):
    chaos, link_delay = scenario
    was_enabled = invariants.enabled
    invariants.set_enabled(sanitize)
    try:
        fast = run(chaos, link_delay, seed)
        oracle = oracle_run(chaos, link_delay, seed)
    finally:
        invariants.set_enabled(was_enabled)
    assert fast == oracle
    assert fast.leaked_bps == 0.0


def test_a_copy_on_the_bare_floor_arms_its_timer():
    """The crafted tie does retransmit, in the fast run as in the oracle."""
    result = run(ON_BARE_FLOOR, 0.0625, 3)
    assert result.retransmissions > 0
    assert result == oracle_run(ON_BARE_FLOOR, 0.0625, 3)
