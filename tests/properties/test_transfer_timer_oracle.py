"""Property: lazily armed hop timers reproduce the eager timer chain.

A signalled session asks the channel for a transmission's fate before
it sends it, and schedules the hop's retransmission timer only when no
copy arrives strictly before the timeout.  The oracle below is the hop
transfer as it was before that: every transmission schedules its timer
first and then sends, and a copy that lands in time cancels the timer.
Every ``ChaosResult`` field must agree with the oracle across loss,
duplication, extra delay, jitter, backoff shapes, seeds and the
sanitizer switch, including configurations where a timer and a copy
land at the same instant.
"""

import dataclasses
import functools
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import invariants
from repro.core.system import SystemSpec
from repro.experiments.chaos import ChaosConfig, ChaosSimulation
from repro.experiments.config import quick_config
from repro.network.topologies import mci_backbone
from repro.signaling import rsvp


def eager_transfer(self, delay_s, deliver, on_lost):
    """The session's hop transfer with an unconditional timer per send."""
    self._messages += 1
    policy = self._retransmit
    if policy is None:
        self._channel.send(delay_s, deliver)
        return
    state = {"done": False, "tries": 0}
    timer_box = [None]

    def arrive():
        if state["done"]:
            return  # duplicate or late copy
        state["done"] = True
        timer = timer_box[0]
        if timer is not None:
            timer.cancel()
            timer_box[0] = None
        deliver()

    def timed_out():
        if state["done"]:
            return
        if state["tries"] >= policy.max_retransmits:
            # Give up; suppress any straggler copies still in flight.
            state["done"] = True
            on_lost()
            return
        state["tries"] += 1
        self._messages += 1
        self._retransmissions += 1
        transmit()

    def transmit():
        timer_box[0] = self._simulator.schedule(
            policy.timeout(state["tries"]), timed_out
        )
        self._channel.send(delay_s, arrive)

    transmit()


class EagerTransfer:
    """Stands in for ``rsvp._Transfer`` and runs :func:`eager_transfer`."""

    def __init__(self, session, delay_s, resv, node_index):
        self._args = (session, delay_s, resv, node_index)

    def transmit(self):
        session, delay_s, resv, node = self._args
        if resv:
            deliver = functools.partial(session._advance_resv, node - 1)
            on_lost = functools.partial(session._resv_lost, node)
        else:
            deliver = functools.partial(session._advance_path, node + 1)
            on_lost = functools.partial(session._path_lost, node)
        eager_transfer(session, delay_s, deliver, on_lost)


def run(chaos, link_delay_s, seed):
    config = dataclasses.replace(
        quick_config(seed),
        warmup_s=2.0,
        measure_s=12.0,
        mean_lifetime_s=6.0,
        bandwidth_bps=10e6,
    )
    simulation = ChaosSimulation(
        network_factory=functools.partial(
            mci_backbone, propagation_delay_s=link_delay_s
        ),
        system_spec=SystemSpec("WD/D+B", retrials=2),
        workload=config.workload(8.0),
        chaos=chaos,
        warmup_s=config.warmup_s,
        measure_s=config.measure_s,
        seed=seed,
    )
    return simulation.run()


@st.composite
def scenarios(draw):
    """A chaos configuration and the link delay it runs over.

    Dyadic link delays and timeouts with zero jitter, unit backoff and
    no processing delay make a hop's arrival coincide exactly with its
    timer.
    """
    link_delay = draw(st.sampled_from([0.005, 0.0078125, 0.0625]))
    tied = draw(st.booleans())
    chaos = ChaosConfig(
        loss_rate=draw(st.sampled_from([0.0, 0.05, 0.2, 0.4])),
        duplicate_rate=draw(st.sampled_from([0.0, 0.1, 0.5])),
        extra_delay_s=0.0 if tied else draw(st.sampled_from([0.0, 0.001, 0.02])),
        initial_timeout_s=(
            link_delay if tied else draw(st.sampled_from([0.01, 0.05, 0.3]))
        ),
        backoff_factor=1.0 if tied else draw(st.sampled_from([1.0, 2.0])),
        timeout_jitter=0.0 if tied else draw(st.sampled_from([0.0, 0.1, 0.5])),
        max_retransmits=draw(st.sampled_from([0, 1, 4])),
        processing_delay_s=0.0 if tied else draw(st.sampled_from([0.0, 0.0002])),
        lease_ttl_s=3.0,
        refresh_interval_s=1.0,
        gc_interval_s=0.5,
    )
    return chaos, link_delay


TIED = ChaosConfig(
    loss_rate=0.2,
    duplicate_rate=0.1,
    initial_timeout_s=0.0625,
    backoff_factor=1.0,
    timeout_jitter=0.0,
    max_retransmits=2,
    processing_delay_s=0.0,
    lease_ttl_s=3.0,
    refresh_interval_s=1.0,
    gc_interval_s=0.5,
)


@settings(max_examples=40, deadline=None)
@given(
    scenario=scenarios(),
    seed=st.integers(1, 1000),
    sanitize=st.booleans(),
)
@example(scenario=(TIED, 0.0625), seed=3, sanitize=False)
@example(scenario=(TIED, 0.0625), seed=5, sanitize=True)
@example(scenario=(ChaosConfig(loss_rate=0.05), 0.005), seed=3, sanitize=True)
def test_lazy_timers_match_eager_timers(scenario, seed, sanitize):
    chaos, link_delay = scenario
    was_enabled = invariants.enabled
    invariants.set_enabled(sanitize)
    try:
        lazy = run(chaos, link_delay, seed)
        with mock.patch.object(rsvp, "_Transfer", EagerTransfer):
            eager = run(chaos, link_delay, seed)
    finally:
        invariants.set_enabled(was_enabled)
    assert lazy == eager
    assert lazy.leaked_bps == 0.0
