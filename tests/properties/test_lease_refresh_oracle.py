"""Property: held leases reproduce the timer-driven refresh chain.

The signalled driver schedules no event per lease refresh.  At admission
it derives its flow's refresh ticks from the departure time and hands
the lease their outcome (``LeaseTable.hold``); at departure it derives
them again and charges the refresh messages.  The oracle below is the driver with the timer
chain instead: one event per refresh, each extending the lease with
``LeaseTable.refresh`` until the flow departs or finds its lease
collected.  Every ``ChaosResult`` field must agree with the oracle
across impairments, lease timings, seeds and the sanitizer switch.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import invariants
from repro.core.system import SystemSpec
from repro.experiments.chaos import ChaosConfig, ChaosSimulation
from repro.experiments.config import quick_config


class TimerRefreshSimulation(ChaosSimulation):
    """The signalled driver with one timer event per lease refresh."""

    def _refresh_ticks(self, flow):
        return 0.0, 0.0, 0  # the timer chain refreshes and charges instead

    def _handle_signalled_decision(self, flow):
        super()._handle_signalled_decision(flow)
        if flow.admitted:
            key = flow.reservation_key
            self.simulator.schedule(
                self.chaos.refresh_interval_s, lambda: self._refresh(flow, key)
            )

    def _refresh(self, flow, key):
        if flow.released or not self.leases.refresh(key):
            return
        self.refresh_messages += 2 * flow.route.distance
        self.simulator.schedule(
            self.chaos.refresh_interval_s, lambda: self._refresh(flow, key)
        )


def tie_lifetimes(simulation, interval):
    """Round every lifetime to a whole number of refresh intervals.

    With a dyadic interval, a departure then usually lands exactly on a
    refresh tick, which exercises the departure-first tie rule.
    """
    draw = simulation.traffic.next_request

    def next_request():
        request = draw()
        ticks = max(1, round(request.lifetime_s / interval))
        request.lifetime_s = ticks * interval
        return request

    simulation.traffic.next_request = next_request


def run(cls, chaos, seed, tied):
    config = dataclasses.replace(
        quick_config(seed),
        warmup_s=2.0,
        measure_s=12.0,
        mean_lifetime_s=6.0,
        bandwidth_bps=10e6,
    )
    simulation = cls(
        network_factory=config.network_factory(),
        system_spec=SystemSpec("WD/D+B", retrials=2),
        workload=config.workload(6.0),
        chaos=chaos,
        warmup_s=config.warmup_s,
        measure_s=config.measure_s,
        seed=seed,
    )
    if tied:
        tie_lifetimes(simulation, chaos.refresh_interval_s)
    return simulation.run()


@st.composite
def chaos_configs(draw):
    # Dyadic intervals keep tied lifetimes exact multiples of the tick.
    interval = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    # A small TTL - interval slack plus slow, lossy signalling lets
    # leases run out before their first refresh.
    slack = draw(st.sampled_from([0.01, 0.1, 0.5, 3.0]))
    return ChaosConfig(
        loss_rate=draw(st.sampled_from([0.0, 0.05, 0.2, 0.4])),
        duplicate_rate=draw(st.sampled_from([0.0, 0.1])),
        extra_delay_s=draw(st.sampled_from([0.0, 0.02])),
        initial_timeout_s=draw(st.sampled_from([0.05, 0.3])),
        lease_ttl_s=interval + slack,
        refresh_interval_s=interval,
        gc_interval_s=draw(st.sampled_from([0.3, 1.0, 5.0])),
    )


SLOW_SIGNALLING = ChaosConfig(
    loss_rate=0.4,
    initial_timeout_s=0.3,
    lease_ttl_s=1.01,
    refresh_interval_s=1.0,
    gc_interval_s=0.3,
)


@settings(max_examples=25, deadline=None)
@given(
    chaos=chaos_configs(),
    seed=st.integers(1, 1000),
    tied=st.booleans(),
    sanitize=st.booleans(),
)
@example(
    chaos=ChaosConfig(lease_ttl_s=4.0, refresh_interval_s=1.0),
    seed=3,
    tied=True,
    sanitize=False,
)
@example(chaos=SLOW_SIGNALLING, seed=3, tied=False, sanitize=True)
def test_held_leases_match_timer_refreshes(chaos, seed, tied, sanitize):
    was_enabled = invariants.enabled
    invariants.set_enabled(sanitize)
    try:
        held = run(ChaosSimulation, chaos, seed, tied)
        timed = run(TimerRefreshSimulation, chaos, seed, tied)
    finally:
        invariants.set_enabled(was_enabled)
    assert held == timed
    assert held.leaked_bps == 0.0
