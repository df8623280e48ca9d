"""Robust-mode RSVP tests: loss recovery, teardown, soft-state GC.

Uses a test-local ``ScriptedChannel`` that drops exact transmission
indices, so every scenario (which copy is lost, which TEAR leg
vanishes) is constructed deterministically rather than sampled.
"""

import pytest

from repro.core.retrial import ExponentialBackoff
from repro.network.routing import Route
from repro.network.topologies import line
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.signaling.rsvp import RsvpSession, SignalledReservationEngine
from repro.signaling.softstate import LeaseTable
from repro.sim.random_streams import StreamFactory

ROUTE = Route(source=0, destination=3, path=(0, 1, 2, 3))


@pytest.fixture
def network():
    return line(4, capacity_bps=64_000.0, propagation_delay_s=0.001)


class ScriptedChannel(SignalingChannel):
    """Drops the transmissions whose 0-based index is scripted.

    The loss rate only marks the channel lossy (which forces the
    retransmit-policy requirement); the fate of each transmission comes
    from the script, and the loss stream is never drawn.
    """

    def __init__(self, simulator, drop_indices=()):
        super().__init__(
            simulator, loss_rate=0.5, loss_rng=StreamFactory(0).stream("unused")
        )
        self._drop = set(drop_indices)
        self._fates = 0

    def _draw_fate(self, delay_s):
        index = self._fates
        self._fates += 1
        if index in self._drop:
            self.dropped += 1
            return ()
        return (delay_s,)


def policy(max_retransmits=3):
    return RetransmitPolicy(
        ExponentialBackoff(0.05, factor=2.0, max_timeout_s=1.0),
        max_retransmits=max_retransmits,
    )


def run_robust(
    simulator,
    network,
    channel,
    retransmit=None,
    leases=None,
    flow_id="f1",
    bandwidth=64_000.0,
):
    outcomes = []
    session = RsvpSession(
        simulator,
        network,
        ROUTE,
        flow_id,
        bandwidth,
        outcomes.append,
        channel=channel,
        retransmit=retransmit,
        leases=leases,
    )
    session.start()
    simulator.run()
    assert len(outcomes) == 1
    return outcomes[0]


class TestValidation:
    def test_lossy_channel_requires_retransmit(self, simulator, network):
        channel = SignalingChannel(
            simulator,
            loss_rate=0.1,
            loss_rng=StreamFactory(0).stream("loss"),
        )
        with pytest.raises(ValueError):
            RsvpSession(
                simulator, network, ROUTE, "f", 64_000.0, lambda o: None,
                channel=channel,
            )

    def test_delay_only_channel_needs_no_retransmit(self, simulator, network):
        channel = SignalingChannel(
            simulator,
            extra_delay_s=0.01,
            delay_rng=StreamFactory(0).stream("delay"),
        )
        outcome = run_robust(simulator, network, channel)
        assert outcome.success


class TestLossRecovery:
    def test_lost_path_is_retransmitted(self, simulator, network):
        # Transmission 0 is the first PATH hop; drop it once.
        channel = ScriptedChannel(simulator, drop_indices={0})
        outcome = run_robust(simulator, network, channel, retransmit=policy())
        assert outcome.success
        assert outcome.retransmissions == 1
        # The timeout (50 ms) dominates the hop delay budget.
        assert outcome.latency_s > 0.05
        for u, v in ((0, 1), (1, 2), (2, 3)):
            assert network.link(u, v).holds("f1")

    def test_lost_resv_is_retransmitted(self, simulator, network):
        # 3 PATH transmissions (0, 1, 2); index 3 is the first RESV leg.
        channel = ScriptedChannel(simulator, drop_indices={3})
        outcome = run_robust(simulator, network, channel, retransmit=policy())
        assert outcome.success
        assert outcome.retransmissions == 1

    def test_messages_include_retransmissions(self, simulator, network):
        channel = ScriptedChannel(simulator, drop_indices={0, 1})
        outcome = run_robust(simulator, network, channel, retransmit=policy())
        assert outcome.success
        # 6 protocol messages + 2 retransmitted copies.
        assert outcome.messages == 8
        assert outcome.retransmissions == 2


class TestGiveUp:
    def test_path_loss_exhausts_retries(self, simulator, network):
        # Kill the first PATH hop and all its retransmissions.
        channel = ScriptedChannel(simulator, drop_indices={0, 1, 2})
        outcome = run_robust(
            simulator, network, channel, retransmit=policy(max_retransmits=2)
        )
        assert not outcome.success
        assert outcome.timed_out
        assert outcome.failed_link == (0, 1)
        assert network.total_reserved_bps() == 0.0

    def test_resv_loss_tears_downstream(self, simulator, network):
        leases = LeaseTable(simulator, network, ttl_s=5.0, sweep_interval_s=1.0)
        # Indices 0-2: PATH sweep.  3 and 4: first RESV leg (2->3... no:
        # RESV travels 3->2 first) and its retransmission -- kill both,
        # so node 3's upstream reservation (2,3) is installed but the
        # session gives up.  The TEAR then releases it.
        channel = ScriptedChannel(simulator, drop_indices={3, 4})
        outcome = run_robust(
            simulator,
            network,
            channel,
            retransmit=policy(max_retransmits=1),
            leases=leases,
        )
        assert not outcome.success
        assert outcome.timed_out
        simulator.run()  # let tear + lease machinery drain
        assert network.total_reserved_bps() == 0.0
        assert leases.live_leases() == 0

    def test_lost_tear_is_collected_by_lease(self, simulator, network):
        leases = LeaseTable(simulator, network, ttl_s=5.0, sweep_interval_s=1.0)
        # Let the first RESV leg land (index 3 reserves (2,3) at node 3,
        # index 3 delivers to node 2, which reserves (1,2)), then kill
        # node 2's onward transfer (indices 4, 5).  Node 2 releases
        # (1,2) itself and tears downstream -- but the TEAR (index 6)
        # is lost too, so (2,3) stays stranded until its lease expires.
        channel = ScriptedChannel(simulator, drop_indices={4, 5, 6})
        outcomes = []
        session = RsvpSession(
            simulator,
            network,
            ROUTE,
            "f1",
            64_000.0,
            outcomes.append,
            channel=channel,
            retransmit=policy(max_retransmits=1),
            leases=leases,
        )
        session.start()
        simulator.run(until=1.0)  # bounded: before the TTL expires
        assert len(outcomes) == 1 and not outcomes[0].success
        assert network.link(2, 3).holds("f1")  # stranded right now
        simulator.run()  # ... until the collector sweeps
        assert network.total_reserved_bps() == 0.0
        assert leases.orphans_collected == 1
        assert leases.reclaimed_bps == pytest.approx(64_000.0)


class TestLazyTimer:
    """A hop's timer is scheduled only when no copy beats it."""

    def counting_schedules(self, simulator):
        calls = []
        schedule = simulator.schedule

        def counted(delay, callback):
            calls.append(callback)
            return schedule(delay, callback)

        simulator.schedule = counted
        return calls

    def test_hop_delivered_in_time_leaves_no_timer(self, simulator, network):
        calls = self.counting_schedules(simulator)
        outcomes = []
        RsvpSession(
            simulator,
            network,
            ROUTE,
            "f1",
            64_000.0,
            outcomes.append,
            retransmit=policy(),
        ).start()
        assert simulator.pending_count == 1  # the PATH copy, no timer
        simulator.run()
        assert outcomes[0].success
        # One schedule per message: 3 PATH + 3 RESV hops.
        assert len(calls) == 6
        assert simulator.events_executed == 6

    def test_lost_copy_arms_the_timer(self, simulator, network):
        channel = ScriptedChannel(simulator, drop_indices={0})
        calls = self.counting_schedules(simulator)
        RsvpSession(
            simulator,
            network,
            ROUTE,
            "f1",
            64_000.0,
            lambda o: None,
            channel=channel,
            retransmit=policy(),
        ).start()
        # Only the timer is pending: the sole copy was dropped.
        assert simulator.pending_count == 1
        assert len(calls) == 1
        assert simulator.peek() == pytest.approx(0.05)

    def test_timer_wins_an_exact_tie(self, simulator):
        # Every hop takes exactly one timeout: each timer fires at the
        # instant its copy lands, and because it was scheduled first it
        # fires first, so every hop is retransmitted once.
        network = line(4, capacity_bps=64_000.0, propagation_delay_s=0.0625)
        outcomes = []
        RsvpSession(
            simulator,
            network,
            ROUTE,
            "f1",
            64_000.0,
            outcomes.append,
            processing_delay_s=0.0,
            retransmit=RetransmitPolicy(
                ExponentialBackoff(0.0625, factor=1.0), max_retransmits=3
            ),
        ).start()
        simulator.run()
        (outcome,) = outcomes
        assert outcome.success
        assert outcome.messages == 12
        assert outcome.retransmissions == 6
        # Per hop: the timer, the copy, and the retransmitted copy.
        assert simulator.events_executed == 18
        assert outcome.latency_s == 6 * 0.0625


class TestDeduplication:
    class DuplicatingChannel(SignalingChannel):
        """Delivers every transmission twice, back to back."""

        def __init__(self, simulator):
            # The rate forces the retransmit requirement; the stream is
            # never drawn.
            super().__init__(
                simulator,
                duplicate_rate=0.5,
                duplicate_rng=StreamFactory(0).stream("unused"),
            )

        def _draw_fate(self, delay_s):
            self.duplicated += 1
            return (delay_s, delay_s)

    def test_duplicates_do_not_double_reserve(self, simulator, network):
        channel = self.DuplicatingChannel(simulator)
        outcome = run_robust(simulator, network, channel, retransmit=policy())
        assert outcome.success
        assert outcome.retransmissions == 0
        # Exactly one reservation per link despite double delivery.
        for u, v in ((0, 1), (1, 2), (2, 3)):
            assert network.link(u, v).reserved_bps == pytest.approx(64_000.0)
        assert outcome.messages == 6  # duplicates are not new messages


class TestRobustEngine:
    def test_release_tears_through_channel(self, simulator, network):
        channel = ScriptedChannel(simulator, drop_indices=set())
        engine = SignalledReservationEngine(
            simulator, network, channel=channel, retransmit=policy()
        )
        outcomes = []
        engine.reserve(ROUTE, "f", 64_000.0, outcomes.append)
        simulator.run()
        assert outcomes[0].success
        engine.release(ROUTE.path, "f")
        simulator.run()
        assert network.total_reserved_bps() == 0.0
        assert engine.tear_messages == 3

    def test_lost_release_tear_falls_back_to_lease(self, simulator, network):
        leases = LeaseTable(simulator, network, ttl_s=5.0, sweep_interval_s=1.0)
        channel = ScriptedChannel(simulator, drop_indices=set())
        engine = SignalledReservationEngine(
            simulator,
            network,
            channel=channel,
            retransmit=policy(),
            leases=leases,
        )
        outcomes = []
        engine.reserve(ROUTE, "f", 64_000.0, outcomes.append)
        simulator.run()
        assert outcomes[0].success
        # Drop the second TEAR leg: links (1,2) and (2,3) stay held.
        channel._drop.add(channel.sent + 1)
        engine.release(ROUTE.path, "f")
        simulator.run()
        assert network.total_reserved_bps() == 0.0  # lease reclaimed the rest
        assert leases.orphans_collected == 1
        assert engine.timeouts == 0  # tears are unacknowledged
