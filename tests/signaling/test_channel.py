"""Unit tests for the unreliable channel (repro.signaling.channel)."""

import math

import pytest

from repro.core.retrial import ExponentialBackoff
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.sim.engine import Simulator
from repro.sim.random_streams import StreamFactory


def streams(seed=0):
    return StreamFactory(seed)


class TestPerfectChannel:
    def test_single_schedule_no_rng(self, simulator):
        channel = SignalingChannel(simulator)
        delivered = []
        channel.send(0.5, lambda: delivered.append(simulator.now))
        assert simulator.pending_count == 1
        simulator.run()
        assert delivered == [0.5]
        assert (channel.sent, channel.dropped, channel.duplicated) == (1, 0, 0)

    def test_bit_identical_to_direct_scheduling(self):
        """Sequence numbers must match a build without the channel."""
        direct = Simulator()
        order_direct = []
        for tag in ("a", "b", "c"):
            direct.schedule(1.0, lambda t=tag: order_direct.append(t))
        direct.run()

        chan_sim = Simulator()
        channel = SignalingChannel(chan_sim)
        order_channel = []
        for tag in ("a", "b", "c"):
            channel.send(1.0, lambda t=tag: order_channel.append(t))
        chan_sim.run()
        assert order_channel == order_direct


class TestLoss:
    def test_loss_rate_one_is_rejected(self, simulator):
        with pytest.raises(ValueError):
            SignalingChannel(
                simulator, loss_rate=1.0, loss_rng=streams().stream("loss")
            )

    def test_loss_requires_rng(self, simulator):
        with pytest.raises(ValueError):
            SignalingChannel(simulator, loss_rate=0.1)

    @pytest.mark.parametrize("other", ["delay", "duplicate"])
    def test_loss_stream_cannot_be_shared(self, simulator, other):
        # The channel reads the loss stream ahead, so no other
        # impairment may draw from it.
        loss = streams().stream("loss")
        shared = (
            {"extra_delay_s": 0.01, "delay_rng": loss}
            if other == "delay"
            else {"duplicate_rate": 0.1, "duplicate_rng": loss}
        )
        with pytest.raises(ValueError, match="read ahead"):
            SignalingChannel(simulator, loss_rate=0.1, loss_rng=loss, **shared)

    def test_empirical_loss_fraction(self, simulator):
        channel = SignalingChannel(
            simulator, loss_rate=0.3, loss_rng=streams(7).stream("loss")
        )
        hits = []
        for _ in range(2000):
            channel.send(0.001, lambda: hits.append(1))
        simulator.run()
        assert channel.sent == 2000
        assert channel.dropped + len(hits) == 2000
        assert 0.25 < channel.dropped / 2000 < 0.35

    def test_deterministic_under_seed(self):
        def run(seed):
            simulator = Simulator()
            channel = SignalingChannel(
                simulator,
                loss_rate=0.5,
                loss_rng=StreamFactory(seed).stream("loss"),
            )
            outcomes = []
            for i in range(50):
                channel.send(0.001, lambda i=i: outcomes.append(i))
            simulator.run()
            return outcomes

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestDelayAndDuplication:
    def test_extra_delay_bounds(self):
        simulator = Simulator()
        channel = SignalingChannel(
            simulator,
            extra_delay_s=0.2,
            delay_rng=streams(1).stream("delay"),
        )
        arrivals = []
        for _ in range(200):
            channel.send(0.1, lambda: arrivals.append(simulator.now))
        simulator.run()
        assert len(arrivals) == 200
        assert min(arrivals) >= 0.1
        assert max(arrivals) < 0.3
        assert max(arrivals) > 0.1  # the delay draw actually happened

    def test_duplicates_deliver_twice(self):
        simulator = Simulator()
        channel = SignalingChannel(
            simulator,
            duplicate_rate=0.5,
            duplicate_rng=streams(2).stream("dup"),
        )
        count = [0]
        for _ in range(500):
            channel.send(0.001, lambda: count.__setitem__(0, count[0] + 1))
        simulator.run()
        assert count[0] == 500 + channel.duplicated
        assert 0.4 < channel.duplicated / 500 < 0.6

    def test_streams_are_independent(self):
        """Enabling duplication must not change which messages are lost."""

        def losses(duplicate_rate):
            simulator = Simulator()
            factory = StreamFactory(11)
            channel = SignalingChannel(
                simulator,
                loss_rate=0.3,
                duplicate_rate=duplicate_rate,
                loss_rng=factory.stream("loss"),
                duplicate_rng=factory.stream("dup"),
            )
            lost = []
            for _ in range(100):
                channel.send(0.001, lambda: None)
                lost.append(channel.dropped)
            simulator.run()
            return lost

        assert losses(0.0) == losses(0.4)


class TestExtraDelayValidation:
    @pytest.mark.parametrize("extra_delay_s", [math.nan, math.inf, -0.1])
    def test_rejected(self, simulator, extra_delay_s):
        with pytest.raises(ValueError):
            SignalingChannel(
                simulator,
                extra_delay_s=extra_delay_s,
                delay_rng=streams().stream("delay"),
            )


IMPAIRMENT_STREAMS = ("loss", "delay", "dup")


def impaired_channel(simulator, factory):
    loss, delay, dup = (factory.stream(name) for name in IMPAIRMENT_STREAMS)
    return SignalingChannel(
        simulator,
        loss_rate=0.3,
        extra_delay_s=0.02,
        duplicate_rate=0.4,
        loss_rng=loss,
        delay_rng=delay,
        duplicate_rng=dup,
    )


class TestPlannedSend:
    def test_send_delivers_exactly_the_planned_fate(self):
        simulator = Simulator()
        channel = impaired_channel(simulator, StreamFactory(5))
        for i in range(300):
            arrivals = channel.plan(0.001 * (i % 7))
            start = simulator.now
            landed = []
            channel.send(0.001 * (i % 7), lambda: landed.append(simulator.now))
            assert simulator.pending_count == len(arrivals)
            simulator.run()
            assert landed == sorted(start + delay for delay in arrivals)
        assert channel.sent == 300
        assert channel.dropped > 0 and channel.duplicated > 0

    def test_planned_draws_match_plain_send(self):
        """Planning changes no stream's draws, and plain sends still work."""

        def run(planned):
            simulator = Simulator()
            factory = StreamFactory(9)
            channel = impaired_channel(simulator, factory)
            times = []
            for i in range(400):
                delay = 0.001 * (1 + i % 5)
                # Every third send is a plain one, as a TEAR sweep makes.
                if planned and i % 3:
                    channel.plan(delay)
                channel.send(delay, lambda i=i: times.append((simulator.now, i)))
            simulator.run()
            state = [
                (stream.draws, stream.uniform())
                for stream in map(factory.stream, IMPAIRMENT_STREAMS)
            ]
            counters = (channel.sent, channel.dropped, channel.duplicated)
            return times, state, counters

        assert run(planned=True) == run(planned=False)

    def test_perfect_channel_plans_one_copy(self, simulator):
        channel = SignalingChannel(simulator)
        assert channel.plan(0.25) == (0.25,)
        channel.send(0.25, lambda: None)
        assert simulator.pending_count == 1
        assert channel.sent == 1


class TestRetransmitPolicy:
    def test_delegates_to_backoff(self):
        backoff = ExponentialBackoff(0.1, factor=2.0, max_timeout_s=1.0)
        policy = RetransmitPolicy(backoff, max_retransmits=2)
        assert policy.timeout(0) == pytest.approx(0.1)
        assert policy.timeout(3) == pytest.approx(0.8)
        assert policy.timeout(10) == pytest.approx(1.0)  # capped

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            RetransmitPolicy(ExponentialBackoff(0.1), max_retransmits=-1)
