"""Unit tests for RSVP-lite signalling (repro.signaling.rsvp)."""

import math

import pytest

from repro.core.retrial import ExponentialBackoff
from repro.network.routing import Route
from repro.network.topologies import line
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.signaling.rsvp import SignalledReservationEngine
from repro.sim.engine import Simulator
from repro.sim.random_streams import StreamFactory


@pytest.fixture
def network():
    # 0-1-2-3 line, one 64 kbit/s slot per link, 1 ms propagation.
    return line(4, capacity_bps=64_000.0, propagation_delay_s=0.001)


ROUTE = Route(source=0, destination=3, path=(0, 1, 2, 3))


def run_session(simulator, network, route, flow_id, bandwidth):
    outcomes = []
    engine = SignalledReservationEngine(simulator, network)
    engine.reserve(route, flow_id, bandwidth, outcomes.append)
    simulator.run()
    assert len(outcomes) == 1
    return outcomes[0]


class TestSuccessfulReservation:
    def test_reserves_every_link(self, simulator, network):
        outcome = run_session(simulator, network, ROUTE, "f1", 64_000.0)
        assert outcome.success
        for u, v in ((0, 1), (1, 2), (2, 3)):
            assert network.link(u, v).holds("f1")

    def test_message_count_is_two_per_hop(self, simulator, network):
        outcome = run_session(simulator, network, ROUTE, "f1", 64_000.0)
        # 3 PATH hops + 3 RESV hops.
        assert outcome.messages == 6

    def test_latency_is_round_trip(self, simulator, network):
        outcome = run_session(simulator, network, ROUTE, "f1", 64_000.0)
        # 6 hops x (1 ms propagation + 0.2 ms processing).
        assert outcome.latency_s == pytest.approx(6 * 0.0012, rel=1e-6)

    def test_zero_hop_route_trivially_succeeds(self, simulator, network):
        degenerate = Route(source=0, destination=0, path=(0,))
        outcome = run_session(simulator, network, degenerate, "f1", 64_000.0)
        assert outcome.success
        assert outcome.messages == 0
        assert outcome.latency_s == 0.0


class TestFailedReservation:
    def test_fails_fast_on_path_probe(self, simulator, network):
        network.link(1, 2).reserve("blocker", 64_000.0)
        outcome = run_session(simulator, network, ROUTE, "f1", 64_000.0)
        assert not outcome.success
        assert outcome.failed_link == (1, 2)
        # Nothing may be left reserved for the failed flow.
        assert not any(link.holds("f1") for link in network.links())

    def test_failure_at_first_hop_costs_no_propagation(self, simulator, network):
        network.link(0, 1).reserve("blocker", 64_000.0)
        outcome = run_session(simulator, network, ROUTE, "f1", 64_000.0)
        assert not outcome.success
        assert outcome.latency_s == 0.0
        assert outcome.messages == 0

    def test_race_rolls_back_partial_reservations(self, network):
        simulator = Simulator()
        outcomes = []
        engine = SignalledReservationEngine(simulator, network)
        engine.reserve(ROUTE, "f1", 64_000.0, outcomes.append)
        # Let the PATH probe pass, then steal link (0,1) before the RESV
        # sweep reaches it (RESV reserves 2->3 then 1->2 then 0->1).
        simulator.schedule(0.004, lambda: network.link(0, 1).reserve("thief", 64_000.0))
        simulator.run()
        assert len(outcomes) == 1
        assert not outcomes[0].success
        assert outcomes[0].failed_link == (0, 1)
        assert not any(link.holds("f1") for link in network.links())
        assert network.link(0, 1).holds("thief")

    def test_race_rollback_tolerates_fault_collected_leg(self, network):
        # Rollback regression (lint rule R5): while the RESV sweep
        # holds (2,3) and (1,2), a fault collects (2,3) and a rival
        # grabs (0,1).  The TEAR must not KeyError on the missing leg
        # and strand (1,2).
        simulator = Simulator()
        outcomes = []
        engine = SignalledReservationEngine(simulator, network)
        engine.reserve(ROUTE, "f1", 64_000.0, outcomes.append)

        def fault_and_steal():
            network.link(2, 3).release("f1")  # fault teardown took it
            network.link(0, 1).reserve("thief", 64_000.0)

        simulator.schedule(0.0045, fault_and_steal)
        simulator.run()
        assert len(outcomes) == 1
        assert not outcomes[0].success
        assert outcomes[0].failed_link == (0, 1)
        assert not any(link.holds("f1") for link in network.links())
        assert network.link(0, 1).holds("thief")

    def test_invalid_bandwidth_rejected(self, simulator, network):
        engine = SignalledReservationEngine(simulator, network)
        with pytest.raises(ValueError):
            engine.reserve(ROUTE, "f1", -1.0, lambda o: None)

    def test_nan_bandwidth_rejected(self, simulator, network):
        engine = SignalledReservationEngine(simulator, network)
        with pytest.raises(ValueError):
            engine.reserve(ROUTE, "f1", math.nan, lambda o: None)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -0.001])
    def test_bad_processing_delay_rejected(self, simulator, network, delay):
        with pytest.raises(ValueError, match="processing delay"):
            SignalledReservationEngine(simulator, network, processing_delay_s=delay)


class TestSignalledEngine:
    def test_counters_accumulate(self, simulator, network):
        engine = SignalledReservationEngine(simulator, network)
        results = []
        engine.reserve(ROUTE, "f1", 64_000.0, results.append)
        simulator.run()
        engine.reserve(ROUTE, "f2", 64_000.0, results.append)  # now full
        simulator.run()
        assert [r.success for r in results] == [True, False]
        assert engine.attempts == 2
        assert engine.failures == 1
        assert engine.total_messages >= 6
        assert engine.mean_latency_s > 0.0
        assert engine.mean_messages > 0.0

    def test_release_counts_tear_messages(self, simulator, network):
        engine = SignalledReservationEngine(simulator, network)
        results = []
        engine.reserve(ROUTE, "f1", 64_000.0, results.append)
        simulator.run()
        before = engine.total_messages
        engine.release(ROUTE, "f1")
        simulator.run()  # the TEAR sweeps hop by hop
        assert engine.total_messages == before + 3
        assert network.total_reserved_bps() == 0.0

    def test_fresh_engine_means_zero(self, simulator, network):
        engine = SignalledReservationEngine(simulator, network)
        assert engine.mean_latency_s == 0.0
        assert engine.mean_messages == 0.0

    @pytest.mark.parametrize("impairment", ["loss", "duplicate"])
    def test_unrecoverable_channel_rejected_at_construction(
        self, simulator, network, impairment
    ):
        # Loss or duplication needs per-hop timers; without a policy
        # the engine must refuse before any attempt, not mid-run.
        stream = StreamFactory(0).stream(impairment)
        channel = SignalingChannel(
            simulator,
            **(
                {"loss_rate": 0.1, "loss_rng": stream}
                if impairment == "loss"
                else {"duplicate_rate": 0.1, "duplicate_rng": stream}
            ),
        )
        with pytest.raises(ValueError, match="RetransmitPolicy"):
            SignalledReservationEngine(simulator, network, channel=channel)
        # With a policy the same channel is accepted.
        policy = RetransmitPolicy(ExponentialBackoff(0.05))
        SignalledReservationEngine(
            simulator, network, channel=channel, retransmit=policy
        )


class TestEquivalenceWithAtomicEngine:
    def test_same_decisions_without_concurrency(self, network):
        """Sequential (non-overlapping) signalling must match atomic results."""
        from repro.core.reservation import AtomicReservationEngine

        atomic_network = line(4, capacity_bps=2 * 64_000.0)
        signalled_network = line(4, capacity_bps=2 * 64_000.0)
        atomic = AtomicReservationEngine(atomic_network)
        simulator = Simulator()
        signalled = SignalledReservationEngine(simulator, signalled_network)
        for flow_id in range(5):
            atomic_success = atomic.try_reserve(ROUTE, flow_id, 64_000.0)
            results = []
            signalled.reserve(ROUTE, flow_id, 64_000.0, results.append)
            simulator.run()
            assert results[0].success == atomic_success
