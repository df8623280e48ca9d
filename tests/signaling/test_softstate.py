"""Unit tests for soft-state leases (repro.signaling.softstate)."""

import math

import pytest

from repro import invariants
from repro.network.topologies import line
from repro.signaling.softstate import LeaseTable
from repro.sim.engine import Simulator


@pytest.fixture
def network():
    return line(4, capacity_bps=10 * 64_000.0)


def table(simulator, network, ttl=10.0, sweep=2.0):
    return LeaseTable(simulator, network, ttl_s=ttl, sweep_interval_s=sweep)


class TestLeaseLifecycle:
    def test_register_and_cover(self, simulator, network):
        leases = table(simulator, network)
        link = network.link(0, 1)
        leases.register("f", link)
        assert leases.covers("f", link)
        assert not leases.covers("f", network.link(1, 2))
        assert leases.live_leases() == 1

    def test_refresh_extends(self, simulator, network):
        leases = table(simulator, network, ttl=10.0, sweep=6.0)
        link = network.link(0, 1)
        link.reserve("f", 64_000.0)
        leases.register("f", link)
        # Keep refreshing past several TTLs: never collected.
        for _ in range(5):
            simulator.run(until=simulator.now + 5.0)
            assert leases.refresh("f")
        assert link.holds("f")
        assert leases.orphans_collected == 0

    def test_refresh_unknown_key(self, simulator, network):
        assert not table(simulator, network).refresh("ghost")

    def test_drop_link_removes_empty_lease(self, simulator, network):
        leases = table(simulator, network)
        a, b = network.link(0, 1), network.link(1, 2)
        leases.register("f", a)
        leases.register("f", b)
        leases.drop_link("f", a)
        assert not leases.covers("f", a)
        assert leases.covers("f", b)
        leases.drop_link("f", b)
        assert leases.live_leases() == 0


class TestHeldLeases:
    """A held lease stands in for an owner's reliable refreshes."""

    def reserved(self, leases, network, key="f", links=((0, 1),)):
        for u, v in links:
            link = network.link(u, v)
            link.reserve(key, 64_000.0)
            leases.register(key, link)

    def test_sweep_before_first_refresh_uses_register_expiry(
        self, simulator, network
    ):
        leases = table(simulator, network, ttl=10.0, sweep=2.0)
        self.reserved(leases, network)
        leases.hold("f", first_refresh_at=12.0, last_refresh_at=30.0)
        simulator.run(until=11.0)  # the sweep at 10 sees the TTL run out
        assert "f" not in leases
        assert leases.orphans_collected == 1
        assert network.total_reserved_bps() == 0.0

    def test_sweep_from_first_refresh_uses_held_expiry(self, simulator, network):
        leases = table(simulator, network, ttl=10.0, sweep=2.0)
        self.reserved(leases, network)
        # The register expiry (10) and the first refresh coincide: the
        # sweep at 10 already counts the refresh.
        leases.hold("f", first_refresh_at=10.0, last_refresh_at=30.0)
        simulator.run(until=39.0)
        assert "f" in leases
        assert leases.orphans_collected == 0
        simulator.run(until=41.0)  # held until 30 + TTL
        assert "f" not in leases
        assert leases.orphans_collected == 1

    def test_tearing_last_link_removes_held_lease(self, simulator, network):
        leases = table(simulator, network)
        self.reserved(leases, network, links=((0, 1), (1, 2)))
        leases.hold("f", first_refresh_at=5.0, last_refresh_at=50.0)
        leases.drop_link("f", network.link(0, 1))
        assert "f" in leases
        leases.drop_link("f", network.link(1, 2))
        assert "f" not in leases
        assert leases.live_leases() == 0

    def test_hold_unknown_key_is_ignored(self, simulator, network):
        leases = table(simulator, network)
        leases.hold("ghost", first_refresh_at=1.0, last_refresh_at=2.0)
        assert "ghost" not in leases

    def test_refresh_still_extends_held_lease(self, simulator, network):
        leases = table(simulator, network, ttl=10.0, sweep=2.0)
        self.reserved(leases, network)
        leases.hold("f", first_refresh_at=20.0, last_refresh_at=20.0)
        simulator.run(until=9.0)
        assert leases.refresh("f")  # now lasts until 19, past the hold
        simulator.run(until=29.0)
        assert "f" in leases
        simulator.run(until=31.0)  # held until 20 + TTL
        assert leases.orphans_collected == 1


class TestOrphanCollection:
    def test_expired_lease_is_released(self, simulator, network):
        leases = table(simulator, network, ttl=10.0, sweep=2.0)
        for u, v in ((0, 1), (1, 2)):
            link = network.link(u, v)
            link.reserve("orphan", 64_000.0)
            leases.register("orphan", link)
        simulator.run(until=15.0)
        assert leases.orphans_collected == 1
        assert leases.reclaimed_bps == pytest.approx(2 * 64_000.0)
        assert network.total_reserved_bps() == 0.0

    def test_live_lease_survives_sweeps(self, simulator, network):
        leases = table(simulator, network, ttl=100.0, sweep=2.0)
        link = network.link(0, 1)
        link.reserve("f", 64_000.0)
        leases.register("f", link)
        simulator.run(until=50.0)
        assert link.holds("f")
        assert leases.orphans_collected == 0

    def test_collection_tolerates_already_released(self, simulator, network):
        """A fault/tear may free a leg before the lease expires."""
        leases = table(simulator, network, ttl=5.0, sweep=2.0)
        link = network.link(0, 1)
        link.reserve("f", 64_000.0)
        leases.register("f", link)
        link.release("f")  # someone else got there first
        simulator.run(until=10.0)
        assert leases.orphans_collected == 1
        assert leases.reclaimed_bps == 0.0

    def test_sweep_self_quiesces(self, simulator, network):
        leases = table(simulator, network, ttl=5.0, sweep=2.0)
        link = network.link(0, 1)
        link.reserve("f", 64_000.0)
        leases.register("f", link)
        simulator.run()  # unbounded drain must terminate
        assert simulator.peek() is None
        assert leases.orphans_collected == 1
        # A new registration re-arms the sweep.
        link.reserve("g", 64_000.0)
        leases.register("g", link)
        assert simulator.pending_count == 1
        simulator.run()
        assert simulator.peek() is None
        assert network.total_reserved_bps() == 0.0


class TestSoftStateInvariant:
    def test_sweep_checks_coverage_when_armed(self, simulator, network):
        was_enabled = invariants.enabled
        invariants.set_enabled(True)
        try:
            leases = table(simulator, network, ttl=5.0, sweep=2.0)
            link = network.link(0, 1)
            link.reserve("covered", 64_000.0)
            leases.register("covered", link)
            # A reservation the lease table never heard about: leaked.
            network.link(1, 2).reserve("rogue", 64_000.0)
            with pytest.raises(invariants.InvariantViolation):
                simulator.run(until=3.0)
        finally:
            invariants.set_enabled(was_enabled)

    def test_check_drained_flags_residue(self, network):
        network.link(0, 1).reserve("left-over", 64_000.0)
        with pytest.raises(invariants.InvariantViolation):
            invariants.check_drained(network)
        network.link(0, 1).release("left-over")
        invariants.check_drained(network)  # clean now


class TestValidation:
    def test_bad_ttl(self, simulator, network):
        with pytest.raises(ValueError):
            LeaseTable(simulator, network, ttl_s=0.0, sweep_interval_s=1.0)

    def test_bad_sweep(self, simulator, network):
        with pytest.raises(ValueError):
            LeaseTable(simulator, network, ttl_s=1.0, sweep_interval_s=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_ttl(self, simulator, network, value):
        with pytest.raises(ValueError):
            LeaseTable(simulator, network, ttl_s=value, sweep_interval_s=1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_sweep(self, simulator, network, value):
        with pytest.raises(ValueError):
            LeaseTable(simulator, network, ttl_s=1.0, sweep_interval_s=value)
