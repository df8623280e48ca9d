"""Tests for the runtime sanitizer (:mod:`repro.invariants`).

The sanitizer is a process-wide switch (``REPRO_CHECK_INVARIANTS=1``
or ``Simulator(check_invariants=True)``) that arms assertion hooks in
the link layer and the event engine.  These tests exercise both the
checks themselves (they must catch real corruption) and the contract
that enabling them never changes simulation results.
"""

import subprocess
import sys

import pytest

from repro import invariants
from repro.network.link import Link
from repro.network.topologies import line
from repro.sim.engine import Simulator


@pytest.fixture
def sanitizer():
    """Enable the sanitizer for one test, restoring the prior state."""
    previous = invariants.is_enabled()
    invariants.set_enabled(True)
    yield
    invariants.set_enabled(previous)


class TestSwitch:
    def test_disabled_by_default_in_tests(self):
        # The suite runs with the env var unset unless the slow-tier
        # sanitizer job sets it; either way the switch is consistent.
        assert invariants.is_enabled() == invariants.enabled

    def test_set_enabled_round_trip(self):
        previous = invariants.is_enabled()
        try:
            invariants.set_enabled(True)
            assert invariants.is_enabled()
            invariants.set_enabled(False)
            assert not invariants.is_enabled()
        finally:
            invariants.set_enabled(previous)

    def test_env_var_enables_in_fresh_process(self):
        code = (
            "from repro import invariants; "
            "import sys; sys.exit(0 if invariants.is_enabled() else 1)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={"REPRO_CHECK_INVARIANTS": "1", "PYTHONPATH": "src"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[2]),
        )
        assert result.returncode == 0

    def test_violation_is_an_assertion_error(self):
        assert issubclass(invariants.InvariantViolation, AssertionError)


class TestLinkChecks:
    def test_healthy_link_passes(self):
        link = Link("a", "b", 1000.0)
        link.reserve("f1", 400.0)
        invariants.check_link(link)

    def test_negative_reserved_total_caught(self):
        link = Link("a", "b", 1000.0)
        link.state.reserved[link.index] = -5.0
        with pytest.raises(invariants.InvariantViolation):
            invariants.check_link(link)

    def test_oversubscription_caught(self):
        link = Link("a", "b", 1000.0)
        link.reserve("f1", 400.0)
        link.state.reserved[link.index] = 2000.0
        with pytest.raises(invariants.InvariantViolation):
            invariants.check_link(link)

    def test_ledger_column_disagreement_caught(self):
        link = Link("a", "b", 1000.0)
        link.reserve("f1", 400.0)
        link._reservations["f1"] = 100.0  # ledger no longer sums to column
        with pytest.raises(invariants.InvariantViolation):
            invariants.check_link(link)

    def test_nan_reserved_caught(self):
        link = Link("a", "b", 1000.0)
        link.state.reserved[link.index] = float("nan")
        with pytest.raises(invariants.InvariantViolation):
            invariants.check_link(link)

    def test_hot_path_hook_fires_when_enabled(self, sanitizer):
        link = Link("a", "b", 1000.0)
        link.reserve("f1", 400.0)
        link.state.reserved[link.index] = -1.0
        # The next accounting operation trips the armed hook.
        with pytest.raises(invariants.InvariantViolation):
            link.reserve("f2", 100.0)

    def test_hot_path_hook_silent_when_disabled(self):
        previous = invariants.is_enabled()
        invariants.set_enabled(False)
        try:
            link = Link("a", "b", 1000.0)
            link.state.reserved[link.index] = -1.0
            link.reserve("f2", 100.0)  # corruption goes unnoticed
        finally:
            invariants.set_enabled(previous)


class TestNetworkChecks:
    def test_healthy_network_passes(self):
        network = line(4)
        assert network.reserve_links(network.path_links([0, 1, 2, 3]), "f1", 100.0)
        invariants.check_network(network)

    def test_unpaired_reservation_amount_caught(self):
        network = line(4)
        assert network.reserve_links(network.path_links([0, 1, 2, 3]), "f1", 100.0)
        # Corrupt one hop's ledger so the flow reserves different
        # amounts on different links of its route.
        link = network.link(1, 2)
        link._reservations["f1"] = 50.0
        link.state.reserved[link.index] -= 50.0
        with pytest.raises(invariants.InvariantViolation):
            invariants.check_network(network)


class TestTimeMonotonicity:
    def test_forward_time_passes(self):
        invariants.check_time_monotonic(1.0, 2.0, "test")
        invariants.check_time_monotonic(2.0, 2.0, "test")

    def test_backward_time_caught(self):
        with pytest.raises(invariants.InvariantViolation):
            invariants.check_time_monotonic(2.0, 1.0, "test")

    def test_simulator_flag_arms_step_check(self):
        sim = Simulator(check_invariants=True)
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 2.0]


class TestSanitizedRunsMatch:
    """check_invariants=True must not perturb simulation results."""

    # One pending-event set; the parameter keeps the test id stable.
    @pytest.mark.parametrize("queue", ["heap"])
    def test_event_order_identical(self, queue, sanitizer):
        def run(flag: bool) -> list[float]:
            sim = Simulator(check_invariants=flag)
            fired: list[float] = []
            for t in (3.0, 1.0, 2.0, 2.0, 5.0):
                sim.schedule(t, lambda t=t: fired.append(sim.now))
            sim.run()
            return fired

        assert run(True) == run(False)

    def test_quick_simulation_identical(self):
        import repro

        def run(flag: bool):
            invariants.set_enabled(flag)
            try:
                return repro.quick_run(
                    "WD/D+H",
                    retrials=2,
                    arrival_rate=10.0,
                    warmup_s=20.0,
                    measure_s=100.0,
                    seed=7,
                )
            finally:
                invariants.set_enabled(False)

        baseline = run(False)
        sanitized = run(True)
        assert sanitized.requests == baseline.requests
        assert sanitized.admitted == baseline.admitted
        assert sanitized.admission_probability == pytest.approx(
            baseline.admission_probability, abs=0.0
        )
