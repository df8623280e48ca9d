"""Integration: the fixed-point analysis against the simulator.

The paper's Appendix A.3 validates its approximation assumptions by
comparing analytical and simulated admission probabilities.  These
tests do the same on several independent scenarios, including ones
the paper did not publish (retrials, distance weighting, other
topologies), exercising the extension documented in
``repro.analysis.admission``.
"""

import pytest

from repro.analysis.admission import analyze_system
from repro.core.system import SystemSpec
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.topologies import (
    MCI_GROUP_MEMBERS,
    MCI_SOURCES,
    mci_backbone,
    nsfnet,
    star,
)
from repro.sim.simulation import run_simulation

pytestmark = pytest.mark.slow  # minutes-long simulations; skip with -m 'not slow'


def analyse_and_simulate(network_factory, workload, spec, seed=55):
    analysis = analyze_system(network_factory(), workload, spec)
    simulation = run_simulation(
        network_factory=network_factory,
        system_spec=spec,
        workload=workload,
        warmup_s=200.0,
        measure_s=800.0,
        seed=seed,
    )
    return analysis, simulation


def assert_ap_matches(analysis, simulation, label, tolerance):
    assert analysis.converged
    assert simulation.admission_probability == pytest.approx(
        analysis.admission_probability, abs=tolerance
    ), f"{label}: sim={simulation.admission_probability:.4f} vs analysis={analysis.admission_probability:.4f}"


def compare(network_factory, workload, spec, seed=55, tolerance=0.03):
    analysis, simulation = analyse_and_simulate(network_factory, workload, spec, seed)
    assert_ap_matches(analysis, simulation, spec.label, tolerance)
    return analysis, simulation


def mci_workload(rate_scale: float) -> WorkloadSpec:
    # Offered-load-preserving rescaling (lifetime 18 s = paper/10,
    # rates x10) keeps loads at paper levels with short transients.
    return WorkloadSpec(
        arrival_rate=rate_scale * 10.0,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        mean_lifetime_s=18.0,
    )


class TestEdSingleAttempt:
    @pytest.mark.parametrize("rate", [20.0, 35.0, 50.0])
    def test_matches_on_mci(self, rate):
        compare(mci_backbone, mci_workload(rate), SystemSpec("ED", retrials=1))


class TestSpBaseline:
    @pytest.mark.parametrize("rate", [20.0, 35.0])
    def test_matches_on_mci(self, rate):
        compare(mci_backbone, mci_workload(rate), SystemSpec("SP"))


@pytest.fixture(scope="module")
def ed_two_retrials():
    """``<ED,2>`` at 35 req/s on MCI, analysed and simulated once (seed 55)."""
    spec = SystemSpec("ED", retrials=2)
    return spec, *analyse_and_simulate(mci_backbone, mci_workload(35.0), spec)


class TestRetrialExtension:
    def test_ed_with_two_retrials(self, ed_two_retrials):
        spec, analysis, simulation = ed_two_retrials
        assert_ap_matches(analysis, simulation, spec.label, tolerance=0.04)

    def test_mean_attempts_match(self, ed_two_retrials):
        _, analysis, simulation = ed_two_retrials
        assert simulation.mean_attempts == pytest.approx(
            analysis.mean_attempts, abs=0.1
        )


class TestDistanceWeightExtension:
    def test_wdd_matches(self):
        compare(
            mci_backbone,
            mci_workload(35.0),
            SystemSpec("WD/D", retrials=1),
            tolerance=0.04,
        )


class TestOtherTopologies:
    def test_nsfnet(self):
        workload = WorkloadSpec(
            arrival_rate=120.0,
            sources=(1, 3, 7, 11),
            group=AnycastGroup("A", (0, 5, 9)),
            mean_lifetime_s=18.0,
        )
        compare(nsfnet, workload, SystemSpec("ED", retrials=1), tolerance=0.04)

    def test_star_is_exact(self):
        """One-hop routes on a star: only Monte-Carlo noise remains.

        The model is exactly per-spoke Erlang-B here, so a long run
        must converge to the analytical value."""
        network_factory = lambda: star(4, capacity_bps=20 * 64_000.0)
        workload = WorkloadSpec(
            arrival_rate=4.0,
            sources=(0,),
            group=AnycastGroup("A", (1, 2, 3, 4)),
            mean_lifetime_s=18.0,
        )
        analysis = analyze_system(
            network_factory(), workload, SystemSpec("ED", retrials=1)
        )
        simulation = run_simulation(
            network_factory=network_factory,
            system_spec=SystemSpec("ED", retrials=1),
            workload=workload,
            warmup_s=200.0,
            measure_s=3000.0,
            seed=56,
        )
        assert simulation.admission_probability == pytest.approx(
            analysis.admission_probability, abs=0.02
        )
