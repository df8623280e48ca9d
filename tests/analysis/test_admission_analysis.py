"""Unit tests for system-level AP analysis (repro.analysis.admission)."""

import pytest

from repro.analysis.admission import (
    ANALYZABLE_ALGORITHMS,
    _sequential_trial_model,
    analyze_system,
)
from repro.analysis.erlang import erlang_b, uaa_blocking
from repro.core.system import SystemSpec
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.topologies import (
    MCI_GROUP_MEMBERS,
    MCI_SOURCES,
    mci_backbone,
    star,
)


def mci_workload(arrival_rate: float) -> WorkloadSpec:
    return WorkloadSpec(
        arrival_rate=arrival_rate,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
    )


class TestSequentialTrialModel:
    def test_single_attempt_matches_weights(self):
        model = _sequential_trial_model(
            weights=[0.5, 0.3, 0.2], rejections=[0.5, 0.5, 0.5], max_attempts=1
        )
        assert model.attempt_probability == pytest.approx((0.5, 0.3, 0.2))
        assert model.admission_probability == pytest.approx(0.5)
        assert model.mean_attempts == pytest.approx(1.0)

    def test_no_blocking_single_attempt_suffices(self):
        model = _sequential_trial_model(
            weights=[0.25] * 4, rejections=[0.0] * 4, max_attempts=4
        )
        assert model.admission_probability == pytest.approx(1.0)
        assert model.mean_attempts == pytest.approx(1.0)

    def test_total_blocking_exhausts_retries(self):
        model = _sequential_trial_model(
            weights=[0.5, 0.5], rejections=[1.0, 1.0], max_attempts=2
        )
        assert model.admission_probability == 0.0
        assert model.mean_attempts == pytest.approx(2.0)
        assert model.attempt_probability == pytest.approx((1.0, 1.0))

    def test_uniform_two_member_closed_form(self):
        # ED with K=2, R=2, rejections p, q:
        # AP = 1 - p*q (each order tries both on failure).
        p, q = 0.4, 0.7
        model = _sequential_trial_model(
            weights=[0.5, 0.5], rejections=[p, q], max_attempts=2
        )
        assert model.admission_probability == pytest.approx(1 - p * q)

    def test_zero_weight_member_never_attempted(self):
        model = _sequential_trial_model(
            weights=[1.0, 0.0], rejections=[1.0, 0.0], max_attempts=2
        )
        assert model.attempt_probability[1] == 0.0
        assert model.admission_probability == 0.0

    def test_attempt_probabilities_bounded(self):
        model = _sequential_trial_model(
            weights=[0.4, 0.3, 0.3],
            rejections=[0.9, 0.8, 0.7],
            max_attempts=3,
        )
        for probability in model.attempt_probability:
            assert 0.0 <= probability <= 1.0
        assert model.mean_attempts <= 3.0


class TestAnalyzeSystemStructure:
    def test_unsupported_algorithms_raise(self):
        network = mci_backbone()
        workload = mci_workload(20.0)
        for name in ("WD/D+H", "WD/D+B", "GDI"):
            with pytest.raises(NotImplementedError):
                analyze_system(network, workload, SystemSpec(name, retrials=2))

    def test_analyzable_list(self):
        assert set(ANALYZABLE_ALGORITHMS) == {"ED", "WD/D", "SP"}

    def test_large_group_rejected(self):
        network = star(10)
        workload = WorkloadSpec(
            arrival_rate=1.0,
            sources=(0,),
            group=AnycastGroup("A", tuple(range(1, 10))),
        )
        with pytest.raises(ValueError):
            analyze_system(network, workload, SystemSpec("ED"))

    def test_result_fields_populated(self):
        result = analyze_system(
            mci_backbone(), mci_workload(20.0), SystemSpec("ED", retrials=1)
        )
        assert result.converged
        assert 0.0 <= result.admission_probability <= 1.0
        assert result.mean_attempts == pytest.approx(1.0)
        assert len(result.per_source_ap) == len(MCI_SOURCES)
        assert len(result.route_rejection) == len(MCI_SOURCES) * 5
        assert all(0.0 <= b <= 1.0 for b in result.link_blocking.values())


class TestAnalyticProperties:
    def test_light_load_admits_everything(self):
        result = analyze_system(
            mci_backbone(), mci_workload(5.0), SystemSpec("ED", retrials=1)
        )
        assert result.admission_probability == pytest.approx(1.0, abs=1e-6)

    def test_ap_decreases_with_load(self):
        aps = [
            analyze_system(
                mci_backbone(), mci_workload(rate), SystemSpec("ED", retrials=1)
            ).admission_probability
            for rate in (10.0, 25.0, 40.0)
        ]
        assert aps == sorted(aps, reverse=True)

    def test_retrials_improve_ap(self):
        workload = mci_workload(35.0)
        network = mci_backbone()
        aps = [
            analyze_system(
                network, workload, SystemSpec("ED", retrials=r)
            ).admission_probability
            for r in (1, 2, 3)
        ]
        assert aps[0] < aps[1] < aps[2]

    def test_ed_beats_sp_under_load(self):
        workload = mci_workload(35.0)
        network = mci_backbone()
        ed = analyze_system(network, workload, SystemSpec("ED", retrials=1))
        sp = analyze_system(network, workload, SystemSpec("SP"))
        assert ed.admission_probability > sp.admission_probability

    def test_sp_ignores_retrials(self):
        workload = mci_workload(35.0)
        network = mci_backbone()
        one = analyze_system(network, workload, SystemSpec("SP"))
        five = analyze_system(network, workload, SystemSpec("SP", retrials=5))
        assert five.admission_probability == one.admission_probability
        assert five.mean_attempts == one.mean_attempts == 1.0

    def test_mean_attempts_grow_with_load(self):
        network = mci_backbone()
        light = analyze_system(
            network, mci_workload(10.0), SystemSpec("ED", retrials=3)
        )
        heavy = analyze_system(
            network, mci_workload(45.0), SystemSpec("ED", retrials=3)
        )
        assert heavy.mean_attempts > light.mean_attempts

    def test_uaa_matches_exact_erlang_closely(self):
        workload = mci_workload(35.0)
        network = mci_backbone()
        exact = analyze_system(
            network, workload, SystemSpec("ED", retrials=1), blocking_function=erlang_b
        )
        approx = analyze_system(
            network,
            workload,
            SystemSpec("ED", retrials=1),
            blocking_function=uaa_blocking,
        )
        assert approx.admission_probability == pytest.approx(
            exact.admission_probability, abs=0.005
        )

    def test_wdd_distance_bias_beats_ed_mean_attempts(self):
        # Distance weighting concentrates on short (cheap) routes; at
        # moderate load its expected attempts stay <= ED's.
        workload = mci_workload(30.0)
        network = mci_backbone()
        ed = analyze_system(network, workload, SystemSpec("ED", retrials=2))
        wdd = analyze_system(network, workload, SystemSpec("WD/D", retrials=2))
        assert 0.0 < wdd.admission_probability <= 1.0
        assert wdd.mean_attempts == pytest.approx(ed.mean_attempts, abs=0.5)


class TestStarExactness:
    def test_star_single_source_matches_erlang(self):
        """On a star, each spoke is an independent Erlang link; the
        analysis must be *exact* for <ED,1> (one-link routes from hub)."""
        capacity_slots = 10
        network = star(3, capacity_bps=capacity_slots * 64_000.0)
        group = AnycastGroup("A", (1, 2, 3))
        rate = 0.5
        lifetime = 60.0
        workload = WorkloadSpec(
            arrival_rate=rate,
            sources=(0,),
            group=group,
            mean_lifetime_s=lifetime,
        )
        result = analyze_system(network, workload, SystemSpec("ED", retrials=1))
        per_route_load = rate * lifetime / 3
        expected_blocking = erlang_b(per_route_load, capacity_slots)
        assert result.admission_probability == pytest.approx(
            1 - expected_blocking, abs=1e-9
        )
