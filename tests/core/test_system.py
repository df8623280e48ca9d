"""Unit tests for system assembly (repro.core.system)."""

import math

import pytest

from repro.baselines.gdi import GDIController
from repro.core.admission import ACRouter
from repro.core.selection import (
    DistanceBandwidthWeighted,
    DistanceHistoryWeighted,
    EvenDistribution,
    ShortestPathSelector,
)
from repro.core.system import ALGORITHM_NAMES, AdmissionSystem, SystemSpec, build_system
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.topologies import mci_backbone, MCI_GROUP_MEMBERS, MCI_SOURCES
from repro.sim.random_streams import StreamFactory


@pytest.fixture
def group():
    return AnycastGroup("A", MCI_GROUP_MEMBERS)


def make_request(source, group, flow_id=0):
    return FlowRequest(
        flow_id=flow_id,
        source=source,
        group=group,
        qos=QoSRequirement(bandwidth_bps=64_000.0),
    )


class TestSystemSpec:
    def test_labels_match_paper_notation(self):
        assert SystemSpec("ED", retrials=2).label == "<ED,2>"
        assert SystemSpec("WD/D+H", retrials=3).label == "<WD/D+H,3>"
        assert SystemSpec("SP").label == "SP"
        assert SystemSpec("GDI").label == "GDI"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            SystemSpec("MAGIC")

    def test_invalid_retrials_rejected(self):
        with pytest.raises(ValueError):
            SystemSpec("ED", retrials=0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            SystemSpec("WD/D+H", alpha=2.0)

    @pytest.mark.parametrize("period", [math.nan, math.inf, -1.0])
    def test_invalid_bandwidth_refresh_rejected(self, period):
        with pytest.raises(ValueError, match="refresh period"):
            SystemSpec("WD/D+B", retrials=2, bandwidth_refresh_s=period)

    def test_distributed_flag(self):
        assert SystemSpec("ED").is_distributed
        assert not SystemSpec("GDI").is_distributed

    def test_effective_retrials(self):
        assert SystemSpec("ED", retrials=3).effective_retrials == 3
        assert SystemSpec("SP", retrials=5).effective_retrials == 1

    def test_all_algorithm_names_buildable(self, group):
        streams = StreamFactory(0)
        for name in ALGORITHM_NAMES:
            system = build_system(
                SystemSpec(name, retrials=2),
                mci_backbone(),
                MCI_SOURCES,
                group,
                streams,
            )
            assert isinstance(system, AdmissionSystem)


class TestBuildSystem:
    def test_distributed_systems_have_router_per_source(self, group):
        system = build_system(
            SystemSpec("ED", retrials=2),
            mci_backbone(),
            MCI_SOURCES,
            group,
            StreamFactory(0),
        )
        for source in MCI_SOURCES:
            controller = system.controller_for(source)
            assert isinstance(controller, ACRouter)
            assert controller.source == source
            # One route table per source, shared with the selector.
            assert controller.routes is controller.selector.context.routes

    def test_selector_classes_match_algorithm(self, group):
        cases = {
            "ED": EvenDistribution,
            "WD/D+H": DistanceHistoryWeighted,
            "WD/D+B": DistanceBandwidthWeighted,
            "SP": ShortestPathSelector,
        }
        for name, selector_class in cases.items():
            system = build_system(
                SystemSpec(name, retrials=2),
                mci_backbone(),
                MCI_SOURCES,
                group,
                StreamFactory(0),
            )
            assert isinstance(
                system.controller_for(1).selector, selector_class
            )

    def test_gdi_uses_single_global_controller(self, group):
        system = build_system(
            SystemSpec("GDI"), mci_backbone(), MCI_SOURCES, group, StreamFactory(0)
        )
        controllers = {system.controller_for(s) for s in MCI_SOURCES}
        assert len(controllers) == 1
        assert isinstance(controllers.pop(), GDIController)

    def test_sp_forces_single_attempt(self, group):
        system = build_system(
            SystemSpec("SP", retrials=5),
            mci_backbone(),
            MCI_SOURCES,
            group,
            StreamFactory(0),
        )
        assert system.controller_for(1).retrial_policy.max_attempts == 1

    def test_alpha_propagates_to_wddh(self, group):
        system = build_system(
            SystemSpec("WD/D+H", retrials=2, alpha=0.25),
            mci_backbone(),
            MCI_SOURCES,
            group,
            StreamFactory(0),
        )
        assert system.controller_for(1).selector.alpha == 0.25

    def test_unknown_source_raises(self, group):
        system = build_system(
            SystemSpec("ED"), mci_backbone(), (1, 3), group, StreamFactory(0)
        )
        with pytest.raises(ValueError):
            system.controller_for(2)

    def test_routers_share_one_network_state(self, group):
        network = mci_backbone(capacity_bps=64_000.0)
        system = build_system(
            SystemSpec("ED", retrials=1), network, (1, 3), group, StreamFactory(0)
        )
        assert system.controller_for(1).network is system.controller_for(3).network


class TestAdmissionSystemInterface:
    def test_admit_routes_by_source(self, group):
        system = build_system(
            SystemSpec("ED", retrials=2),
            mci_backbone(),
            MCI_SOURCES,
            group,
            StreamFactory(0),
        )
        result = system.admit(make_request(source=3, group=group))
        assert result.admitted
        assert system.controller_for(3).requests_seen == 1
        assert system.controller_for(1).requests_seen == 0

    def test_release_through_system(self, group):
        network = mci_backbone()
        system = build_system(
            SystemSpec("ED", retrials=2), network, MCI_SOURCES, group, StreamFactory(0)
        )
        result = system.admit(make_request(source=3, group=group))
        system.release(result)
        assert network.total_reserved_bps() == 0.0

    def test_aggregate_counters(self, group):
        system = build_system(
            SystemSpec("ED", retrials=2),
            mci_backbone(),
            MCI_SOURCES,
            group,
            StreamFactory(0),
        )
        results = [
            system.admit(make_request(source=source, group=group, flow_id=flow_id))
            for flow_id, source in enumerate((1, 3, 5))
        ]
        assert sum(system.controller_for(s).requests_seen for s in MCI_SOURCES) == 3
        assert all(result.admitted for result in results)
        assert [result.attempts for result in results] == [1, 1, 1]
