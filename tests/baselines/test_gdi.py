"""Unit tests for the GDI baseline (repro.baselines.gdi)."""

import pytest

from repro.baselines.gdi import GDIController
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.topologies import line, mci_backbone
from repro.network.topology import Network


def make_request(source, group, flow_id=0, bandwidth=64_000.0):
    return FlowRequest(
        flow_id=flow_id,
        source=source,
        group=group,
        qos=QoSRequirement(bandwidth_bps=bandwidth),
    )


def build_diamond(capacity=64_000.0) -> Network:
    net = Network("diamond")
    for u, v in ((0, 1), (0, 2), (1, 3), (2, 3)):
        net.add_link(u, v, capacity_bps=capacity)
    return net


class TestAdmission:
    def test_admits_over_any_feasible_path(self):
        # Fixed shortest path 0-1-3 saturated; GDI must route via 0-2-3.
        net = build_diamond()
        group = AnycastGroup("A", (3,))
        controller = GDIController(net, group)
        net.link(0, 1).reserve("blocker", 64_000.0)
        result = controller.admit(make_request(0, group))
        assert result.admitted
        assert result.route.path == (0, 2, 3)

    def test_prefers_minimum_hop_member(self):
        net = line(5)
        group = AnycastGroup("A", (0, 4))
        controller = GDIController(net, group)
        result = controller.admit(make_request(1, group))
        assert result.destination == 0  # one hop vs three

    def test_rejects_when_no_feasible_path(self):
        net = line(3, capacity_bps=64_000.0)
        group = AnycastGroup("A", (2,))
        controller = GDIController(net, group)
        net.link(0, 1).reserve("b1", 64_000.0)
        net.link(1, 2).reserve("b2", 64_000.0)
        result = controller.admit(make_request(0, group))
        assert not result.admitted
        assert result.attempts == 1
        controller.release(result)  # a refused record holds nothing
        assert net.total_reserved_bps() == 2 * 64_000.0

    def test_reservation_held_on_found_path(self):
        net = build_diamond()
        group = AnycastGroup("A", (3,))
        controller = GDIController(net, group)
        result = controller.admit(make_request(0, group))
        for link in result.route.resolve_links(net):
            assert link.holds(result.reservation_key)

    def test_source_in_group_is_admitted_for_free(self):
        net = line(3)
        group = AnycastGroup("A", (0, 2))
        controller = GDIController(net, group)
        result = controller.admit(make_request(0, group))
        assert result.admitted
        assert result.route.path == (0,)
        assert net.total_reserved_bps() == 0.0

    def test_record_is_admitted_once(self):
        net = build_diamond()
        group = AnycastGroup("A", (3,))
        controller = GDIController(net, group)
        request = make_request(0, group)
        controller.admit(request)
        with pytest.raises(ValueError, match="already submitted"):
            controller.admit(request)
        assert request.route.path == (0, 1, 3)
        assert controller.requests_seen == 1
        assert net.total_reserved_bps() == 2 * 64_000.0

    def test_wrong_group_rejected(self):
        net = line(3)
        controller = GDIController(net, AnycastGroup("A", (0,)))
        with pytest.raises(ValueError):
            controller.admit(make_request(1, AnycastGroup("B", (2,))))

    def test_release(self):
        net = build_diamond()
        group = AnycastGroup("A", (3,))
        controller = GDIController(net, group)
        result = controller.admit(make_request(0, group))
        controller.release(result)
        controller.release(result)  # idempotent
        assert net.total_reserved_bps() == 0.0


class TestDominance:
    def test_gdi_admits_whenever_fixed_route_system_would(self):
        """GDI is an upper bound: any flow a DAC system admits, GDI admits."""
        from repro.core.system import SystemSpec, build_system
        from repro.flows.traffic import TrafficModel, WorkloadSpec
        from repro.network.topologies import MCI_GROUP_MEMBERS, MCI_SOURCES
        from repro.sim.random_streams import StreamFactory

        group = AnycastGroup("A", MCI_GROUP_MEMBERS)
        spec = WorkloadSpec(
            arrival_rate=30.0,
            sources=MCI_SOURCES,
            group=group,
            bandwidth_bps=64_000.0,
        )
        # Two identical networks fed the same request sequence.
        net_dac = mci_backbone(capacity_bps=5 * 64_000.0)
        net_gdi = mci_backbone(capacity_bps=5 * 64_000.0)
        dac = build_system(
            SystemSpec("ED", retrials=2), net_dac, MCI_SOURCES, group, StreamFactory(1)
        )
        gdi = GDIController(net_gdi, group)
        # Twin models: each system decides its own copy of each request.
        dac_model = TrafficModel(spec, StreamFactory(2))
        gdi_model = TrafficModel(spec, StreamFactory(2))
        dac_admitted = gdi_admitted = 0
        for _ in range(300):
            if dac.admit(dac_model.next_request()).admitted:
                dac_admitted += 1
            if gdi.admit(gdi_model.next_request()).admitted:
                gdi_admitted += 1
        # Without departures both networks only fill up; GDI's global
        # search must never do worse on the same workload.
        assert gdi_admitted >= dac_admitted


class TestCounters:
    def test_statistics(self):
        net = line(3, capacity_bps=64_000.0)
        group = AnycastGroup("A", (2,))
        controller = GDIController(net, group)
        first = controller.admit(make_request(0, group, flow_id=1))
        second = controller.admit(make_request(0, group, flow_id=2))  # full
        assert controller.requests_seen == 2
        assert first.admitted and not second.admitted
        assert first.attempts == second.attempts == 1
