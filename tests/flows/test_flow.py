"""Unit tests for the flow record (repro.flows.flow)."""

import math

import pytest

from repro.core.system import SystemSpec, build_system
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.topologies import line
from repro.sim.random_streams import StreamFactory


def make_request(**overrides) -> FlowRequest:
    defaults = dict(
        flow_id=1,
        source=9,
        group=AnycastGroup("A", (0, 4)),
        qos=QoSRequirement(bandwidth_bps=64_000.0),
        arrival_time=10.0,
        lifetime_s=180.0,
    )
    defaults.update(overrides)
    return FlowRequest(**defaults)


class TestFlowRequest:
    def test_bandwidth_comes_from_qos(self):
        request = make_request()
        assert request.bandwidth_bps == 64_000.0

    def test_open_ended_flow_has_no_departure(self):
        request = make_request(lifetime_s=None)
        assert request.lifetime_s is None
        assert request.departure is None

    def test_negative_lifetime_rejected(self):
        with pytest.raises(ValueError):
            make_request(lifetime_s=-1.0)

    @pytest.mark.parametrize("lifetime", [math.nan, math.inf])
    def test_non_finite_lifetime_rejected(self, lifetime):
        with pytest.raises(ValueError, match="lifetime"):
            make_request(lifetime_s=lifetime)

    @pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_arrival_time_rejected(self, arrival):
        with pytest.raises(ValueError, match="arrival time"):
            make_request(arrival_time=arrival)

    def test_undecided_record(self):
        request = make_request()
        assert not request.admitted
        assert request.tried == []
        assert request.excluded is None
        assert request.destination is None
        assert request.route is None
        assert request.reservation_key is None
        assert request.decided_at is None
        assert request.latency_s == 0.0


class TestAdmittedFlow:
    def test_valid_flow(self):
        network = line(3)
        group = AnycastGroup("A", (0, 2))
        system = build_system(
            SystemSpec("ED", retrials=2), network, (1,), group, StreamFactory(0)
        )
        flow = system.admit(make_request(source=1, group=group))
        assert flow.admitted
        assert flow.flow_id == 1
        assert flow.bandwidth_bps == 64_000.0
        assert flow.destination in (0, 2)
        assert flow.route.path[-1] == flow.destination
        assert flow.reservation_key == flow.flow_id
        assert flow.attempts == len(flow.tried) == 1
        assert flow.decided_at == 10.0
        assert flow.excluded is None  # a live flow keeps no loop set
        assert not flow.released

    def test_zero_hop_flow(self):
        # A source inside the group holds its flow on a one-node path.
        network = line(3)
        group = AnycastGroup("A", (0,))
        system = build_system(
            SystemSpec("ED", retrials=1), network, (0,), group, StreamFactory(0)
        )
        flow = system.admit(make_request(source=0, group=group))
        assert flow.route.path == (0,)
        assert network.total_reserved_bps() == 0.0
        system.release(flow)
        assert flow.released
