"""Property-based tests for admission-control invariants.

Drives random request/departure interleavings through complete
admission systems and checks the global conservation and safety
invariants that must hold in any correct admission controller.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import SystemSpec, build_system
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.topologies import mci_backbone
from repro.sim.random_streams import StreamFactory

GROUP = AnycastGroup("A", (0, 4, 8, 12, 16))
SOURCES = (1, 3, 5, 7, 9, 11, 13, 15, 17)

algorithms = st.sampled_from(["ED", "WD/D", "WD/D+H", "WD/D+B", "SP", "GDI"])


@st.composite
def request_scripts(draw):
    """A list of (source_index, hold) admission steps."""
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(SOURCES) - 1),
                st.booleans(),  # whether to release some admitted flow after
            ),
            min_size=1,
            max_size=60,
        )
    )
    return steps


class TestConservationInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        algorithm=algorithms,
        retrials=st.integers(min_value=1, max_value=5),
        script=request_scripts(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_reservations_balance_admissions(self, algorithm, retrials, script, seed):
        network = mci_backbone(capacity_bps=3 * 64_000.0)
        system = build_system(
            SystemSpec(algorithm, retrials=retrials),
            network,
            SOURCES,
            GROUP,
            StreamFactory(seed),
        )
        active = []
        flow_id = 0
        for source_index, release_after in script:
            request = FlowRequest(
                flow_id=flow_id,
                source=SOURCES[source_index],
                group=GROUP,
                qos=QoSRequirement(bandwidth_bps=64_000.0),
            )
            flow_id += 1
            result = system.admit(request)
            # Safety: attempts bounded by R (or 1 for SP/GDI) and by K.
            limit = 1 if algorithm in ("SP", "GDI") else retrials
            assert 1 <= result.attempts <= min(limit, GROUP.size)
            if result.admitted:
                active.append(result)
                # The admitted flow holds its bandwidth on every hop.
                for link in result.route.resolve_links(network):
                    assert link.reservation_of(result.reservation_key) == 64_000.0
            if release_after and active:
                system.release(active.pop())
        # Conservation: reserved bandwidth == sum over active flows.
        expected = sum(64_000.0 * flow.route.distance for flow in active)
        assert network.total_reserved_bps() == expected
        # Full cleanup drains the network.
        for flow in active:
            system.release(flow)
        assert network.total_reserved_bps() == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        algorithm=algorithms,
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_no_link_oversubscription_under_pressure(self, algorithm, seed):
        """Hammer a tiny network: no link may ever exceed capacity."""
        network = mci_backbone(capacity_bps=2 * 64_000.0)
        system = build_system(
            SystemSpec(algorithm, retrials=3),
            network,
            SOURCES,
            GROUP,
            StreamFactory(seed),
        )
        for flow_id in range(120):
            request = FlowRequest(
                flow_id=flow_id,
                source=SOURCES[flow_id % len(SOURCES)],
                group=GROUP,
                qos=QoSRequirement(bandwidth_bps=64_000.0),
            )
            system.admit(request)
            for link in network.links():
                assert link.reserved_bps <= link.capacity_bps + 1e-6
