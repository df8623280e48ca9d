"""The Figure 1 loop against a reference loop written out in full.

:class:`~repro.core.admission.ACRouter` reads ``K`` and each member's
route once, passes its arguments positionally, and tests a request's
group by identity before ``==``; the static selectors serve the
no-refusal table without a ``frozenset`` key.  None of that may change
a decision.  The reference loop below is the DAC procedure (paper
§4.2, Figure 1) spelled out with the plain calls: ``select`` with
``exclude=``, ``RouteTable.route_to``, ``try_reserve`` and
``should_retry`` with keywords.  It runs on a twin system built from
the same seed, and every request record, link counter, engine counter
and random stream must come out the same.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.admission import ACRouter
from repro.core.system import SystemSpec, build_system
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.topologies import MCI_GROUP_MEMBERS, MCI_SOURCES, grid, mci_backbone
from repro.sim.random_streams import StreamFactory

FLOW_BPS = 64_000.0
CAPACITY_BPS = 3 * FLOW_BPS

#: name -> (network builder, sources, group members).  On the grid,
#: source 0 is itself a member: its route has zero hops.
TOPOLOGIES = {
    "mci": (
        lambda: mci_backbone(capacity_bps=CAPACITY_BPS),
        MCI_SOURCES,
        MCI_GROUP_MEMBERS,
    ),
    "grid": (lambda: grid(3, 3, capacity_bps=CAPACITY_BPS), (0, 1, 4, 5), (0, 2, 6, 8)),
}

ALGORITHMS = ("ED", "WD/D", "WD/D+B", "WD/D+H", "WD/D+H+B", "SP")


def reference_admit(router: ACRouter, request: FlowRequest, now=None) -> FlowRequest:
    """The DAC procedure of Figure 1, with every call made the plain way."""
    if request.source != router.source:
        raise ValueError("request source does not match router source")
    if request.group != router.group:
        raise ValueError("request group does not match router group")
    router.requests_seen += 1
    excluded = request.excluded = set()
    decided_at = request.arrival_time if now is None else now
    key = request.reservation_key = request.flow_id
    while True:
        destination = router.selector.select(router.rng, exclude=excluded)
        request.tried.append(destination)
        route = request.route = router.routes.route_to(destination)
        success = router.reservation.try_reserve(route, key, request.bandwidth_bps)
        router.selector.observe(destination, success)
        attempts = len(request.tried)
        if success:
            request.destination = destination
            break
        if router.resample_failed:
            distinct_tried = len(set(request.tried))
        else:
            excluded.add(destination)
            distinct_tried = len(excluded)
        if not router.retrial_policy.should_retry(
            attempts_made=attempts,
            distinct_tried=distinct_tried,
            group_size=router.group.size,
        ):
            request.route = request.reservation_key = None
            break
    request.attempts = attempts
    request.decided_at = decided_at
    request.excluded = None
    return request


def build(
    topology: str,
    algorithm: str,
    retrials: int,
    resample: bool,
    seed: int,
    preload: list[int],
):
    """One system of a twin pair, its network preloaded with held flows.

    Link ``i`` holds ``preload[i % len(preload)]`` flows (at most 3, a
    full link); an empty ``preload`` leaves every link free.
    """
    make_network, sources, members = TOPOLOGIES[topology]
    network = make_network()
    for i, link in enumerate(network.links() if preload else ()):
        flows = preload[i % len(preload)]
        if flows:
            network.reserve_links([link], ("preload", i), flows * FLOW_BPS)
    group = AnycastGroup("A", members)
    spec = SystemSpec(algorithm, retrials=retrials, resample_failed=resample)
    streams = StreamFactory(seed)
    system = build_system(spec, network, sources, group, streams)
    return network, system, streams, sources, group


def record(request: FlowRequest) -> tuple:
    route = request.route
    return (
        list(request.tried),
        request.attempts,
        request.destination,
        None if route is None else route.path,
        request.reservation_key,
        request.decided_at,
        request.excluded,
    )


def state(network, system, streams, sources) -> tuple:
    """Every counter and stream the loop moves, in a comparable form."""
    links = [
        (link.grants, link.rejections, link.reserved_bps) for link in network.links()
    ]
    routers = [system.controller_for(source) for source in sources]
    engine = routers[0].reservation
    seen = [router.requests_seen for router in routers]
    draws = {}
    for name in streams.issued_names():
        stream = streams.stream(name)
        draws[name] = (stream.draws, stream.uniform())  # count, next variate
    return links, (engine.attempts, engine.failures), seen, draws


steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),  # source index (mod sources)
        st.booleans(),  # release the oldest admitted flow afterwards
        st.booleans(),  # address the request with an equal, distinct group
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e3)),  # now
    ),
    min_size=1,
    max_size=40,
)


class TestFigure1LoopOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        topology=st.sampled_from(sorted(TOPOLOGIES)),
        algorithm=st.sampled_from(ALGORITHMS),
        retrials=st.integers(min_value=1, max_value=7),
        resample=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
        preload=st.lists(st.integers(min_value=0, max_value=3), max_size=30),
        script=steps,
    )
    # Every link full, so every attempt is refused: with resampling a
    # member is drawn again and distinct_tried falls below attempts;
    # without it, each retry must skip every refused member.
    @example("grid", "ED", 7, True, 0, [3], [(1, False, False, None)] * 4)
    @example("mci", "WD/D", 5, False, 0, [3], [(0, False, True, 2.0)] * 4)
    def test_router_matches_reference_loop(
        self, topology, algorithm, retrials, resample, seed, preload, script
    ):
        twins = [
            build(topology, algorithm, retrials, resample, seed, preload)
            for _ in range(2)
        ]
        for side, (network, system, streams, sources, group) in enumerate(twins):
            held: list[FlowRequest] = []
            records = []
            for flow_id, (index, release, copy_group, now) in enumerate(script):
                source = sources[index % len(sources)]
                request = FlowRequest(
                    flow_id=flow_id,
                    source=source,
                    group=AnycastGroup("A", group.members) if copy_group else group,
                    qos=QoSRequirement(bandwidth_bps=FLOW_BPS),
                    arrival_time=float(flow_id),
                )
                router = system.controller_for(source)
                if side == 0:
                    router.admit(request, now=now)
                    if not resample:  # refused members are not drawn again
                        assert len(set(request.tried)) == len(request.tried)
                else:
                    reference_admit(router, request, now=now)
                records.append(record(request))
                if request.admitted:
                    held.append(request)
                if release and held:
                    router = system.controller_for(held[0].source)
                    router.release(held.pop(0))
            if side == 0:
                expected = records, state(network, system, streams, sources)
            else:
                assert records == expected[0]
                assert state(network, system, streams, sources) == expected[1]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_foreign_group_is_refused_before_any_draw(self, algorithm):
        untouched, twin = (build("mci", algorithm, 3, False, 7, []) for _ in range(2))
        network, system, streams, sources, group = twin
        router = system.controller_for(sources[0])
        for foreign in (
            AnycastGroup("B", group.members),
            AnycastGroup("A", group.members[:-1]),
        ):
            request = FlowRequest(
                flow_id=0,
                source=sources[0],
                group=foreign,
                qos=QoSRequirement(bandwidth_bps=FLOW_BPS),
            )
            with pytest.raises(ValueError, match="does not match router group"):
                router.admit(request)
            assert request.tried == [] and request.excluded is None
        untouched_network, untouched_system, untouched_streams = untouched[:3]
        assert state(network, system, streams, sources) == state(
            untouched_network, untouched_system, untouched_streams, sources
        )
