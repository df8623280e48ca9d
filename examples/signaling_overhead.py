#!/usr/bin/env python
"""Measure the true signalling cost of retrials with RSVP-lite.

Section 4.5 frames retrial control as an admission-probability vs
overhead trade-off, with overhead "directly proportional to ...
resource reservation messages and admission delay".  The paper's
simulation counts retrials; this example goes one level deeper and
drives the hop-by-hop PATH/RESV message model, reporting actual
message counts and reservation latencies per admission attempt.

Run:  python examples/signaling_overhead.py
"""

from repro.core.retrial import CounterRetrialPolicy
from repro.core.selection import EvenDistribution, SelectionContext
from repro.experiments.report import format_table
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.routing import RouteTable
from repro.network.topologies import MCI_GROUP_MEMBERS, mci_backbone
from repro.signaling.admission import SignalledACRouter
from repro.signaling.rsvp import SignalledReservationEngine
from repro.sim.engine import Simulator
from repro.sim.random_streams import StreamFactory


def main() -> None:
    group = AnycastGroup("A", MCI_GROUP_MEMBERS)
    source = 9
    network = mci_backbone(capacity_bps=8 * 64_000.0)
    simulator = Simulator()
    engine = SignalledReservationEngine(simulator, network)
    routes = RouteTable(network, source, group.members)
    context = SelectionContext(network=network, routes=routes, group=group)
    # <ED,2>: the DAC loop of Figure 1 on top of asynchronous signalling.
    router = SignalledACRouter(
        network,
        source,
        group,
        EvenDistribution(context),
        CounterRetrialPolicy(2),
        StreamFactory(5).stream("selection"),
        engine,
    )

    print("RSVP-lite signalling from router 9 on the MCI backbone")
    print("(8 anycast slots per link, 5 ms propagation per hop)")
    print("=" * 62)

    decisions = []

    def offer(flow_id: int) -> None:
        request = FlowRequest(
            flow_id=flow_id,
            source=source,
            group=group,
            qos=QoSRequirement(bandwidth_bps=64_000.0),
            arrival_time=simulator.now,
        )
        router.admit(request, decisions.append)

    # Offer a burst of 120 flows; capacity fits only a fraction.
    for flow_id in range(120):
        simulator.schedule(flow_id * 0.01, lambda f=flow_id: offer(f))
    simulator.run()

    rows = [
        ["flows offered", str(len(decisions))],
        ["flows admitted", str(sum(d.admitted for d in decisions))],
        ["destination attempts", str(sum(d.attempts for d in decisions))],
        ["signalling messages", str(engine.total_messages)],
        ["  of which TEAR (lost races)", str(engine.tear_messages)],
        ["messages per attempt", f"{engine.mean_messages:.2f}"],
        ["mean reservation latency", f"{engine.mean_latency_s * 1000:.2f} ms"],
    ]
    print(format_table(["metric", "value"], rows))
    print()
    print(
        "Every retrial costs another PATH/RESV round trip, which is why\n"
        "the paper prefers selection algorithms that need few retrials\n"
        "(Figure 7) and caps R at 2 in its recommended systems."
    )


if __name__ == "__main__":
    main()
