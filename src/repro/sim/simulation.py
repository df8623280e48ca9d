"""The anycast admission-control simulation model.

Recreates the paper's CSIM experiment (Section 5.1): flow requests
arrive in a Poisson stream, each is put through the admission system
under test, admitted flows hold bandwidth along their route for an
exponential lifetime, and the admission probability plus retrial
overhead are measured after a warm-up period.

The model is event-scheduled on :class:`repro.sim.engine.Simulator`
with two event types — request arrival and flow departure — which is
exactly the dynamics of a multi-service loss network.

:class:`AnycastSimulation` is the only driver.  Its atomic plane (the
default) reserves instantly, as the paper's simulation does, and can
inject link faults.  Its signalled plane (``chaos=ChaosConfig(...)``)
runs each admission as a PATH/RESV exchange over an impaired channel,
holds reservations as soft-state leases and drains its calendar at the
end (see :mod:`repro.experiments.chaos`).  Only arrival dispatch, lease
upkeep and the summary differ between the planes.

Example
-------
>>> from repro.network.topologies import mci_backbone, MCI_SOURCES, MCI_GROUP_MEMBERS
>>> from repro.flows.group import AnycastGroup
>>> from repro.flows.traffic import WorkloadSpec
>>> from repro.core.system import SystemSpec
>>> spec = WorkloadSpec(
...     arrival_rate=20.0,
...     sources=MCI_SOURCES,
...     group=AnycastGroup("A", MCI_GROUP_MEMBERS),
... )
>>> sim = AnycastSimulation(
...     network_factory=mci_backbone,
...     system_spec=SystemSpec("ED", retrials=2),
...     workload=spec,
...     warmup_s=100.0,
...     measure_s=400.0,
...     seed=7,
... )
>>> result = sim.run()
>>> 0.0 <= result.admission_probability <= 1.0
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro import invariants as _invariants
from repro.core.retrial import ExponentialBackoff
from repro.core.system import AdmissionSystem, SystemSpec, build_system
from repro.flows.flow import FlowRequest
from repro.flows.traffic import TrafficModel, WorkloadSpec
from repro.network.faults import FaultInjector, FaultState, check_fault_means
from repro.network.topology import Network
from repro.signaling.admission import SignalledACRouter
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.signaling.rsvp import (
    DEFAULT_PROCESSING_DELAY_S,
    SignalledReservationEngine,
)
from repro.signaling.softstate import LeaseTable
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.sim.random_streams import StreamFactory

NodeId = Hashable


@dataclass(frozen=True)
class FaultConfig:
    """Random link fail/repair behaviour for a simulation run.

    Enables the paper's Section 3 fault extension: cables alternate
    between up and down states with exponential holding times; flows
    crossing a failing cable are torn down.  A down cable's links read
    no capacity (see :mod:`repro.network.faults`), so new requests find
    those routes unreservable and bandwidth-aware selectors give them
    no weight; retrial control steers refused requests to other group
    members.

    Attributes
    ----------
    mean_time_to_failure_s:
        Mean up-time of each cable.
    mean_time_to_repair_s:
        Mean down-time of each cable.
    cables:
        Restrict faults to these cables (default: all).
    """

    mean_time_to_failure_s: float
    mean_time_to_repair_s: float
    cables: Optional[tuple[tuple[NodeId, NodeId], ...]] = None

    def __post_init__(self) -> None:
        check_fault_means(self.mean_time_to_failure_s, self.mean_time_to_repair_s)


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of the unreliable signalling plane.

    Attributes
    ----------
    loss_rate, extra_delay_s, duplicate_rate:
        Channel impairments (see :class:`SignalingChannel`).
    initial_timeout_s, backoff_factor, max_timeout_s, timeout_jitter:
        The per-hop retransmission timeout schedule (see
        :class:`repro.core.retrial.ExponentialBackoff`).
    max_retransmits:
        Retransmissions per hop transfer before the sender gives up.
    lease_ttl_s:
        Soft-state lease lifetime; an unrefreshed reservation is
        collectable this long after its last refresh.
    refresh_interval_s:
        How often an admitted flow's source refreshes its lease.
    gc_interval_s:
        Period of the orphan-collection sweep.
    processing_delay_s:
        Per-hop message processing time.
    """

    loss_rate: float = 0.0
    extra_delay_s: float = 0.0
    duplicate_rate: float = 0.0
    initial_timeout_s: float = 0.05
    backoff_factor: float = 2.0
    max_timeout_s: float = 1.0
    timeout_jitter: float = 0.1
    max_retransmits: int = 4
    lease_ttl_s: float = 60.0
    refresh_interval_s: float = 20.0
    gc_interval_s: float = 10.0
    processing_delay_s: float = DEFAULT_PROCESSING_DELAY_S

    def __post_init__(self) -> None:
        for name in ("lease_ttl_s", "refresh_interval_s", "gc_interval_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {self.loss_rate}")
        if self.refresh_interval_s <= 0 or self.refresh_interval_s >= self.lease_ttl_s:
            raise ValueError(
                "refresh interval must be positive and below the lease TTL "
                f"(got {self.refresh_interval_s} vs TTL {self.lease_ttl_s})"
            )


@dataclass(frozen=True)
class ChaosResult:
    """Summary of one chaos run.

    ``leaked_bps`` is the bandwidth still reserved after the run
    drained its calendar — the soft-state contract makes this zero,
    and the integration tests assert it at every loss rate.
    """

    system_label: str
    loss_rate: float
    arrival_rate: float
    requests: int
    admitted: int
    admission_probability: float
    mean_attempts: float
    mean_admission_latency_s: float
    signaling_messages: int
    retransmissions: int
    tear_messages: int
    refresh_messages: int
    timeouts: int
    channel_sent: int
    channel_dropped: int
    channel_duplicated: int
    orphans_collected: int
    reclaimed_bps: float
    leaked_bps: float

    @property
    def blocking_probability(self) -> float:
        """1 - AP, the paper-style degradation metric."""
        return 1.0 - self.admission_probability


class AnycastSimulation:
    """One run of the paper's simulation experiment.

    Parameters
    ----------
    network_factory:
        Zero-argument callable building a *fresh* network (state is
        mutated by reservations, so each run needs its own instance).
    system_spec:
        The ``<A, R>`` admission system under test.
    workload:
        Traffic parameters (arrival rate, sources, group, lifetimes).
    warmup_s:
        Simulated seconds to discard before measuring (lets the loss
        network reach steady state; the paper's AP is defined "in a
        stable system").
    measure_s:
        Length of the measurement window in simulated seconds.
    seed:
        Root seed; all streams (arrivals, lifetimes, source choice,
        per-router selection dice, signalling impairments) derive from
        it deterministically.
    batch_size:
        Batch size for the AP confidence interval.
    fault_config:
        Optional random link fail/repair behaviour, on the atomic plane
        only.  A fault is written into the link-state capacity column,
        so the routers share the same plain atomic engine as a
        fault-free run.  Supported for the distributed systems; GDI's
        global path search would need fault-aware routing, which is out
        of the paper's scope.
    chaos:
        Run on the signalled plane over a channel impaired as
        configured.  Needs a distributed system with always-fresh
        bandwidth (``bandwidth_refresh_s`` 0); :meth:`run` then
        drains the calendar and returns a :class:`ChaosResult`.
    """

    def __init__(
        self,
        network_factory: Callable[[], Network],
        system_spec: SystemSpec,
        workload: WorkloadSpec,
        warmup_s: float = 1000.0,
        measure_s: float = 4000.0,
        seed: int = 0,
        batch_size: int = 200,
        fault_config: Optional[FaultConfig] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        # Written so that NaN fails: an unbounded or NaN window would
        # never let the event loop reach its horizon.
        if not (0.0 <= warmup_s < math.inf and 0.0 < measure_s < math.inf):
            raise ValueError(
                "need finite warmup >= 0 and measure > 0, "
                f"got {warmup_s}, {measure_s}"
            )
        if chaos is not None and fault_config is not None:
            raise ValueError("fault injection needs the atomic plane, not chaos")
        if not system_spec.is_distributed and (chaos or fault_config) is not None:
            raise ValueError("faults and chaos need a distributed system (not GDI)")
        if chaos is not None and system_spec.bandwidth_refresh_s > 0:
            raise ValueError(
                "chaos scenario has no stale-snapshot bandwidth view; "
                f"got bandwidth_refresh_s={system_spec.bandwidth_refresh_s}"
            )
        self.network = network_factory()
        self.system_spec = system_spec
        self.workload = workload
        self.chaos = chaos
        self.warmup_s = warmup_s
        self.measure_s = measure_s
        self.horizon_s = warmup_s + measure_s
        self.seed = seed
        self.streams = StreamFactory(seed)
        self.simulator = Simulator()
        self.fault_state: Optional[FaultState] = None
        self._fault_injector: Optional[FaultInjector] = None
        # The engine every AC-router shares (None: a fresh atomic one).
        reservation: Optional[SignalledReservationEngine] = None
        if chaos is not None:
            self.channel = SignalingChannel(
                self.simulator,
                loss_rate=chaos.loss_rate,
                extra_delay_s=chaos.extra_delay_s,
                duplicate_rate=chaos.duplicate_rate,
                loss_rng=self.streams.stream("signaling.loss"),
                delay_rng=self.streams.stream("signaling.delay"),
                duplicate_rng=self.streams.stream("signaling.duplicate"),
            )
            backoff = ExponentialBackoff(
                chaos.initial_timeout_s,
                factor=chaos.backoff_factor,
                max_timeout_s=chaos.max_timeout_s,
                jitter=chaos.timeout_jitter,
                rng=(
                    self.streams.stream("signaling.backoff")
                    if chaos.timeout_jitter > 0
                    else None
                ),
            )
            self.leases = LeaseTable(
                self.simulator,
                self.network,
                ttl_s=chaos.lease_ttl_s,
                sweep_interval_s=chaos.gc_interval_s,
            )
            reservation = self.engine = SignalledReservationEngine(
                self.simulator,
                self.network,
                processing_delay_s=chaos.processing_delay_s,
                channel=self.channel,
                retransmit=RetransmitPolicy(backoff, chaos.max_retransmits),
                leases=self.leases,
            )
        elif fault_config is not None:
            self.fault_state = fault_state = FaultState(self.network)
            self._fault_injector = FaultInjector(
                self.simulator,
                fault_state,
                self.streams.stream("faults"),
                mean_time_to_failure_s=fault_config.mean_time_to_failure_s,
                mean_time_to_repair_s=fault_config.mean_time_to_repair_s,
                cables=fault_config.cables,
                on_fail=self._handle_fault,
            )
        self.system: AdmissionSystem = build_system(
            system_spec,
            self.network,
            workload.sources,
            workload.group,
            self.streams,
            clock=lambda: self.simulator.now,
            reservation=reservation,
        )
        #: The signalled routers by source; ``None`` on the atomic plane.
        self.routers: Optional[dict[NodeId, SignalledACRouter]] = None
        if chaos is not None:
            self.routers = {}
            for source in workload.sources:
                router = self.system.controller_for(source)
                assert isinstance(router, SignalledACRouter)  # signalled engine
                self.routers[source] = router
        self.traffic = TrafficModel(workload, self.streams)
        self.metrics = MetricsCollector(
            clock=lambda: self.simulator.now, batch_size=batch_size
        )
        #: Live admitted flows by id, on the atomic plane (fault teardown).
        self._active: dict[int, FlowRequest] = {}
        self.flows_dropped_by_faults = 0
        self._decision_latency_total = 0.0
        self.refresh_messages = 0
        self._ran = False

    # ------------------------------------------------------------------
    # event handlers shared by both planes
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        request = self.traffic.next_request()
        if request.arrival_time > self.horizon_s:
            return
        request.driver = self
        self.simulator.schedule_at(request.arrival_time, request.arrive)

    def on_arrival(self, request: FlowRequest) -> None:
        """A request's arrival event: decide it, and draw the next arrival."""
        self._schedule_next_arrival()
        routers = self.routers
        if routers is not None:
            routers[request.source].admit(request, self._handle_signalled_decision)
            return
        self.system.admit(request)
        self._record_decision(request)
        if request.destination is not None:
            request.departure = self.simulator.schedule(
                request.lifetime_s, request.depart
            )
            self._active[request.flow_id] = request

    def _record_decision(self, request: FlowRequest) -> None:
        """Record a decision whose request arrived in the window; start its flow."""
        if request.arrival_time >= self.warmup_s:
            self.metrics.record_decision(request)
            self._decision_latency_total += request.latency_s
        if request.destination is not None:
            self.metrics.record_flow_start()

    def on_departure(self, flow: FlowRequest) -> None:
        """An admitted flow's departure event: charge refreshes, release it."""
        if self.chaos is not None and flow.reservation_key in self.leases:
            # A lease collected before the first refresh (signalling
            # slower than TTL - interval) was never refreshed: its owner
            # found it gone and stopped.  A lease alive at the first
            # refresh lives on.
            assert flow.route is not None  # admitted
            refreshes = self._refresh_ticks(flow)[2]
            self.refresh_messages += 2 * refreshes * flow.route.distance
        # The fired event's callback refers back to the flow.
        flow.departure = None
        self._active.pop(flow.flow_id, None)
        self.system.release(flow)
        self.metrics.record_flow_end()

    # ------------------------------------------------------------------
    # the atomic plane's faults
    # ------------------------------------------------------------------
    def _handle_fault(
        self, cable: tuple[NodeId, NodeId], killed_flow_ids: list[int]
    ) -> None:
        """Finish tearing down flows whose route crossed a failed cable."""
        for flow_id in killed_flow_ids:
            flow = self._active.pop(flow_id, None)
            if flow is None:
                continue
            assert flow.departure is not None and flow.route is not None
            flow.departure.cancel()
            flow.departure = None
            # The failed cable already dropped its legs: release the
            # rest of the route by key, and mark the flow so no later
            # release runs.
            for link in flow.route.resolve_links(self.network):
                link.release_if_held(flow.reservation_key)
            flow.released = True
            self.metrics.record_flow_end()
            self.flows_dropped_by_faults += 1

    # ------------------------------------------------------------------
    # the signalled plane's decisions and leases
    # ------------------------------------------------------------------
    def _handle_signalled_decision(self, flow: FlowRequest) -> None:
        self._record_decision(flow)
        if flow.destination is not None:
            flow.departure = self.simulator.schedule(flow.lifetime_s, flow.depart)
            first, last, refreshes = self._refresh_ticks(flow)
            if refreshes:
                self.leases.hold(flow.reservation_key, first, last)

    def _refresh_ticks(self, flow: FlowRequest) -> tuple[float, float, int]:
        """The first and last lease refresh of ``flow``, and their count.

        The source refreshes every ``refresh_interval_s`` from its
        decision on.  Refreshes are modelled as reliable (their
        Path/Resv pair is charged to the message totals but not
        dropped) and draw no random numbers, so the decision time, the
        interval and the departure fix the whole chain: the lease is
        held for it at admission and charged for it at departure.  The
        tick times accumulate as repeated ``schedule(interval)`` calls
        would place them, and a departure at the same instant as a tick
        wins the tie (it is the earlier-scheduled event), so only ticks
        strictly before it refresh.
        """
        assert self.chaos is not None  # leases exist on the signalled plane
        assert flow.decided_at is not None and flow.departure is not None
        interval = float(self.chaos.refresh_interval_s)
        departure_at = flow.departure.time
        first = last = flow.decided_at + interval
        if first >= departure_at:
            return first, last, 0
        refreshes = 1
        while last + interval < departure_at:
            last += interval
            refreshes += 1
        return first, last, refreshes

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> "SimulationResult | ChaosResult":
        """Execute the run and return its summary.

        The atomic plane stops at the horizon and returns a
        :class:`SimulationResult`; the signalled plane then drains its
        calendar and returns a :class:`ChaosResult`.  A simulation
        object is single-use; build a new one per run.
        """
        if self._ran:
            raise RuntimeError(f"{type(self).__name__} objects are single-use")
        self._ran = True
        if self._fault_injector is not None:
            self._fault_injector.start()
        # Drop the warm-up ramp from the occupancy statistic: the AP
        # metrics already filter on arrival_time >= warmup_s, but the
        # time-weighted active-flow average would otherwise keep the
        # empty-network transient in its integral and bias the mean
        # low.  The reset keeps the current occupancy as the value at
        # the start of the measurement window.
        self.simulator.schedule_at(self.warmup_s, self.metrics.active_flows.reset)
        self._schedule_next_arrival()
        self.simulator.run(until=self.horizon_s)
        if self.chaos is not None:
            return self._drain(self.chaos)
        if self._fault_injector is not None:
            # Stop the self-rescheduling fault timers so callers can
            # drain the remaining departures with an unbounded run().
            self._fault_injector.stop()
        ci_low, ci_high = self.metrics.admission_probability_ci()
        destination_share = {
            destination: count / self.metrics.admitted
            for destination, count in sorted(
                self.metrics.destination_counts.items(), key=lambda kv: repr(kv[0])
            )
        } if self.metrics.admitted else {}
        # Instantaneous utilization at the measurement horizon, not a
        # time-weighted average: it answers "what did the network look
        # like at the end of the run" (see SimulationResult docs).
        link_utilization = {
            (link.source, link.target): link.utilization
            for link in self.network.links()
        }
        return SimulationResult(
            system_label=self.system_spec.label,
            arrival_rate=self.workload.arrival_rate,
            duration_s=self.measure_s,
            warmup_s=self.warmup_s,
            requests=self.metrics.requests,
            admitted=self.metrics.admitted,
            admission_probability=self.metrics.admission_probability,
            ap_ci_low=ci_low,
            ap_ci_high=ci_high,
            mean_attempts=self.metrics.mean_attempts,
            mean_retrials=self.metrics.mean_retrials,
            mean_active_flows=self.metrics.active_flows.mean,
            destination_share=destination_share,
            attempt_histogram=dict(sorted(self.metrics.attempt_histogram.items())),
            link_utilization=link_utilization,
            per_source_ap=self.metrics.per_source_ap(),
            fairness_index=self.metrics.fairness_index(),
        )

    def _drain(self, chaos: ChaosConfig) -> ChaosResult:
        """Drain the signalled plane's calendar and summarize the run."""
        # Arrivals have stopped; in-flight admissions decide,
        # departures tear down (lost TEARs strand orphans), leases
        # expire and the collector self-quiesces, so the unbounded run
        # terminates with an empty calendar.
        self.simulator.run()
        leaked = self.network.total_reserved_bps()
        if _invariants.enabled:
            _invariants.check_network(self.network)
            _invariants.check_soft_state(self.network, self.leases)
            _invariants.check_drained(self.network)
        requests = self.metrics.requests
        return ChaosResult(
            system_label=self.system_spec.label,
            loss_rate=chaos.loss_rate,
            arrival_rate=self.workload.arrival_rate,
            requests=requests,
            admitted=self.metrics.admitted,
            admission_probability=self.metrics.admission_probability,
            mean_attempts=self.metrics.mean_attempts,
            mean_admission_latency_s=(
                self._decision_latency_total / requests if requests else 0.0
            ),
            signaling_messages=self.engine.total_messages,
            retransmissions=self.engine.total_retransmissions,
            tear_messages=self.engine.tear_messages,
            refresh_messages=self.refresh_messages,
            timeouts=self.engine.timeouts,
            channel_sent=self.channel.sent,
            channel_dropped=self.channel.dropped,
            channel_duplicated=self.channel.duplicated,
            orphans_collected=self.leases.orphans_collected,
            reclaimed_bps=self.leases.reclaimed_bps,
            leaked_bps=leaked,
        )


def run_simulation(
    network_factory: Callable[[], Network],
    system_spec: SystemSpec,
    workload: WorkloadSpec,
    warmup_s: float = 1000.0,
    measure_s: float = 4000.0,
    seed: int = 0,
) -> SimulationResult:
    """Convenience wrapper: build and run one atomic :class:`AnycastSimulation`."""
    result = AnycastSimulation(
        network_factory=network_factory,
        system_spec=system_spec,
        workload=workload,
        warmup_s=warmup_s,
        measure_s=measure_s,
        seed=seed,
    ).run()
    assert isinstance(result, SimulationResult)  # no chaos: the atomic plane
    return result
