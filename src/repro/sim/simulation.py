"""The anycast admission-control simulation model.

Recreates the paper's CSIM experiment (Section 5.1): flow requests
arrive in a Poisson stream, each is put through the admission system
under test, admitted flows hold bandwidth along their route for an
exponential lifetime, and the admission probability plus retrial
overhead are measured after a warm-up period.

The model is event-scheduled on :class:`repro.sim.engine.Simulator`
with two event types — request arrival and flow departure — which is
exactly the dynamics of a multi-service loss network.

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

NodeId = Hashable

from repro.core.admission import ACRouter
from repro.core.system import AdmissionSystem, SystemSpec, build_system
from repro.flows.flow import AdmittedFlow, FlowRequest
from repro.flows.traffic import TrafficModel, WorkloadSpec
from repro.network.faults import (
    FaultAwareReservationEngine,
    FaultInjector,
    FaultState,
)
from repro.network.topology import Network
from repro.sim.engine import Event, Simulator
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.sim.random_streams import StreamFactory
from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class FaultConfig:
    """Random link fail/repair behaviour for a simulation run.

    Enables the paper's Section 3 fault extension: cables alternate
    between up and down states with exponential holding times; flows
    crossing a failing cable are torn down, and new requests simply
    find those routes unreservable (retrial control then steers them
    to other group members).

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
        if self.mean_time_to_failure_s <= 0 or self.mean_time_to_repair_s <= 0:
            raise ValueError("failure and repair means must be positive")


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
        per-router selection dice) derive from it deterministically.
    batch_size:
        Batch size for the AP confidence interval.
    fault_config:
        Optional random link fail/repair behaviour.  Supported for the
        distributed systems; GDI's global path search would need
        fault-aware routing, which is out of the paper's scope.
    trace:
        Optional :class:`repro.sim.trace.TraceRecorder` capturing a
        per-request record of every decision in the measurement window.
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
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        # Written so that NaN fails: an unbounded or NaN window would
        # never let the event loop reach its horizon.
        if not (0.0 <= warmup_s < math.inf and 0.0 < measure_s < math.inf):
            raise ValueError(
                "need finite warmup >= 0 and measure > 0, "
                f"got {warmup_s}, {measure_s}"
            )
        if fault_config is not None and system_spec.algorithm == "GDI":
            raise ValueError(
                "fault injection is supported for distributed systems only"
            )
        self.network = network_factory()
        self.system_spec = system_spec
        self.workload = workload
        self.warmup_s = warmup_s
        self.measure_s = measure_s
        self.horizon_s = warmup_s + measure_s
        self.seed = seed
        self.streams = StreamFactory(seed)
        self.simulator = Simulator()
        self.system: AdmissionSystem = build_system(
            system_spec,
            self.network,
            workload.sources,
            workload.group,
            self.streams,
            clock=lambda: self.simulator.now,
        )
        self.traffic = TrafficModel(workload, self.streams)
        self.metrics = MetricsCollector(
            clock=lambda: self.simulator.now, batch_size=batch_size
        )
        self.trace = trace
        self._active: dict[int, tuple[AdmittedFlow, Event]] = {}
        self.flows_dropped_by_faults = 0
        self.fault_state: Optional[FaultState] = None
        self._fault_injector: Optional[FaultInjector] = None
        if fault_config is not None:
            self.fault_state = FaultState(self.network)
            engine = FaultAwareReservationEngine(self.network, self.fault_state)
            # Every AC-router shares the fault-aware engine so failed
            # routes are refused like saturated ones.
            for source in workload.sources:
                controller = self.system.controller_for(source)
                assert isinstance(controller, ACRouter)  # GDI rejected above
                controller.reservation = engine
            self._fault_injector = FaultInjector(
                self.simulator,
                self.fault_state,
                self.streams.stream("faults"),
                mean_time_to_failure_s=fault_config.mean_time_to_failure_s,
                mean_time_to_repair_s=fault_config.mean_time_to_repair_s,
                cables=fault_config.cables,
                on_fail=self._handle_fault,
            )
        self._ran = False

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        request = self.traffic.next_request()
        if request.arrival_time > self.horizon_s:
            return
        self.simulator.schedule_at(
            request.arrival_time, lambda: self._handle_arrival(request)
        )

    def _handle_arrival(self, request: FlowRequest) -> None:
        self._schedule_next_arrival()
        result = self.system.admit(request)
        in_window = request.arrival_time >= self.warmup_s
        if in_window:
            self.metrics.record_decision(result)
            if self.trace is not None:
                self.trace.record(result)
        if result.admitted:
            assert result.flow is not None  # admitted implies a granted flow
            flow: AdmittedFlow = result.flow
            self.metrics.record_flow_start()
            departure = self.simulator.schedule(
                request.lifetime_s, lambda: self._handle_departure(flow)
            )
            self._active[flow.flow_id] = (flow, departure)

    def _handle_departure(self, flow: AdmittedFlow) -> None:
        self._active.pop(flow.flow_id, None)
        self.system.release(flow)
        self.metrics.record_flow_end()

    def _handle_fault(
        self, cable: tuple[NodeId, NodeId], killed_flow_ids: list[int]
    ) -> None:
        """Finish tearing down flows whose route crossed a failed cable."""
        for flow_id in killed_flow_ids:
            entry = self._active.pop(flow_id, None)
            if entry is None:
                continue
            flow, departure = entry
            departure.cancel()
            # The failed cable already dropped its legs; release the rest.
            controller = self.system.controller_for(flow.request.source)
            assert isinstance(controller, ACRouter)  # faults imply distributed
            controller.reservation.release(flow.path, flow_id)
            flow.released = True
            self.metrics.record_flow_end()
            self.flows_dropped_by_faults += 1

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the run and return its summary.

        A simulation object is single-use; build a new one per run.
        """
        if self._ran:
            raise RuntimeError("AnycastSimulation objects are single-use")
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


def run_simulation(
    network_factory: Callable[[], Network],
    system_spec: SystemSpec,
    workload: WorkloadSpec,
    warmup_s: float = 1000.0,
    measure_s: float = 4000.0,
    seed: int = 0,
) -> SimulationResult:
    """Convenience wrapper: build and run one :class:`AnycastSimulation`."""
    simulation = AnycastSimulation(
        network_factory=network_factory,
        system_spec=system_spec,
        workload=workload,
        warmup_s=warmup_s,
        measure_s=measure_s,
        seed=seed,
    )
    return simulation.run()
