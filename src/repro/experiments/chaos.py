"""Chaos scenario: admission control over an unreliable signalling plane.

The paper's DAC protocol negotiates admission hop-by-hop over
PATH/RESV signalling but is evaluated under perfectly reliable
delivery.  This scenario measures what a deployed controller would
face: control messages are dropped, delayed and duplicated by a
:class:`repro.signaling.channel.SignalingChannel`, senders recover
with per-hop timeouts, exponential backoff and a retransmission cap,
and reservations are soft state — leases refreshed by their owners,
with a garbage collector reclaiming the orphans left by lost
``Resv``/``Tear`` messages.

:func:`chaos_sweep` runs one system across a grid of loss rates;
:func:`chaos_figure` produces the paper-style summary (blocking
probability and mean signalled admission latency versus loss rate for
``<ED,2>`` against ``<WD/D+B,2>``).  Every run drains its event
calendar to completion and reports the bandwidth still reserved
afterwards — the headline robustness invariant is that this is zero:
whatever the loss rate, leases guarantee no reservation outlives its
flow by more than a TTL.

Determinism: each impairment and the backoff jitter draw from
dedicated named streams, so two runs with the same seed are
bit-identical, and disabling the impairments restores the exact event
sequence of a perfectly reliable plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Hashable, Optional

from repro import invariants as _invariants
from repro.core.retrial import CounterRetrialPolicy, ExponentialBackoff
from repro.core.selection import SelectionContext
from repro.core.system import SystemSpec, build_selector
from repro.experiments.config import ExperimentConfig, quick_config
from repro.experiments.figures import FigureResult
from repro.flows.flow import AdmittedFlow, FlowRequest
from repro.flows.traffic import TrafficModel, WorkloadSpec
from repro.network.routing import RouteTable
from repro.network.topology import Network
from repro.signaling.admission import SignalledACRouter, SignalledAdmissionResult
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.signaling.rsvp import (
    DEFAULT_PROCESSING_DELAY_S,
    SignalledReservationEngine,
)
from repro.signaling.softstate import LeaseTable
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.random_streams import StreamFactory

NodeId = Hashable

#: Loss rates swept by the default chaos figure.
DEFAULT_LOSS_RATES: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.2)

#: Systems contrasted by the chaos figure: the blind baseline vs the
#: bandwidth-informed selector, both with one retrial.
CHAOS_SPECS: tuple[SystemSpec, ...] = (
    SystemSpec("ED", retrials=2),
    SystemSpec("WD/D+B", retrials=2),
)


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

    @property
    def messages_per_admitted(self) -> float:
        """Control-plane messages (incl. refreshes) per admitted flow."""
        if self.admitted == 0:
            return 0.0
        return (self.signaling_messages + self.refresh_messages) / self.admitted


class ChaosSimulation:
    """One run of the admission model over an unreliable plane.

    The signalled twin of
    :class:`repro.sim.simulation.AnycastSimulation`: the same Poisson
    arrival / exponential lifetime dynamics, but every admission runs
    the full PATH/RESV exchange through the impaired channel, admitted
    flows refresh their leases, and departures tear down through the
    same lossy channel.  Only distributed systems are supported (GDI
    has no signalling plane to impair), and only with always-fresh
    bandwidth views (``bandwidth_refresh_s`` must be 0).
    """

    def __init__(
        self,
        network_factory: Callable[[], Network],
        system_spec: SystemSpec,
        workload: WorkloadSpec,
        chaos: ChaosConfig,
        warmup_s: float = 200.0,
        measure_s: float = 800.0,
        seed: int = 0,
        batch_size: int = 200,
    ) -> None:
        # Written so that NaN fails: an unbounded or NaN window would
        # never let the event loop reach its horizon.
        if not (0.0 <= warmup_s < math.inf and 0.0 < measure_s < math.inf):
            raise ValueError(
                "need finite warmup >= 0 and measure > 0, "
                f"got {warmup_s}, {measure_s}"
            )
        if not system_spec.is_distributed:
            raise ValueError("chaos scenario needs a distributed system (not GDI)")
        if system_spec.bandwidth_refresh_s > 0:
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
        self.engine = SignalledReservationEngine(
            self.simulator,
            self.network,
            processing_delay_s=chaos.processing_delay_s,
            channel=self.channel,
            retransmit=RetransmitPolicy(backoff, chaos.max_retransmits),
            leases=self.leases,
        )
        self.routers: dict[NodeId, SignalledACRouter] = {}
        for source in workload.sources:
            routes = RouteTable(self.network, source, workload.group.members)
            context = SelectionContext(
                network=self.network, routes=routes, group=workload.group
            )
            self.routers[source] = SignalledACRouter(
                self.network,
                source,
                workload.group,
                build_selector(system_spec, context),
                CounterRetrialPolicy(system_spec.effective_retrials),
                rng=self.streams.stream(f"select.{source}"),
                engine=self.engine,
                resample_failed=system_spec.resample_failed,
            )
        self.traffic = TrafficModel(workload, self.streams)
        self.metrics = MetricsCollector(
            clock=lambda: self.simulator.now, batch_size=batch_size
        )
        self._decision_latency_total = 0.0
        self._decisions_in_window = 0
        self.refresh_messages = 0
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
        router = self.routers[request.source]
        router.admit(
            request, lambda decision: self._handle_decision(request, decision)
        )

    def _handle_decision(
        self, request: FlowRequest, decision: SignalledAdmissionResult
    ) -> None:
        if request.arrival_time >= self.warmup_s:
            self.metrics.record_decision(decision.result)
            self._decision_latency_total += decision.latency_s
            self._decisions_in_window += 1
        if decision.admitted:
            flow = decision.result.flow
            assert flow is not None  # admitted implies a granted flow
            self.metrics.record_flow_start()
            key = decision.reservation_key
            departure = self.simulator.schedule(
                request.lifetime_s,
                lambda: self._handle_departure(flow, key, refreshes),
            )
            # Bound here, long before the departure reads it.
            refreshes = self._hold_lease(key, departure.time)

    def _hold_lease(self, key: Hashable, departure_at: float) -> int:
        """Hold ``key``'s lease for its flow's refreshes; return their count.

        The source refreshes every ``refresh_interval_s`` from admission
        on.  Refreshes are modelled as reliable (their Path/Resv pair is
        charged to the message totals but not dropped) and draw no
        random numbers, so the admission time, the interval and the
        departure fix the whole chain.  The tick times accumulate as
        repeated ``schedule(interval)`` calls would place them, and a
        departure at the same instant as a tick wins the tie (it is the
        earlier-scheduled event), so only ticks strictly before it
        refresh.
        """
        interval = float(self.chaos.refresh_interval_s)
        first = last = self.simulator.now + interval
        if first >= departure_at:
            return 0
        refreshes = 1
        while last + interval < departure_at:
            last += interval
            refreshes += 1
        self.leases.hold(key, first, last)
        return refreshes

    def _handle_departure(
        self, flow: AdmittedFlow, key: Hashable, refreshes: int
    ) -> None:
        # A lease collected before the first refresh (signalling slower
        # than TTL - interval) was never refreshed: its owner found it
        # gone and stopped.  A lease alive at the first refresh lives on.
        if refreshes and key in self.leases:
            self.refresh_messages += 2 * refreshes * max(0, len(flow.path) - 1)
        router = self.routers[flow.request.source]
        router.release(flow)
        self.metrics.record_flow_end()

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> ChaosResult:
        """Execute the run, drain the calendar, and summarize.

        A simulation object is single-use; build a new one per run.
        """
        if self._ran:
            raise RuntimeError("ChaosSimulation objects are single-use")
        self._ran = True
        self.simulator.schedule_at(self.warmup_s, self.metrics.active_flows.reset)
        self._schedule_next_arrival()
        self.simulator.run(until=self.horizon_s)
        # Drain: arrivals have stopped; in-flight admissions decide,
        # departures tear down (lost TEARs strand orphans), leases
        # expire and the collector self-quiesces, so the unbounded run
        # terminates with an empty calendar.
        self.simulator.run()
        leaked = self.network.total_reserved_bps()
        if _invariants.enabled:
            _invariants.check_network(self.network)
            _invariants.check_soft_state(self.network, self.leases)
            _invariants.check_drained(self.network)
        mean_latency = (
            self._decision_latency_total / self._decisions_in_window
            if self._decisions_in_window
            else 0.0
        )
        return ChaosResult(
            system_label=self.system_spec.label,
            loss_rate=self.chaos.loss_rate,
            arrival_rate=self.workload.arrival_rate,
            requests=self.metrics.requests,
            admitted=self.metrics.admitted,
            admission_probability=self.metrics.admission_probability,
            mean_attempts=self.metrics.mean_attempts,
            mean_admission_latency_s=mean_latency,
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


def run_chaos_point(
    spec: SystemSpec,
    arrival_rate: float,
    config: ExperimentConfig,
    chaos: ChaosConfig,
) -> ChaosResult:
    """One system at one arrival rate under one impairment setting."""
    simulation = ChaosSimulation(
        network_factory=config.network_factory(),
        system_spec=spec,
        workload=config.workload(arrival_rate),
        chaos=chaos,
        warmup_s=config.warmup_s,
        measure_s=config.measure_s,
        seed=config.seed,
    )
    return simulation.run()


def chaos_sweep(
    spec: SystemSpec,
    loss_rates: tuple[float, ...],
    config: ExperimentConfig,
    chaos: ChaosConfig,
    arrival_rate: float,
) -> tuple[ChaosResult, ...]:
    """Sweep ``spec`` over the loss-rate grid (single replication).

    Every point reuses the same seed, so the arrival process and
    selection dice are common random numbers across loss rates — the
    degradation curve measures the impairments, not sampling noise.
    """
    return tuple(
        run_chaos_point(spec, arrival_rate, config, replace(chaos, loss_rate=loss))
        for loss in loss_rates
    )


def chaos_figure(
    config: Optional[ExperimentConfig] = None,
    loss_rates: tuple[float, ...] = DEFAULT_LOSS_RATES,
    chaos: Optional[ChaosConfig] = None,
    arrival_rate: Optional[float] = None,
) -> FigureResult:
    """Blocking probability and admission latency vs loss rate.

    Contrasts ``<ED,2>`` with ``<WD/D+B,2>`` (the paper's blind vs
    bandwidth-informed endpoints) at one arrival rate — the middle of
    ``config.arrival_rates`` unless given — under increasing Bernoulli
    loss.  Two series per system: ``"<label> blocking"`` and
    ``"<label> latency_ms"``.
    """
    config = config if config is not None else quick_config()
    chaos = chaos if chaos is not None else ChaosConfig()
    if arrival_rate is None:
        rates = config.arrival_rates
        arrival_rate = float(rates[len(rates) // 2])
    series: dict[str, list[float]] = {}
    sweeps: list[tuple[ChaosResult, ...]] = []
    for spec in CHAOS_SPECS:
        results = chaos_sweep(spec, loss_rates, config, chaos, arrival_rate)
        sweeps.append(results)
        series[f"{spec.label} blocking"] = [
            round(r.blocking_probability, 6) for r in results
        ]
        series[f"{spec.label} latency_ms"] = [
            round(r.mean_admission_latency_s * 1e3, 4) for r in results
        ]
    return FigureResult(
        figure_id="figchaos",
        title=(
            "Blocking probability and signalled admission latency vs "
            f"signalling loss rate @ lambda={arrival_rate:g}/s"
        ),
        x_values=tuple(loss_rates),
        series=series,
        sweeps=tuple(sweeps),
    )
