"""Span tracer for the traced benchmark run.

The traced run attributes wall time to the layers of the paper's
Figure 1 loop without changing the program.  It replaces public methods
on the objects the benchmark builds with wrappers that open a span, and
it wraps ``schedule``/``schedule_at`` on the benchmark's own simulator so
that every dispatched event becomes a span of the layer whose module
defines the callback.  This is how RSVP hops, channel deliveries and
lease sweeps, which no public call reaches, are attributed.

Spans live in flat in-memory arrays while the run executes and are
written out once it ends.  A span's self time is its duration minus the
durations of its child spans, so the self times of all spans add up to
the duration of the root span, the driver's ``run()``.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Layer of each program module (``repro.`` prefix dropped).  Event
#: callbacks defined anywhere else -- the drivers' private handlers in
#: ``sim.simulation`` and ``experiments.chaos`` -- count as engine glue.
MODULE_LAYERS = {
    "flows.traffic": "traffic",
    "sim.random_streams": "rng",
    "core.selection": "selection",
    "network.state": "bwview",
    "core.reservation": "reservation",
    "network.topology": "reservation",
    "core.admission": "admission",
    "core.system": "admission",
    "core.retrial": "admission",
    "sim.metrics": "metrics",
    "sim.stats": "metrics",
    "sim.engine": "engine",
    "signaling.rsvp": "signaling",
    "signaling.channel": "signaling",
    "signaling.softstate": "signaling",
    "signaling.admission": "signaling",
}

LAYERS = (
    "traffic",
    "rng",
    "selection",
    "bwview",
    "reservation",
    "admission",
    "metrics",
    "engine",
    "signaling",
)

RNG_METHODS = ("exponential", "uniform", "integer", "choice", "weighted_choice")


def module_of(callback: Callable[..., Any]) -> str:
    """The module that defines ``callback``, without the ``repro.`` prefix."""
    function = getattr(callback, "__func__", callback)
    return (getattr(function, "__module__", None) or "").removeprefix("repro.")


class SignalCounts:
    """Signalling work seen at the traced boundaries, for reconciliation."""

    def __init__(self) -> None:
        self.messages = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.sends = 0
        self.tears = 0


class Tracer:
    """Records nested spans; one instance per traced simulation run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pending = array("i")
        self.signal = SignalCounts()
        self._stack = [-1]
        self._spans: dict[str, np.ndarray] = {}

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that every call records one span ``name``."""
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def patch(self, obj: Any, layer: str, methods: tuple[str, ...]) -> None:
        """Replace ``obj``'s bound ``methods`` by traced instance attributes."""
        cls = type(obj).__name__
        for method in methods:
            original = getattr(obj, method)
            setattr(obj, method, self.wrap(f"{layer}.{cls}.{method}", original))

    # ------------------------------------------------------------------
    # instrumenting the benchmark's simulation objects
    # ------------------------------------------------------------------
    def instrument(self, sim: Any) -> None:
        """Wrap the public calls of a freshly built simulation object."""
        self._trace_simulator(sim.simulator)
        sim.run = self.wrap("engine.driver.run", sim.run)
        self.patch(sim.simulator, "engine", ("run",))
        self.patch(sim.traffic, "traffic", ("next_request",))
        for stream_name in sim.streams.issued_names():
            self.patch(sim.streams.stream(stream_name), "rng", RNG_METHODS)
        self.patch(
            sim.metrics,
            "metrics",
            (
                "record_decision",
                "record_flow_start",
                "record_flow_end",
                "admission_probability_ci",
                "per_source_ap",
                "fairness_index",
            ),
        )
        self.patch(
            sim.network,
            "reservation",
            ("reserve_links", "release_path", "total_reserved_bps"),
        )
        routers = signalled_routers(sim)
        if routers is None:
            routers = atomic_routers(sim)
            self.patch(sim.system, "admission", ("admit", "release"))
            for router in routers:
                self.patch(router, "admission", ("admit", "release"))
            for engine in atomic_engines(sim):
                self.patch(engine, "reservation", ("try_reserve", "release"))
        else:
            for router in routers:
                self.patch(router, "signaling", ("admit", "release"))
            self._trace_signalling(sim)
        for router in routers:
            self.patch(router.selector, "selection", ("select", "weights", "observe"))
            view = getattr(router.selector, "view", None)
            if view is not None:
                self.patch(view, "bwview", ("route_available_bps",))
            self.patch(router.retrial_policy, "admission", ("should_retry",))

    def _trace_simulator(self, simulator: Any) -> None:
        schedule, schedule_at = simulator.schedule, simulator.schedule_at
        pending = self.pending
        event_names: dict[str, str] = {}

        def event(callback: Callable[[], Any]) -> Callable[[], Any]:
            module = module_of(callback)
            name = event_names.get(module)
            if name is None:
                layer = MODULE_LAYERS.get(module, "engine")
                name = event_names[module] = f"{layer}.event.{module}"
            return self.wrap(name, callback)

        def traced_schedule(delay: float, callback: Callable[[], Any]) -> Any:
            pending.append(simulator.pending_count)
            return schedule(delay, event(callback))

        def traced_schedule_at(when: float, callback: Callable[[], Any]) -> Any:
            pending.append(simulator.pending_count)
            return schedule_at(when, event(callback))

        simulator.schedule = self.wrap("engine.Simulator.schedule", traced_schedule)
        simulator.schedule_at = self.wrap(
            "engine.Simulator.schedule_at", traced_schedule_at
        )

    def _trace_signalling(self, sim: Any) -> None:
        counts = self.signal
        engine, channel = sim.engine, sim.channel
        reserve, send = engine.reserve, channel.send

        def counted_reserve(
            route: Any, key: Any, bps: float, on_complete: Callable[[Any], None]
        ) -> None:
            def completed(outcome: Any) -> None:
                counts.messages += outcome.messages
                counts.retransmissions += outcome.retransmissions
                counts.timeouts += int(outcome.timed_out)
                on_complete(outcome)

            reserve(route, key, bps, completed)

        def counted_send(delay: float, deliver: Callable[[], None]) -> None:
            # TEAR transmissions are charged to the engine outside any
            # attempt outcome; they are the sends of a tear sweep.
            counts.sends += 1
            if "Tear" in getattr(deliver, "__qualname__", ""):
                counts.tears += 1
            send(delay, deliver)

        engine.reserve = self.wrap(
            "signaling.SignalledReservationEngine.reserve", counted_reserve
        )
        channel.send = self.wrap("signaling.SignalingChannel.send", counted_send)
        self.patch(engine, "signaling", ("release",))
        self.patch(sim.leases, "signaling", ("register", "refresh", "drop_link"))
        self.patch(engine.retransmit, "signaling", ("timeout",))
        self.patch(engine.retransmit.backoff, "admission", ("timeout",))

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyse(self) -> "SpanSummary":
        """Self time per layer and span counts per name, as of now.

        The spans recorded so far are copied, so that calls made after
        the run (the atomic driver's drain) change neither this summary
        nor what :meth:`write` stores.
        """
        self._spans = {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }
        pending = np.array(self.pending, dtype=np.int32)
        return SpanSummary(self.names, self._spans, pending, self.signal)

    def write(self, path: Path) -> None:
        """Write the analysed spans, times relative to the first, to ``path``."""
        spans = self._spans
        origin = spans["start"][0] if len(spans["start"]) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=spans["name"],
            parent=spans["parent"],
            start=spans["start"] - origin,
            end=spans["end"] - origin,
        )


class SpanSummary:
    """Per-layer self time and per-name counts of one traced run."""

    def __init__(
        self,
        names: list[str],
        spans: dict[str, np.ndarray],
        pending: np.ndarray,
        signal: SignalCounts,
    ) -> None:
        self.names = list(names)
        self.signal = signal
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        children = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        self_time = duration - children
        layer_index = np.array(
            [LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64
        )
        span_layer = layer_index[name] if len(name) else np.zeros(0, dtype=np.int64)
        by_layer = np.bincount(span_layer, weights=self_time, minlength=len(LAYERS))
        self.self_s = {layer: float(by_layer[i]) for i, layer in enumerate(LAYERS)}
        self.total_self_s = float(self_time.sum())
        self.roots = int((~nested).sum())
        self.open_spans = int((spans["end"] == 0.0).sum())
        self.min_self_s = float(self_time.min()) if len(self_time) else 0.0
        counts = np.bincount(name, minlength=len(names))
        self.counts = {n: int(counts[i]) for i, n in enumerate(names)}
        self._name = name
        self._duration = duration
        self.pending = pending

    def count(self, layer: str, method: str = "") -> int:
        """Spans of ``layer`` (whose name ends in ``.method`` if given)."""
        return sum(
            c
            for n, c in self.counts.items()
            if n.split(".", 1)[0] == layer and (not method or n.endswith("." + method))
        )

    def events(self) -> int:
        """Dispatched event callbacks, over every layer."""
        return sum(c for n, c in self.counts.items() if n.split(".")[1] == "event")

    def durations(self, name: str) -> np.ndarray:
        """Durations (s) of the spans called ``name``."""
        if name not in self.names:
            return np.zeros(0)
        return self._duration[self._name == self.names.index(name)]


def signalled_routers(sim: Any) -> "list[Any] | None":
    """The signalled driver's routers, or ``None`` for the atomic driver."""
    routers = getattr(sim, "routers", None)
    return None if routers is None else list(routers.values())


def atomic_routers(sim: Any) -> list[Any]:
    """The atomic driver's AC-routers, one per source."""
    return [sim.system.controller_for(source) for source in sim.workload.sources]


def atomic_engines(sim: Any) -> list[Any]:
    """The distinct atomic reservation engines the AC-routers share."""
    engines: dict[int, Any] = {}
    for router in atomic_routers(sim):
        engines.setdefault(id(router.reservation), router.reservation)
    return list(engines.values())
