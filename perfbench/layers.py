"""Per-layer metrics and reconciliation of one traced run.

Counts come from the spans the tracer recorded at each layer boundary;
reconciliation compares them with the program's own counters, so a
wrapper that misses calls, or a span tree that does not nest, fails the
traced run instead of reporting a wrong split.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from tracer import LAYERS, SpanSummary, atomic_engines, signalled_routers


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def reconcile(sim: Any, summary: SpanSummary, run_s: float) -> list[str]:
    """Disagreements between the traced counts and the program's counters."""
    problems = []

    def expect(label: str, traced: float, program: float) -> None:
        if traced != program:
            problems.append(f"traced {label} {traced!r} != program's {program!r}")

    attempts = summary.count("reservation", "try_reserve")
    if signalled_routers(sim) is None:
        engines = atomic_engines(sim)
        expect("reservation attempts", attempts, sum(e.attempts for e in engines))
    else:
        # The signalled driver builds no atomic engine: none may be called.
        expect("reservation attempts", attempts, 0)
        counts = summary.signal
        messages = counts.messages + counts.tears
        expect("signalling messages", messages, sim.engine.total_messages)
        expect("channel sends", counts.sends, sim.channel.sent)
    expect("events", summary.events(), sim.simulator.events_executed)
    streams = [sim.streams.stream(n) for n in sim.streams.issued_names()]
    expect("rng draws", summary.count("rng"), sum(s.draws for s in streams))
    generated = summary.count("traffic", "next_request")
    expect("requests generated", generated, sim.traffic.generated_count)
    if summary.roots != 1 or summary.open_spans:
        problems.append(f"{summary.roots} root spans, {summary.open_spans} left open")
    if summary.min_self_s < 0.0:
        problems.append(f"negative self time {summary.min_self_s!r}: spans overlap")
    if abs(summary.total_self_s - run_s) > 1e-3 * run_s:
        problems.append(
            f"layer self times sum to {summary.total_self_s!r} s, "
            f"run() took {run_s!r} s"
        )
    return problems


def layer_metrics(
    sim: Any, summary: SpanSummary, decisions: int
) -> dict[str, float]:
    """The per-layer metrics ``BENCHMARK.json`` declares, for one traced run."""
    total = summary.total_self_s
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = summary.self_s[layer]
        values[f"{layer}.share"] = _ratio(summary.self_s[layer], total)

    def per_decision(count: int) -> float:
        return _ratio(count, decisions)

    values["rng.draws_per_decision"] = per_decision(summary.count("rng"))
    values["selection.calls_per_decision"] = per_decision(
        summary.count("selection", "select")
    )
    values["bwview.scans_per_decision"] = per_decision(summary.count("bwview"))

    attempts = summary.count("reservation", "try_reserve")
    signalled = signalled_routers(sim) is not None
    failures = 0 if signalled else sum(e.failures for e in atomic_engines(sim))
    values["reservation.attempts_per_decision"] = per_decision(attempts)
    values["reservation.grant_ratio"] = _ratio(attempts - failures, attempts)

    histogram = sim.metrics.attempt_histogram
    measured = sum(histogram.values())
    values["admission.retried_share"] = _ratio(
        sum(n for attempts_made, n in histogram.items() if attempts_made > 1), measured
    )
    # The driver's synchronous admit call.  On the signalled driver it
    # runs the first selection and launches the first PATH hop only.
    admit = (
        "signaling.SignalledACRouter.admit"
        if signalled
        else "admission.AdmissionSystem.admit"
    )
    decision_us = summary.durations(admit) * 1e6
    values["admission.decision_us_p50"] = _percentile(decision_us, 50)
    values["admission.decision_us_p99"] = _percentile(decision_us, 99)

    values["metrics.calls_per_decision"] = per_decision(summary.count("metrics"))

    values["engine.events_per_decision"] = per_decision(summary.events())
    values["engine.schedules_per_decision"] = per_decision(
        summary.count("engine", "schedule") + summary.count("engine", "schedule_at")
    )
    values["engine.pending_p50"] = _percentile(summary.pending, 50)
    values["engine.pending_max"] = _percentile(summary.pending, 100)

    counts = summary.signal
    values["signaling.messages_per_decision"] = per_decision(
        counts.messages + counts.tears
    )
    values["signaling.retransmissions_per_decision"] = per_decision(
        counts.retransmissions
    )
    values["signaling.timeouts_per_decision"] = per_decision(counts.timeouts)
    if signalled:
        channel = sim.channel
        values["signaling.drop_ratio"] = _ratio(channel.dropped, channel.sent)
        values["signaling.orphans_collected"] = float(sim.leases.orphans_collected)
    else:
        values["signaling.drop_ratio"] = 0.0
        values["signaling.orphans_collected"] = 0.0
    return values
