#!/usr/bin/env python
"""Substrate microbenchmark runner with a committed perf baseline.

Measures the raw throughput of the simulation substrate — the event
engine (its binary heap of pending events), the link reservation hot
path, the WD/D+B bottleneck scan and the reduced-load fixed point —
and writes the numbers to ``BENCH_substrate.json`` so the performance
trajectory is tracked PR over PR.

Usage::

    PYTHONPATH=src python scripts/bench.py                 # run, print table
    PYTHONPATH=src python scripts/bench.py --check         # gate vs baseline
    PYTHONPATH=src python scripts/bench.py --update        # refresh baseline
    PYTHONPATH=src python scripts/bench.py --quick         # CI smoke sizes

``--check`` compares a fresh run against the ``after`` section of the
committed ``BENCH_substrate.json`` and exits non-zero if any metric
regresses by more than ``--tolerance`` (default 20 %).  ``--update``
rolls the current run into the baseline: the previous ``after``
becomes ``before`` so the file always shows one PR-over-PR step, and a
timestamped summary of the new run is appended to the file's
``history`` list so the full performance trajectory survives updates
instead of being overwritten.

Every benchmark uses fixed seeds and deterministic workloads; the only
nondeterminism is wall-clock noise, mitigated by taking the best of
``--repeats`` runs.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis.fixedpoint import ReducedLoadSolver, RouteLoad  # noqa: E402
from repro.core.system import SystemSpec  # noqa: E402
from repro.flows.group import AnycastGroup  # noqa: E402
from repro.flows.traffic import WorkloadSpec  # noqa: E402
from repro.network.routing import RouteTable  # noqa: E402
from repro.network.state import LiveBandwidthView  # noqa: E402
from repro.network.topologies import (  # noqa: E402
    MCI_GROUP_MEMBERS,
    MCI_SOURCES,
    mci_backbone,
)
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.simulation import AnycastSimulation  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "BENCH_substrate.json"


# ----------------------------------------------------------------------
# individual benchmarks: each returns (work_units, elapsed_seconds)
# ----------------------------------------------------------------------
def bench_engine_chain(n_events: int):
    """Serial chain: each event schedules the next (empty pending set)."""
    sim = Simulator()
    state = {"n": 0}

    def tick():
        state["n"] += 1
        if state["n"] < n_events:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert state["n"] == n_events
    return n_events, elapsed


def bench_engine_hold(n_events: int, population: int):
    """Constant-population timer churn: the loss-network access pattern.

    ``population`` timers are pending at all times (like active flows
    holding departure events); every fired event schedules its
    replacement at a random future offset.  Exercises push/pop against
    a deep pending set, where comparison cost dominates.
    """
    rng = random.Random(20010405)
    sim = Simulator()

    def tick():
        sim.schedule(rng.random() * 10.0 + 1e-6, tick)

    for _ in range(population):
        sim.schedule(rng.random() * 10.0, tick)
    start = time.perf_counter()
    sim.run(max_events=n_events)
    elapsed = time.perf_counter() - start
    assert sim.events_executed == n_events
    return n_events, elapsed


def bench_reserve_release(cycles: int):
    """Reserve+release churn of 100 flows over the longest MCI route."""
    network = mci_backbone()
    table = RouteTable(network, 9, MCI_GROUP_MEMBERS)
    route = max(table.routes(), key=lambda r: r.distance)
    links = route.resolve_links(network)
    start = time.perf_counter()
    for _ in range(cycles):
        for i in range(100):
            if not network.reserve_links(links, i, 64_000.0):
                raise RuntimeError("reservation unexpectedly refused")
        for i in range(100):
            for link in links:
                link.release(i)
    elapsed = time.perf_counter() - start
    # one work unit = one flow reserved and released across the route
    return cycles * 100, elapsed


def bench_bottleneck_scan(scans: int):
    """WD/D+B's per-admission work: bottleneck scan of every route."""
    network = mci_backbone()
    view = LiveBandwidthView(network)
    tables = [
        RouteTable(network, source, MCI_GROUP_MEMBERS) for source in MCI_SOURCES
    ]
    routes = [route for table in tables for route in table.routes()]
    # Put some occupancy on the links so the scan reads realistic state.
    for i, route in enumerate(routes):
        network.reserve_links(route.resolve_links(network), ("bench", i), 64_000.0)
    sink = 0.0
    start = time.perf_counter()
    for _ in range(scans):
        for route in routes:
            sink += view.route_available_bps(route)
    elapsed = time.perf_counter() - start
    assert sink > 0
    return scans * len(routes), elapsed


def _mci_solver_inputs():
    network = mci_backbone()
    capacities = {
        (link.source, link.target): int(link.capacity_bps // 64_000)
        for link in network.links()
    }
    routes = []
    for source in MCI_SOURCES:
        table = RouteTable(network, source, MCI_GROUP_MEMBERS)
        for route in table.routes():
            links = tuple(zip(route.path, route.path[1:]))
            routes.append(RouteLoad(links=links, load_erlangs=50.0))
    return capacities, routes


def bench_fixedpoint_grid(points: int):
    """Reduced-load fixed point over a whole offered-load grid.

    Uses the vectorized ``solve_grid`` when the solver provides it,
    falling back to one scalar ``solve`` per grid point — exactly the
    before/after comparison the tentpole targets.
    """
    capacities, routes = _mci_solver_inputs()
    scales = [0.25 + 5.75 * i / max(1, points - 1) for i in range(points)]
    solver = ReducedLoadSolver(capacities, routes)
    solve_grid = getattr(solver, "solve_grid", None)
    start = time.perf_counter()
    if solve_grid is not None:
        solutions = solve_grid(scales)
    else:
        solutions = []
        for scale in scales:
            scaled = [
                RouteLoad(links=r.links, load_erlangs=r.load_erlangs * scale)
                for r in routes
            ]
            solutions.append(ReducedLoadSolver(capacities, scaled).solve())
    elapsed = time.perf_counter() - start
    assert len(solutions) == points
    assert all(0.0 <= b <= 1.0 for s in solutions for b in s.link_blocking.values())
    return points, elapsed


def bench_signaling_overhead(measure_s: float, loss_rate: float):
    """Admitted flows per 1000 control-plane messages (chaos scenario).

    Unlike the other benchmarks this measures a *deterministic* cost
    ratio, not wall-clock throughput: the thunk returns (admitted *
    1000, total control messages), so the reported "rate" is admitted
    flows per kilomessage.  Higher is better — protocol changes that
    inflate PATH/RESV/TEAR/refresh traffic (or retransmit more than
    necessary) per admitted flow push it down, and the regression gate
    catches that with zero run-to-run noise.
    """
    from repro.experiments.chaos import ChaosConfig, ChaosSimulation

    workload = WorkloadSpec(
        arrival_rate=60.0,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        mean_lifetime_s=30.0,
    )
    simulation = ChaosSimulation(
        network_factory=mci_backbone,
        system_spec=SystemSpec("WD/D+B", retrials=2),
        workload=workload,
        chaos=ChaosConfig(loss_rate=loss_rate),
        warmup_s=5.0,
        measure_s=measure_s,
        seed=3,
    )
    result = simulation.run()
    control_messages = result.signaling_messages + result.refresh_messages
    assert result.admitted > 0 and control_messages > 0
    assert result.leaked_bps == 0.0
    return result.admitted * 1000, float(control_messages)


def bench_end_to_end(measure_s: float):
    """Events/sec of a complete WD/D+B run on the MCI backbone."""
    workload = WorkloadSpec(
        arrival_rate=180.0,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        mean_lifetime_s=30.0,
    )
    simulation = AnycastSimulation(
        network_factory=mci_backbone,
        system_spec=SystemSpec("WD/D+B", retrials=2),
        workload=workload,
        warmup_s=10.0,
        measure_s=measure_s,
        seed=3,
    )
    start = time.perf_counter()
    simulation.run()
    elapsed = time.perf_counter() - start
    return simulation.simulator.events_executed, elapsed


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _suite(quick: bool):
    """(name, unit, thunk) triples; sizes shrink under ``--quick``."""
    scale = 0.2 if quick else 1.0

    def n(x):
        return max(1, int(x * scale))

    return [
        ("engine_chain", "events/s", lambda: bench_engine_chain(n(50_000))),
        (
            "engine_hold_heap",
            "events/s",
            lambda: bench_engine_hold(n(100_000), 10_000),
        ),
        (
            "reserve_release",
            "flows/s",
            lambda: bench_reserve_release(n(200)),
        ),
        (
            "bottleneck_scan",
            "routes/s",
            lambda: bench_bottleneck_scan(n(2_000)),
        ),
        (
            "fixedpoint_grid",
            "points/s",
            lambda: bench_fixedpoint_grid(n(40)),
        ),
        (
            "end_to_end_wddb",
            "events/s",
            lambda: bench_end_to_end(10.0 if quick else 40.0),
        ),
        (
            "signaling_loss0",
            "admit/kmsg",
            lambda: bench_signaling_overhead(10.0 if quick else 40.0, 0.0),
        ),
        (
            "signaling_loss5",
            "admit/kmsg",
            lambda: bench_signaling_overhead(10.0 if quick else 40.0, 0.05),
        ),
    ]


def run_suite(quick: bool = False, repeats: int = 3) -> dict:
    """Run every benchmark ``repeats`` times; keep the best rate."""
    metrics = {}
    for name, unit, thunk in _suite(quick):
        best = 0.0
        work = 0
        for _ in range(repeats):
            units, elapsed = thunk()
            rate = units / elapsed if elapsed > 0 else float("inf")
            if rate > best:
                best = rate
                work = units
        metrics[name] = {
            "rate": best,
            "unit": unit,
            "work_units": work,
        }
        print(f"  {name:<22} {best:>14,.0f} {unit}", file=sys.stderr)
    return metrics


def speedups(before: dict, after: dict) -> dict:
    """Per-metric after/before ratios plus their geometric mean."""
    ratios = {}
    for name, entry in after.items():
        if name in before and before[name]["rate"] > 0:
            ratios[name] = entry["rate"] / before[name]["rate"]
    if ratios:
        ratios["geomean"] = math.exp(
            sum(math.log(r) for r in ratios.values()) / len(ratios)
        )
    return ratios


def _meta() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _history_entry(metrics: dict, ratios: dict) -> dict:
    """Compact timestamped summary of one ``--update`` run."""
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "rates": {name: entry["rate"] for name, entry in metrics.items()},
        "geomean_speedup": ratios.get("geomean"),
        "meta": _meta(),
    }


def check_regression(
    metrics: dict, baseline_path: Path, tolerance: float, quick: bool = False
) -> int:
    """Compare ``metrics`` to the committed baseline's matching section.

    Quick-mode rates are not comparable to full-size ones (smaller
    workloads shift the fixed-overhead ratio per metric), so quick
    runs check against the baseline's ``after_quick`` section and
    full runs against ``after``.
    """
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; nothing to check", file=sys.stderr)
        return 0
    baseline = json.loads(baseline_path.read_text())
    if quick:
        reference = baseline.get("after_quick", {})
        if not reference:
            print(
                "baseline has no quick-mode section (after_quick); "
                "re-run scripts/bench.py --update to record one",
                file=sys.stderr,
            )
            return 0
    else:
        reference = baseline.get("after", baseline.get("metrics", {}))
    failures = []
    for name, entry in reference.items():
        if name not in metrics:
            continue
        floor = entry["rate"] * (1.0 - tolerance)
        actual = metrics[name]["rate"]
        status = "ok" if actual >= floor else "REGRESSED"
        print(
            f"  {name:<22} baseline {entry['rate']:>14,.0f}  "
            f"now {actual:>14,.0f}  [{status}]",
            file=sys.stderr,
        )
        if actual < floor:
            failures.append(name)
    if failures:
        print(
            f"throughput regression >{tolerance:.0%} in: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on >tolerance regression vs the baseline",
    )
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument(
        "--update",
        action="store_true",
        help="roll this run into the baseline (previous after -> before)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE, help="baseline JSON path"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="also dump raw metrics JSON here"
    )
    args = parser.parse_args(argv)

    print("running substrate microbenchmarks...", file=sys.stderr)
    metrics = run_suite(quick=args.quick, repeats=args.repeats)

    if args.output is not None:
        args.output.write_text(
            json.dumps({"schema": 1, "metrics": metrics, "meta": _meta()}, indent=2)
            + "\n"
        )

    exit_code = 0
    if args.check:
        exit_code = check_regression(
            metrics, args.baseline, args.tolerance, quick=args.quick
        )

    if args.update and not args.quick:
        previous = {}
        if args.baseline.exists():
            previous = json.loads(args.baseline.read_text())
        before = previous.get("after", previous.get("metrics", {}))
        print("recording quick-mode reference for the CI gate...", file=sys.stderr)
        metrics_quick = run_suite(quick=True, repeats=args.repeats)
        ratios = speedups(before, metrics)
        document = {
            "schema": 2,
            "before": before,
            "after": metrics,
            "after_quick": metrics_quick,
            "speedup": ratios,
            "meta": _meta(),
            "history": previous.get("history", []) + [
                _history_entry(metrics, ratios)
            ],
        }
        args.baseline.write_text(json.dumps(document, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}", file=sys.stderr)
    elif args.update:
        print("--update ignored under --quick (partial workloads)", file=sys.stderr)

    if not args.check and not args.update and args.output is None:
        print(json.dumps({"metrics": metrics}, indent=2))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
