#!/usr/bin/env python3
"""Decisions-per-second benchmark of the anycast admission-control model.

The unit of work is one admission decision: a Poisson request running
the Figure 1 loop (select, reserve, retry) on the MCI backbone with the
paper's sources, group, 180 s lifetimes and 64 kb/s flows.  A run builds
a fresh simulation object for the workload, runs a fixed simulated
horizon, checks the outputs and repeats for ``--seconds`` of wall time;
``decisions_per_s`` is the upper quartile of the repetitions' rates and
``setup_s`` the median of its samples, both scaled to a reference host
speed (``perfbench/hostspeed.py``).  Everything runs in
this one process on one thread.  ``perfbench/README.md`` explains the
workloads and the per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload atomic_wddb_mci_l50 --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; progress goes to standard error.

``--record-digests`` re-records ``perfbench/digests.json``, the exact
outcome of every workload at the recorded seed.  Only a change that
intends to alter what the model computes should need it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from hostspeed import REFERENCE_S, reference_loop
from layers import layer_metrics, reconcile
from tracer import Tracer, atomic_routers, signalled_routers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "out"

#: Seed whose exact outcome is stored in ``digests.json``.
RECORDED_SEED = 3
#: Simulated horizon of every run: warm-up plus measurement window.
#: 400 s is long enough for the atomic workloads to settle near their
#: steady-state occupancy (about 3.8k concurrent flows at 50 req/s).
WARMUP_S = 200.0
MEASURE_S = 200.0
#: Extra constructions before each timed run that only time the set-up.
SETUP_SAMPLES = 5
#: Host speed reference passes before each timed run (about 30 ms each).
REFERENCE_SAMPLES = 6
#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a system, a driver and an offered load."""

    name: str
    signalled: bool
    algorithm: str
    retrials: int
    arrival_rate: float
    loss_rate: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("atomic_wddb_mci_l50", False, "WD/D+B", 2, 50.0),
        Workload("atomic_ed5_mci_l50", False, "ED", 5, 50.0),
        Workload("signalled_wddb_mci_loss5", True, "WD/D+B", 2, 35.0, loss_rate=0.05),
    )
}


def load_program() -> None:
    """Put the checkout's ``src/`` on the import path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    from repro import invariants

    # The sanitizer changes the cost of every reservation; the checks
    # below call it explicitly, outside the timed region.
    invariants.set_enabled(False)


def constructor(workload: Workload, seed: int) -> Callable[[], Any]:
    """Zero-argument builder of the workload's simulation object."""
    from repro.core.system import SystemSpec
    from repro.experiments.chaos import ChaosConfig, ChaosSimulation
    from repro.flows.group import AnycastGroup
    from repro.flows.traffic import WorkloadSpec
    from repro.network.topologies import MCI_GROUP_MEMBERS, MCI_SOURCES, mci_backbone
    from repro.sim.simulation import AnycastSimulation

    spec = SystemSpec(workload.algorithm, retrials=workload.retrials)
    traffic = WorkloadSpec(
        arrival_rate=workload.arrival_rate,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
    )
    common = dict(warmup_s=WARMUP_S, measure_s=MEASURE_S, seed=seed)
    if workload.signalled:
        chaos = ChaosConfig(loss_rate=workload.loss_rate)
        return lambda: ChaosSimulation(mci_backbone, spec, traffic, chaos, **common)
    return lambda: AnycastSimulation(mci_backbone, spec, traffic, **common)


def routers(sim: Any) -> list[Any]:
    """The admission routers of either driver."""
    found = signalled_routers(sim)
    return atomic_routers(sim) if found is None else found


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------
class DecisionLog:
    """Records which requests were offered and decided (checked runs only).

    Wraps the driver's admit calls on one simulation object, so it is
    attached only to the untimed runs that verify exactly-once decisions.
    """

    def __init__(self, sim: Any) -> None:
        self.started: list[int] = []
        self.decided: list[int] = []
        signalled = signalled_routers(sim)
        if signalled is None:
            admit = sim.system.admit

            def admit_logged(request: Any, now: Optional[float] = None) -> Any:
                self.started.append(request.flow_id)
                result = admit(request, now=now)
                self.decided.append(request.flow_id)
                return result

            sim.system.admit = admit_logged
            return
        for router in signalled:
            router.admit = self._logged(router.admit)

    def _logged(self, admit: Callable[..., None]) -> Callable[..., None]:
        def admit_logged(request: Any, on_decision: Callable[[Any], None]) -> None:
            self.started.append(request.flow_id)

            def decided(decision: Any) -> None:
                self.decided.append(request.flow_id)
                on_decision(decision)

            admit(request, decided)

        return admit_logged

    def problems(self, offered: int) -> list[str]:
        """Every offered request must start and finish exactly one decision."""
        expected = list(range(offered))
        found = []
        for what, ids in (("started", self.started), ("made", self.decided)):
            if sorted(ids) != expected:
                found.append(f"{len(ids)} decisions {what} for {offered} requests")
        return found


def check_run(sim: Any, result: Any) -> list[str]:
    """Post-run checks shared by every run; drains the atomic driver."""
    from repro import invariants

    problems = []
    # The generator draws one request past the horizon that is never offered.
    offered = sim.traffic.generated_count - 1
    decisions = sum(router.requests_seen for router in routers(sim))
    if decisions != offered:
        problems.append(f"{decisions} admit calls for {offered} offered requests")
    if signalled_routers(sim) is not None:
        if result.leaked_bps != 0.0:
            problems.append(f"signalled run leaked {result.leaked_bps!r} bps")
    else:
        sim.simulator.run()  # drain the departures, outside the timed region
        reserved = sim.network.total_reserved_bps()
        if reserved != 0.0 or sim.simulator.pending_count:
            problems.append(f"{reserved!r} bps still reserved after the drain")
    try:
        invariants.check_network(sim.network)
        invariants.check_drained(sim.network)
    except invariants.InvariantViolation as error:
        problems.append(f"invariant violated: {error}")
    return problems


def outcome(sim: Any, result: Any) -> dict[str, Any]:
    """What the model computed; must repeat exactly for a given seed."""
    if signalled_routers(sim) is not None:
        messages = result.signaling_messages + result.refresh_messages
    else:
        # No control plane: count the atomic engine's hop-level checks
        # (link grants plus refusals), one PATH message per hop probed.
        messages = sum(link.grants + link.rejections for link in sim.network.links())
    return {
        "admission_probability": result.admission_probability,
        "requests": result.requests,
        "admitted": result.admitted,
        "attempt_histogram": {
            str(k): v for k, v in sorted(sim.metrics.attempt_histogram.items())
        },
        "control_messages": messages,
    }


# ----------------------------------------------------------------------
# one simulation run
# ----------------------------------------------------------------------
@dataclass
class Run:
    """Timings, outcome and problems of one simulation run."""

    setup_s: float
    run_s: float
    decisions: int
    outcome: dict[str, Any]
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    label: str = ""


def simulate(
    make: Callable[[], Any], log: bool = False, tracer: Optional[Tracer] = None
) -> Run:
    """Build, run and check one simulation object.

    Only the constructor call and ``run()`` are timed.  Garbage left by
    the previous run is collected before each, so one run's heap does
    not bill the next.
    """
    gc.collect()
    start = time.perf_counter()
    sim = make()
    setup_s = time.perf_counter() - start
    decision_log = DecisionLog(sim) if log else None
    if tracer is not None:
        tracer.instrument(sim)
    gc.collect()
    start = time.perf_counter()
    result = sim.run()
    run_s = time.perf_counter() - start
    decisions = sum(router.requests_seen for router in routers(sim))
    run = Run(setup_s, run_s, decisions, outcome(sim, result))
    if tracer is not None:
        # Before the checks: the atomic drain would add spans of its own.
        summary = tracer.analyse()
        run.problems += reconcile(sim, summary, run_s)
        run.layers = layer_metrics(sim, summary, decisions)
    run.problems += check_run(sim, result)
    if decision_log is not None:
        run.problems += decision_log.problems(sim.traffic.generated_count - 1)
    return run


def time_setup(make: Callable[[], Any]) -> float:
    """Wall time of one constructor call on a collected heap."""
    gc.collect()
    start = time.perf_counter()
    make()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# a benchmark run
# ----------------------------------------------------------------------
class Session:
    """The simulation runs of one benchmark invocation.

    A run that raises or fails a check is a failed operation.  The
    determinism and digest checks add their findings to the runs they
    compare, so no run is counted twice.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.make = constructor(workload, seed)
        #: finished runs of the measured seed, in order
        self.measured: list[Run] = []
        #: the recorded seed's run, when the measured seed is another
        self.recorded: list[Run] = []
        self.crashed = 0

    @property
    def attempted(self) -> int:
        return self.crashed + len(self.measured) + len(self.recorded)

    @property
    def failed(self) -> int:
        runs = self.measured + self.recorded
        return self.crashed + sum(bool(run.problems) for run in runs)

    def run(
        self, label: str, make: Optional[Callable[[], Any]] = None, **kwargs: Any
    ) -> Optional[Run]:
        """One checked simulation run, of the measured seed unless ``make`` is given."""
        try:
            run = simulate(make or self.make, **kwargs)
        except Exception:
            traceback.print_exc()
            self.crashed += 1
            return None
        run.label = label
        (self.measured if make is None else self.recorded).append(run)
        print(
            f"perfbench: {label}: {run.decisions} decisions in {run.run_s:.3f} s "
            f"({run.decisions / run.run_s:,.0f}/s), set-up {run.setup_s * 1e3:.2f} ms",
            file=sys.stderr,
        )
        return run

    def repeat(
        self,
        label: str,
        seconds: float,
        least: int,
        before: Callable[[], None] = lambda: None,
        **kwargs: Any,
    ) -> list[Run]:
        """Runs on the measured seed until ``seconds`` have passed."""
        runs = []
        start = time.perf_counter()
        while len(runs) < least or time.perf_counter() - start < seconds:
            before()
            run = self.run(f"{label} {len(runs) + 1}", **kwargs)
            if run is None:
                break
            runs.append(run)
        return runs

    def finish(self) -> None:
        """Check determinism and the stored digest, then report problems.

        Every run of the measured seed must compute the outcome of the
        first, and the recorded seed must reproduce ``digests.json``.
        """
        if self.seed != RECORDED_SEED:
            self.run(
                f"recorded seed {RECORDED_SEED}",
                make=constructor(self.workload, RECORDED_SEED),
                log=True,
            )
        for run in self.measured[1:]:
            if run.outcome != self.measured[0].outcome:
                run.problems.append("outcome differs from the first run of this seed")
        stored = json.loads(DIGESTS.read_text())["workloads"].get(self.workload.name)
        for run in self.measured if self.seed == RECORDED_SEED else self.recorded:
            if run.outcome != stored:
                run.problems.append(f"outcome {run.outcome} != stored {stored}")
        for run in self.measured + self.recorded:
            for problem in run.problems:
                print(f"perfbench: {run.label}: {problem}", file=sys.stderr)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def upper_quartile(values: list[float]) -> float:
    """Third quartile, interpolated between the observed values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(session: Session, seconds: float) -> dict[str, float]:
    """Untimed checked run, then timed runs with samples between them.

    Before every timed run, and after the last, a block of set-up
    samples and host speed reference passes (``hostspeed``) is taken.
    The host changes speed every few seconds, so each timing is scaled
    by the passes measured next to it: a set-up sample by its block's
    median pass, a timed run by the mean of the two blocks around it.
    Contention from other tenants only ever slows a run down, so
    ``decisions_per_s`` is the upper quartile of the scaled rates (the
    faster runs measure the program, and no single lucky one sets the
    figure); ``setup_s`` is the median of the scaled set-up samples.
    """
    session.run("checked warm-up", log=True)
    blocks: list[tuple[list[float], list[float]]] = []

    def sample_host() -> None:
        setups = [time_setup(session.make) for _ in range(SETUP_SAMPLES)]
        blocks.append((setups, [reference_loop() for _ in range(REFERENCE_SAMPLES)]))

    runs = session.repeat("timed", seconds, MIN_REPS, before=sample_host)
    sample_host()  # bracket the last timed run too
    session.finish()
    measured = runs[0].outcome if runs else None
    # A slower host takes longer over the reference loop: scale up.
    slowdown = [median(passes) / REFERENCE_S for _, passes in blocks]
    setups = [
        setup / slowdown[i] for i, (samples, _) in enumerate(blocks) for setup in samples
    ]
    rates = [
        run.decisions / run.run_s * (slowdown[i] + slowdown[i + 1]) / 2
        for i, run in enumerate(runs)
    ]
    values = {
        "decisions_per_s": upper_quartile(rates),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "admission_probability": measured["admission_probability"] if measured else 0.0,
        "admitted_per_kmsg": (
            1000.0 * measured["admitted"] / measured["control_messages"]
            if measured and measured["control_messages"]
            else 0.0
        ),
    }
    return values


def per_layer(session: Session, seconds: float) -> dict[str, float]:
    """Untraced runs, then traced runs of the same seed, then the digest."""
    session.run("checked warm-up", log=True)
    plain = session.repeat("untraced", seconds / 2, 2)
    traced = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds / 2:
        tracer = Tracer()
        run = session.run(f"traced {len(traced) + 1}", tracer=tracer)
        if run is None:
            break
        traced.append(run)
        last_tracer = tracer
    session.finish()
    if traced:
        last_tracer.write(OUT_DIR / f"spans-{session.workload.name}.npz")
    values = {
        name: median([run.layers[name] for run in traced])
        for name in (traced[0].layers if traced else {})
    }
    values["trace.overhead"] = (
        median([run.run_s for run in traced]) / median([run.run_s for run in plain])
        if traced and plain
        else 0.0
    )
    return values


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def record_digests() -> None:
    """Re-record the exact outcome of every workload at the recorded seed."""
    digests = {}
    for name, workload in WORKLOADS.items():
        run = simulate(constructor(workload, RECORDED_SEED), log=True)
        if run.problems:
            sys.exit(f"perfbench: {name}: {run.problems}")
        digests[name] = run.outcome
    document = {
        "recorded_seed": RECORDED_SEED,
        "warmup_s": WARMUP_S,
        "measure_s": MEASURE_S,
        "workloads": digests,
    }
    DIGESTS.write_text(json.dumps(document, indent=2) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    load_program()
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    units = declared_metrics(bool(args.trace))
    session = Session(WORKLOADS[args.workload], args.seed)
    measure = per_layer if args.trace else end_to_end
    values = measure(session, args.seconds)
    if session.failed:
        # A failed run may leave metrics uncomputed; the result is
        # reported as incorrect either way.
        values = {name: values.get(name, 0.0) for name in units}
    elif set(values) != set(units):
        sys.exit(f"perfbench: metrics {sorted(values)} != declared {sorted(units)}")
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
