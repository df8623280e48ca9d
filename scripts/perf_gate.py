#!/usr/bin/env python3
"""Decisions-per-second regression gate: this checkout against its parent.

Runs each tree's own perfbench, in pairs that alternate which tree goes
first.  It fails if any run reports ``correct: false``, or if this
tree's median ``decisions_per_s`` on a workload falls below the parent's
median times ``1 - bound`` (the bound from this tree's ``BENCHMARK.json``).
A workload the parent does not declare has no baseline and is not gated.

Beside the medians it prints each tree's quartiles, how many pairs
this tree won, and each tree's cProfile calls per decision, from one
untimed run of the workload at the gate's seed (every function and
builtin call, summed over the profile's entries).  The count does not
depend on the host's speed, so it shows a change in work that the timed
pairs may be too noisy to show.  These are reported, never gated.

Run from the repository root, with the parent commit checked out
beside it and the parent's runtime dependencies installed (a dependency
this tree dropped may still be imported by the parent)::

    git worktree add ../parent HEAD^
    python3 scripts/perf_gate.py ../parent
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRIC = "decisions_per_s"
PAIRS = 3
SEED = "11"
SECONDS = "5"

#: One untimed run under cProfile, through perfbench's own workload
#: builder; prints calls per decision.
PROFILE = """
import cProfile, pstats, sys
sys.path.insert(0, "perfbench")
import run
run.load_program()
sim = run.constructor(run.WORKLOADS[sys.argv[1]], int(sys.argv[2]))()
profile = cProfile.Profile(builtins=True)
profile.runcall(sim.run)
calls = sum(entry[1] for entry in pstats.Stats(profile).stats.values())
print(calls / sum(router.requests_seen for router in run.routers(sim)))
"""


def measure(tree: Path, command: list[str], workload: str) -> float | None:
    """One perfbench run in ``tree``: its rate, or ``None`` if not correct."""
    options = ["--workload", workload, "--seed", SEED, "--seconds", SECONDS]
    done = subprocess.run(
        [*command, *options, "--trace", "0"], cwd=tree, capture_output=True, text=True
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct"):
        sys.stderr.write(done.stdout + done.stderr)
        return None
    return float(result["metrics"][METRIC]["value"])


def calls_per_decision(tree: Path, workload: str) -> str:
    """Calls per decision of one profiled run in ``tree``, or ``n/a``."""
    done = subprocess.run(
        [sys.executable, "-c", PROFILE, workload, SEED],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return "n/a"
    return f"{float(done.stdout):.2f}"


def quartiles(rates: list[float]) -> str:
    """First and third quartile, interpolated as perfbench does."""
    low, _, high = statistics.quantiles(rates, n=4, method="inclusive")
    return f"{low:,.0f}-{high:,.0f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    trees = {"change": ROOT, "parent": parser.parse_args(argv).parent.resolve()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in declared["end_to_end"] if m["name"] == METRIC)
    in_parent = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    known = {w["name"] for w in in_parent["workloads"]}
    failed = False
    for workload in [w["name"] for w in declared["workloads"]]:
        if workload not in known:
            print(f"perf_gate: {workload}: not in the parent, not gated")
            continue
        rates: dict[str, list[float]] = {"change": [], "parent": []}
        for pair in range(PAIRS):
            for name in ["change", "parent"] if pair % 2 == 0 else ["parent", "change"]:
                rate = measure(trees[name], declared["command"], workload)
                shown = "incorrect" if rate is None else f"{rate:,.0f} decisions/s"
                print(f"perf_gate: {workload} {name}: {shown}", flush=True)
                failed |= rate is None
                rates[name].append(rate or 0.0)
        change, parent = (statistics.median(rates[name]) for name in trees)
        floor = parent * (1 - bound)
        verdict = "ok" if change >= floor else "REGRESSION"
        calls = {name: calls_per_decision(trees[name], workload) for name in trees}
        won = sum(c > p for c, p in zip(rates["change"], rates["parent"]))
        print(
            f"perf_gate: {workload}: median {change:,.0f} decisions/s "
            f"(quartiles {quartiles(rates['change'])}), parent {parent:,.0f} "
            f"({quartiles(rates['parent'])}), won {won} of {PAIRS} pairs, "
            f"floor {floor:,.0f} (bound {bound}): {verdict}; "
            f"calls per decision {calls['change']}, parent {calls['parent']}"
        )
        failed |= change < floor
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
