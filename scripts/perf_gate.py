#!/usr/bin/env python3
"""Decisions-per-second regression gate: this checkout against its parent.

Runs each tree's own perfbench, in pairs that alternate which tree goes
first.  It fails if any run reports ``correct: false``, or if this
tree's median ``decisions_per_s`` on a workload falls below the parent's
median times ``1 - bound`` (the bound from this tree's ``BENCHMARK.json``).
A workload the parent does not declare has no baseline and is not gated.

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
        print(
            f"perf_gate: {workload}: median {change:,.0f} decisions/s, parent "
            f"{parent:,.0f}, floor {floor:,.0f} (bound {bound}): {verdict}"
        )
        failed |= change < floor
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
