"""Ablation: anycast group size K.

The paper notes unicast is the K=1 special case of anycast (Section 1)
and fixes K=5 in its evaluation.  This bench sweeps K: more members
mean more route diversity, so AP should not decrease with K, and the
K=1 case must make every selection algorithm equivalent.
"""

import pytest

from conftest import bench_config

from repro.core.system import SystemSpec
from repro.experiments.report import format_table
from repro.experiments.runner import run_point

#: Nested member sets (each a prefix of the next) on the MCI backbone.
GROUPS = {
    1: (8,),
    3: (8, 0, 16),
    5: (8, 0, 16, 4, 12),
}
HEAVY_RATE = 6.0 * 25.0


def run_group_sweep():
    points = {}
    for size, members in GROUPS.items():
        config = bench_config(group_members=members)
        points[size] = run_point(
            SystemSpec("ED", retrials=2), HEAVY_RATE, config
        )
    return points


def test_ap_rises_with_group_size(benchmark):
    points = benchmark.pedantic(run_group_sweep, rounds=1, iterations=1)
    rows = [
        [str(size), f"{p.admission_probability:.4f}"]
        for size, p in points.items()
    ]
    print()
    print(format_table(["K", "AP"], rows, title="group-size sweep, <ED,2>"))

    # Route diversity helps: AP non-decreasing in K (noise margin).
    assert points[3].admission_probability >= points[1].admission_probability - 0.02
    assert points[5].admission_probability >= points[3].admission_probability - 0.02


def test_unicast_case_equalizes_algorithms(benchmark):
    config = bench_config(group_members=GROUPS[1])

    def run_all():
        return {
            algorithm: run_point(
                SystemSpec(algorithm, retrials=3), HEAVY_RATE, config
            ).admission_probability
            for algorithm in ("ED", "WD/D+H", "WD/D+B", "SP")
        }

    aps = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print("unicast APs:", {k: round(v, 4) for k, v in aps.items()})
    baseline = aps["SP"]
    for algorithm, ap in aps.items():
        assert ap == pytest.approx(baseline, abs=1e-12), algorithm
