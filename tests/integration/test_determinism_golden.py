"""Golden determinism regression test.

The library promises bit-for-bit reproducibility: identical configs
and seeds must produce identical results on any machine, forever.
These pinned values were computed once; any change to them means the
deterministic contract broke (a new draw inserted into a shared
stream, a changed iteration order, a different tie-break...) and must
be treated as a breaking change, not a test update.
"""

import pytest

import repro

#: (requests, admitted, mean_attempts) for seed 20010405, lambda=25,
#: warmup 50 s, measure 200 s on the default MCI setup with R=2.
GOLDEN = {
    "ED": (5165, 4593, 1.2391093901258472),
    "WD/D+H": (5165, 5089, 1.0315585672797707),
    "WD/D+B": (5165, 5156, 1.0029041626331057),
    "SP": (5165, 3774, 1.0),
    "GDI": (5165, 5165, 1.0),
}


# The engine has one pending-event set, the heap; the parameter only
# keeps the test ids (``[ED-heap]``...) stable.
@pytest.mark.parametrize("queue", ["heap"])
@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_golden_results_are_stable(algorithm, queue):
    result = repro.quick_run(
        algorithm,
        retrials=2,
        arrival_rate=25.0,
        warmup_s=50.0,
        measure_s=200.0,
        seed=20010405,
    )
    requests, admitted, mean_attempts = GOLDEN[algorithm]
    assert result.requests == requests
    assert result.admitted == admitted
    assert result.mean_attempts == pytest.approx(mean_attempts, abs=1e-12)


def test_workload_identical_across_systems():
    """Common random numbers: every system sees the same arrivals."""
    request_counts = {
        algorithm: GOLDEN[algorithm][0] for algorithm in GOLDEN
    }
    assert len(set(request_counts.values())) == 1
