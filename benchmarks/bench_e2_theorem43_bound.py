"""Benchmark E2 — Theorem 4.3: the largest threshold decidable with |P| states.

Regenerates the doubly-exponential upper-bound curve of Theorem 4.3 (on a
log-log scale) for several width/leader bounds ``m``.
"""

from reporting import report

from repro.experiments import experiment_e2_theorem_4_3


def test_bench_e2_theorem_4_3_bound(benchmark):
    table = benchmark(experiment_e2_theorem_4_3)
    for m in (1, 2, 4):
        values = table.column(f"log2 log2 bound (m={m})")
        # The log-log of the bound is increasing in |P| (doubly exponential growth).
        assert all(a <= b for a, b in zip(values, values[1:]))
    # And increasing in m for a fixed |P|.
    last_row = table.rows[-1]
    assert (
        last_row["log2 log2 bound (m=1)"]
        <= last_row["log2 log2 bound (m=2)"]
        <= last_row["log2 log2 bound (m=4)"]
    )
    report(table)
