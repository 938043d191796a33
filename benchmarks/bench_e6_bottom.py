"""Benchmark E6 — Theorem 6.1: reaching bottom configurations with short words.

Regenerates the bottom-configuration witness search on the restricted
Example 4.2 net (the way Section 8 applies the theorem) for the experiment's
default leader counts (1, 2, 3) and compares the measured witness sizes
against the doubly-exponential bound ``b``.
"""

from reporting import report

from repro.experiments import experiment_e6_bottom


def test_bench_e6_bottom(benchmark):
    table = benchmark.pedantic(experiment_e6_bottom, rounds=1, iterations=1)
    for row in table.rows:
        # A witness was found and its measured sizes are tiny next to b.
        assert row["|sigma|"] >= 0
        assert row["component size"] >= 1
        assert row["|sigma|"] + row["|w|"] + row["component size"] < row["log2 bound b"]
    report(table)
