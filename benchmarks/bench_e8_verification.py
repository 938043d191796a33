"""Benchmark E8 — exhaustive stable-computation verification of every construction.

Regenerates the correctness table: every protocol the state-count experiment
compares (classic, the paper's Examples 4.1/4.2, the succinct construction)
actually stably computes its counting predicate on bounded populations.
"""

from reporting import report

from repro.experiments import experiment_e8_verification


def test_bench_e8_verification(benchmark):
    table = benchmark.pedantic(experiment_e8_verification, rounds=1, iterations=1)
    assert all(row["failures"] == 0 for row in table.rows)
    assert all(row["inputs"] > 0 for row in table.rows)
    report(table)
