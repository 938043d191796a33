"""Benchmark E5 — Lemma 5.4: small-value certificates for stabilized configurations.

Regenerates the check that a stabilized configuration's certificate (its
restriction to the states below the Rackoff threshold) transfers stability to
every configuration below it, matching the exact backward-coverability test.
"""

from reporting import report

from repro.experiments import experiment_e5_stability


def test_bench_e5_stability(benchmark):
    table = benchmark(experiment_e5_stability)
    for row in table.rows:
        # Soundness of Lemma 5.4: every certified configuration is stabilized.
        assert row["certified"] == row["agreement"]
        assert 0 < row["certified"] <= row["checked"]
    report(table)
