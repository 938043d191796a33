"""Benchmark E4 — Rackoff's coverability bound (Lemma 5.3) vs measured witnesses.

Regenerates the comparison between the doubly-exponential Rackoff bound and
the length of actual shortest covering words on the paper's nets.
"""

import math

from reporting import report

from repro.experiments import experiment_e4_rackoff


def test_bench_e4_rackoff(benchmark):
    table = benchmark(experiment_e4_rackoff)
    for row in table.rows:
        # Every instance is coverable and the witness respects the bound.
        assert row["measured length"] >= 0
        assert math.log2(max(row["measured length"], 1)) <= row["log2 Rackoff bound"]
    report(table)
