"""Benchmark E10 — parallel batch throughput of a worker pool.

Runs a seeded majority ensemble at population 1000 once in-process
(``Simulator.run_many``, the ``serial`` row) and once per worker count on a
fresh ``WorkerPool`` (the ``process`` rows).  The experiment itself raises if
any pool's ensemble diverges from the in-process one (the per-repetition
seeds are derived before scheduling, so results must be bit-identical), which
makes the benchmark double as a determinism check.

The headline claim — a 4-worker pool's throughput at least 2x the in-process
ensemble's — only holds where 4 hardware threads exist, so that assertion is
gated on the visible CPU count; the determinism cross-check runs everywhere.
"""

import os

from reporting import report

from repro.experiments import experiment_e10_parallel_batch


def test_bench_e10_parallel_batch(benchmark):
    table = benchmark.pedantic(experiment_e10_parallel_batch, rounds=1, iterations=1)
    speedup_at = {
        row["workers"]: row["speedup"] for row in table.rows if row["backend"] == "process"
    }
    assert set(speedup_at) == {1, 2, 4}
    assert all(speedup > 0.0 for speedup in speedup_at.values())
    if (os.cpu_count() or 1) >= 4:
        assert speedup_at[4] >= 2.0
    report(table)
