"""Benchmark E7 — Lemma 7.2/7.3: small total cycles and the Pottier machinery.

Regenerates the total-cycle construction on control-state nets built from
protocol components and checks the ``|E||S|`` length bound.
"""

from reporting import report

from repro.experiments import experiment_e7_cycles


def test_bench_e7_cycles(benchmark):
    table = benchmark(experiment_e7_cycles)
    assert len(table) >= 2
    for row in table.rows:
        assert row["within bound"]
        assert row["total cycle length"] >= row["|E|"]
    report(table)
