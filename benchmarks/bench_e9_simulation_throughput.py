"""Benchmark E9 — simulation throughput of the native and compiled engines.

Measures interactions per second of the native and compiled dense engines
against the sparse reference engine on the majority protocol, and asserts
the headline claims: at population 1000 the compiled engine sustains at
least 10x the reference engine's throughput, and the native engine is at
least as fast as the compiled one at every population — all while producing
the exact same trajectory (the experiment itself raises if the engines
diverge).
"""

from reporting import report

from repro.experiments import experiment_e9_simulation_throughput


def test_bench_e9_simulation_throughput(benchmark):
    table = benchmark.pedantic(experiment_e9_simulation_throughput, rounds=1, iterations=1)
    speedup_at = {
        (row["population"], row["engine"]): row["speedup"] for row in table.rows
    }
    populations = {population for population, _ in speedup_at}
    assert all(speedup_at[(p, "compiled")] > 1.0 for p in populations)
    assert speedup_at[(1000, "compiled")] >= 10.0
    assert all(
        speedup_at[(p, "native")] >= speedup_at[(p, "compiled")] for p in populations
    )
    report(table)
