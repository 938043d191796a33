"""Benchmark E3 — the paper's lower bound vs Czerner–Esparza vs the BEJ upper bounds.

Regenerates the bound-comparison figure along the family ``n = 2^(2^j)``: the
inverse-Ackermann bound of PODC'21 stays at 3 while the paper's
``(log log n)^h`` bound tracks the ``O(log log n)`` upper bound.
"""

from reporting import report

from repro.experiments import experiment_e3_lower_bounds


def test_bench_e3_lower_bounds(benchmark):
    table = benchmark(experiment_e3_lower_bounds)
    czerner = table.column("Czerner-Esparza A^{-1}(n)")
    leroux = table.column("Leroux h=0.49")
    upper = table.column("BEJ upper (leaders)")
    # The PODC'21 bound is constant (<= 3) on every row.
    assert all(value <= 3 for value in czerner)
    # The paper's bound is monotone and stays below the upper bound.
    assert all(a <= b for a, b in zip(leroux, leroux[1:]))
    assert all(l <= u for l, u in zip(leroux, upper))
    report(table)
