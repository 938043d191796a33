"""Benchmark E1 — state counts of every construction for the counting predicate.

Regenerates the comparison the paper's introduction is about: the classic
protocol needs ``n + 1`` states, the paper's Examples 4.1/4.2 need O(1) states
by cheating on width/leaders, the BEJ constructions need ``O(log n)`` /
``O(log log n)`` states, and Corollary 4.4 lower-bounds the achievable count.
"""

from reporting import report

from repro.experiments import experiment_e1_state_counts


def test_bench_e1_state_counts(benchmark):
    table = benchmark(experiment_e1_state_counts)
    classic = table.column("classic (n+1)")
    succinct = table.column("BEJ leaderless O(log n)")
    loglog = table.column("BEJ leaders O(log log n)")
    lower = table.column("Cor. 4.4 lower bound (h=0.49)")
    # Shape: for the largest thresholds, classic >> log n >> log log n >= lower bound.
    assert classic[-1] > succinct[-1] > loglog[-1]
    assert all(l <= u for l, u in zip(lower, succinct))
    report(table)
