"""Succinct counting protocols: the O(log n) construction in action.

The upper-bound side of the paper's story (Blondin, Esparza & Jaax): counting
predicates admit protocols far smaller than the classic ``n + 1``-state one.
This example:

1. builds the ``O(log n)``-state leaderless protocol for several thresholds
   and compares its size against the classic protocol,
2. verifies the construction exhaustively for small thresholds,
3. simulates it on populations around the threshold and reports accuracy and
   convergence statistics,
4. shows where the paper's lower bound (Corollary 4.4) sits below these
   constructions.

Run with:  python examples/succinct_counting.py
"""

from repro.analysis import check_protocol, corollary_4_4_lower_bound
from repro.core import Configuration
from repro.protocols import (
    succinct_initial_state,
    succinct_leaderless_predicate,
    succinct_leaderless_protocol,
    succinct_leaderless_state_count,
)
from repro.simulation import (
    WorkerPool,
    accuracy_against_predicate,
    repetition_seeds,
    summarize_runs,
)


def size_comparison() -> None:
    """State counts: classic n+1 vs the succinct construction vs the lower bound."""
    print(f"{'n':>12} {'classic':>10} {'succinct':>10} {'lower bound (h=0.49)':>22}")
    for exponent in (3, 6, 10, 16, 32, 64):
        threshold = 2 ** exponent
        succinct = succinct_leaderless_state_count(threshold)
        lower = corollary_4_4_lower_bound(threshold, 2, 0.49)
        print(f"{threshold:>12} {threshold + 1:>10} {succinct:>10} {lower:>22.2f}")
    print()


def verify_small_thresholds() -> None:
    """Exhaustive stable-computation checks for small thresholds."""
    for threshold in (3, 5, 6, 7, 8):
        protocol = succinct_leaderless_protocol(threshold)
        report = check_protocol(
            protocol,
            succinct_leaderless_predicate(threshold),
            max_agents=min(threshold + 2, 8),
        )
        print(report.summary())
    print()


def simulate_around_the_threshold() -> None:
    """Simulation accuracy just below and just above the threshold.

    Note on the stability window: until the accepting state appears, every
    configuration of the succinct protocol is a 0-consensus, so the window
    must be generous enough that acceptance has a real chance to happen before
    the run is declared converged.
    """
    threshold = 8
    protocol = succinct_leaderless_protocol(threshold)
    predicate = succinct_leaderless_predicate(threshold)
    # The compiled engine makes the long stability windows below cheap, and the
    # worker pool fans the independent repetitions out over worker processes;
    # the per-repetition seeds are derived before scheduling, so the ensemble
    # is bit-identical to Simulator(protocol, seed=7).run_many(inputs, 5).
    # The pool is persistent — started on the first ensemble, reused for
    # every following population, and released by the `with` block — so
    # only the first run_seeds pays pool startup and per-worker stepper
    # compilation.
    with WorkerPool(max_workers=2) as pool:
        for population in (threshold - 2, threshold, threshold + 6):
            inputs = Configuration({succinct_initial_state(): population})
            results = pool.run_seeds(
                protocol, inputs, repetition_seeds(7, 5), engine="compiled",
                max_steps=500000, stability_window=30000,
            )
            stats = summarize_runs(results)
            accuracy = accuracy_against_predicate(results, predicate, inputs)
            print(
                f"population {population:>3} (threshold {threshold}): accuracy {accuracy:.0%}, "
                f"mean interactions {stats.mean_steps:.0f}"
            )


def main() -> None:
    size_comparison()
    verify_small_thresholds()
    simulate_around_the_threshold()


if __name__ == "__main__":
    main()
