"""Benchmark E13 — bounded overhead of in-worker analytics extraction.

Runs a 64-repetition majority ensemble at population 1000 over a persistent
worker pool twice per round: once plain, once with the batch layer's
``analytics=`` knob (histogram + consensus-time extraction + correctness
scoring inside the workers).  Asserts the two contracts of the analytics
subsystem:

* **compactness** — analytics results come back with a metric dict and *no*
  trajectory: the full rings are recorded, consumed and dropped inside the
  workers, so what crosses the pool is orders of magnitude smaller than the
  rings a ``record_trajectory=True`` ensemble would ship;
* **bounded overhead** — the analytics ensemble costs at most 25% more wall
  clock than the plain one (best-of-N, interleaved so machine drift hits
  both sides equally).  The block-skip replay in
  :mod:`repro.analytics.metrics` is what makes this hold: consensus-free
  stretches of the trajectory are folded in C speed instead of stepped
  through one Python iteration at a time.
"""

import pickle
import time

from conftest import report

from repro.analytics import AnalyticsSpec
from repro.experiments.harness import ExperimentTable
from repro.simulation import WorkerPool, repetition_seeds
from repro.sweep.spec import build_protocol_and_inputs

POPULATION = 1000
REPETITIONS = 64
MAX_STEPS = 20000
ROUNDS = 3
MAX_OVERHEAD = 1.25


def _measure(pool, protocol, inputs, analytics):
    start = time.perf_counter()
    results = pool.run_seeds(
        protocol, inputs, repetition_seeds(1, REPETITIONS),
        max_steps=MAX_STEPS, analytics=analytics,
    )
    return time.perf_counter() - start, results


def run_overhead_experiment():
    protocol, inputs = build_protocol_and_inputs("majority", POPULATION, {})
    spec = AnalyticsSpec(expected_output=1)
    with WorkerPool(max_workers=4) as pool:
        # Warm the pool: start the workers and build their simulators.
        pool.run_seeds(protocol, inputs, repetition_seeds(0, 8), max_steps=MAX_STEPS)
        plain_best = analytics_best = float("inf")
        plain_results = analytics_results = None
        for _ in range(ROUNDS):
            elapsed, plain_results = _measure(pool, protocol, inputs, None)
            plain_best = min(plain_best, elapsed)
            elapsed, analytics_results = _measure(pool, protocol, inputs, spec)
            analytics_best = min(analytics_best, elapsed)

    table = ExperimentTable(
        experiment_id="E13-overhead",
        title=f"in-worker analytics overhead ({REPETITIONS}-rep pooled ensemble)",
        columns=["mode", "best seconds", "overhead", "payload bytes/run"],
        notes=(
            "payload bytes = pickled size of what one repetition ships back "
            "through the pool; the analytics metric dict replaces (not adds "
            "to) the trajectory ring"
        ),
    )
    table.add_row(**{
        "mode": "plain",
        "best seconds": plain_best,
        "overhead": 1.0,
        "payload bytes/run": len(pickle.dumps(plain_results[0])),
    })
    table.add_row(**{
        "mode": "analytics",
        "best seconds": analytics_best,
        "overhead": analytics_best / plain_best,
        "payload bytes/run": len(pickle.dumps(analytics_results[0])),
    })
    return table, plain_results, analytics_results


def test_bench_e13_analytics_overhead(benchmark):
    table, plain_results, analytics_results = benchmark.pedantic(
        run_overhead_experiment, rounds=1, iterations=1
    )

    # Compactness: metrics instead of rings.
    assert all(r.analytics is not None for r in analytics_results)
    assert all(r.trajectory is None for r in analytics_results)
    metric_bytes = len(pickle.dumps(analytics_results[0].analytics))
    ring_bytes = len(
        pickle.dumps(tuple(range(min(MAX_STEPS, 65536))))
    )  # what a full ring of this budget would ship
    assert metric_bytes * 50 < ring_bytes, (
        f"metric dict ({metric_bytes}B) is not compact versus a trajectory "
        f"ring ({ring_bytes}B)"
    )

    # Analytics must not perturb the simulation itself.
    assert [(r.steps, r.consensus, r.consensus_step) for r in plain_results] == [
        (r.steps, r.consensus, r.consensus_step) for r in analytics_results
    ]

    # Bounded overhead.
    overhead = table.rows[1]["overhead"]
    assert overhead <= MAX_OVERHEAD, (
        f"in-worker analytics added {overhead:.2f}x overhead "
        f"(budget {MAX_OVERHEAD}x)"
    )
    report(table)
