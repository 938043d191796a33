"""Benchmark E11 — large-net throughput of the native engine + pool amortization.

Two claims are measured, and their data points are written to
``BENCH_e11.json`` at the repository root so the performance trajectory of
the engines is recorded across PRs:

1. **Large nets** (:func:`experiment_e11_large_net_throughput`): on random
   width-2 nets swept over the transition count, the native engine beats
   the compiled engine's steady-state throughput on every net, and is at
   least 3x faster on multi-thousand-transition nets — where the compiled
   engine also pays seconds of codegen per (net, process) and beyond ~2500
   transitions stops working entirely (the generated dispatch chain
   overflows the CPython compiler).  The experiment cross-checks the
   engines' final configurations, step counts and consensus values, so the
   benchmark doubles as an equivalence check (exact step-for-step trajectory
   equality is the test suite's job).  Sweep points where codegen fails
   report their speedup against a labeled reference-engine fallback
   baseline (extrapolated from a short run) rather than empty cells.

2. **Persistent pools**: a :class:`~repro.simulation.batch.WorkerPool`
   starts its worker processes once; a second ``run_seeds`` on the same pool
   skips pool startup, protocol unpickling and per-worker stepper table
   building, and must be at least 1.5x faster than the build-per-call
   behavior (a fresh pool per ensemble, which is what every one-shot
   ``run_many(backend="process")`` pays) — while remaining bit-identical to
   both the fresh-pool and the serial ensembles.
"""

import json
import random
import time
from pathlib import Path

from conftest import report

from repro.experiments import (
    experiment_e11_large_net_throughput,
    random_interaction_protocol,
)
from repro.simulation import WorkerPool, repetition_seeds, run_ensemble

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_e11.json"


def _update_artifact(key, payload):
    """Merge one section into BENCH_e11.json (both tests write to it)."""
    data = {}
    if ARTIFACT_PATH.exists():
        try:
            data = json.loads(ARTIFACT_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    data[key] = payload
    ARTIFACT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_bench_e11_large_net_throughput(benchmark):
    table = benchmark.pedantic(
        experiment_e11_large_net_throughput, rounds=1, iterations=1
    )
    rows = {(row["transitions"], row["engine"]): row for row in table.rows}

    # The native engine beats the compiled engine steady-state on every net
    # the compiled engine can build, from 50 transitions up...
    compiled_baselines = [
        row for (transitions, engine), row in rows.items()
        if engine == "native" and row["baseline"] == "compiled"
    ]
    assert compiled_baselines
    assert all(row["speedup"] > 1.0 for row in compiled_baselines)
    assert rows[(1000, "native")]["speedup"] > 1.0
    # ...and including the codegen the compiled engine pays per (net,
    # process), the native engine is >= 3x faster already at 1000 transitions.
    assert rows[(1000, "native")]["e2e speedup"] >= 3.0
    # Headline: >= 3x steady-state on a multi-thousand-transition net,
    # measured against the compiled engine itself.
    big_speedups = [
        row["speedup"]
        for row in compiled_baselines
        if row["transitions"] >= 1000 and row["speedup"] is not None
    ]
    assert max(big_speedups) >= 3.0
    # At 5000 transitions the compiled engine cannot even be built (CPython
    # recursion guard) while the native engine keeps simulating — and the
    # row still carries a real speedup, measured against the labeled
    # reference-engine fallback baseline instead of an empty cell.
    assert rows[(5000, "compiled")]["interactions"] is None
    assert rows[(5000, "native")]["interactions"] > 0
    fallback_row = rows[(5000, "native")]
    assert fallback_row["baseline"].startswith("reference (extrapolated")
    assert fallback_row["speedup"] is not None
    assert fallback_row["speedup"] > 1.0

    _update_artifact(
        "large_net_throughput",
        {"title": table.title, "notes": table.notes, "rows": table.rows},
    )
    report(table)


def test_bench_e11_persistent_pool():
    # A moderately sized random net: per-worker initialization (protocol
    # unpickling + building the native stepper's tables) is a real cost,
    # which is exactly what the persistent pool amortizes.
    protocol, inputs = random_interaction_protocol(240, random.Random(5))
    repetitions, seed, max_steps = 64, 2022, 400
    seeds = repetition_seeds(seed, repetitions)
    kwargs = dict(max_steps=max_steps, stability_window=max_steps)

    serial = run_ensemble(protocol, inputs, seeds, **kwargs)

    with WorkerPool(max_workers=2) as pool:
        first = pool.run_seeds(protocol, inputs, seeds, **kwargs)
        start = time.perf_counter()
        second = pool.run_seeds(protocol, inputs, seeds, **kwargs)
        warm_elapsed = time.perf_counter() - start

    # Build-per-call: what every ensemble on a fresh pool pays.
    start = time.perf_counter()
    fresh_pool = WorkerPool(max_workers=2)
    fresh = fresh_pool.run_seeds(protocol, inputs, seeds, **kwargs)
    cold_elapsed = time.perf_counter() - start
    fresh_pool.close()

    # Pool reuse must not change results: persistent-pool, fresh-pool and
    # serial ensembles are bit-identical.
    assert first == second == fresh == serial

    speedup = cold_elapsed / warm_elapsed
    _update_artifact(
        "persistent_pool",
        {
            "protocol_transitions": protocol.petri_net.num_transitions,
            "repetitions": repetitions,
            "max_steps": max_steps,
            "warm_seconds": warm_elapsed,
            "cold_seconds": cold_elapsed,
            "speedup": speedup,
        },
    )
    print(
        f"\npersistent pool: warm {warm_elapsed * 1000:.1f} ms vs "
        f"build-per-call {cold_elapsed * 1000:.1f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 1.5
