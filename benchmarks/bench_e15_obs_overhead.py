"""Benchmark E15 — zero-cost observability when tracing is disabled.

The observability layer instruments the serial per-seed loop
(:meth:`Simulator._run_seeds`) with run spans.  There is one loop: whether
anything observes is decided once per *ensemble*, and with tracing off each
run pays only two ``if observing`` branches — no clock reads, no span.
This benchmark pins that contract.

It replicates the uninstrumented compiled loop body locally (the code the
disabled path executes, minus those two branches per run) as the baseline,
then interleaves it against the real entry point with tracing off.
Best-of-N on both sides, same machine, same buffers; the real entry point
may cost at most 2% more — the acceptance budget from the obs design.
The load is the compiled engine, named explicitly so the bound always gates
the same per-run loop.

A second round flips tracing ON (into an in-memory capture) to report —
not assert — the enabled cost, so a benchmark run shows what a traced run
pays.
"""

import random
import time

from reporting import report

from repro.experiments.harness import ExperimentTable
from repro.obs import trace as obs_trace
from repro.simulation import Simulator
from repro.sweep.spec import build_protocol_and_inputs

POPULATION = 300
REPETITIONS = 24
MAX_STEPS = 4000
STABILITY_WINDOW = 200
ROUNDS = 9
MAX_DISABLED_OVERHEAD = 1.02


def _baseline_loop(simulator, configuration, seeds):
    """The serial compiled loop without its observability branches."""
    buffer = simulator._compiled.counts_of(configuration)
    results = []
    for seed in seeds:
        outcome = simulator._dispatch(
            configuration, MAX_STEPS, STABILITY_WINDOW, random.Random(seed),
            None, buffer,
        )
        results.append(simulator._finish(configuration, outcome, None, None))
    return results


def _instrumented_entry(simulator, configuration, seeds):
    return simulator._run_seeds(
        configuration, seeds, MAX_STEPS, STABILITY_WINDOW
    )


def run_overhead_experiment():
    protocol, inputs = build_protocol_and_inputs("majority", POPULATION, {})
    simulator = Simulator(protocol, seed=7, engine="compiled")
    configuration = protocol.initial_configuration(inputs)
    assert simulator._choice == "compiled", "compiled engine required for E15"
    assert not obs_trace.tracing_active()
    seeds = [random.Random(2022).getrandbits(64) for _ in range(REPETITIONS)]

    # Warm both paths (JIT-free, but touches allocators and branch caches).
    _baseline_loop(simulator, configuration, seeds)
    _instrumented_entry(simulator, configuration, seeds)

    baseline_best = entry_best = float("inf")
    baseline_results = entry_results = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        baseline_results = _baseline_loop(simulator, configuration, seeds)
        baseline_best = min(baseline_best, time.perf_counter() - start)
        start = time.perf_counter()
        entry_results = _instrumented_entry(simulator, configuration, seeds)
        entry_best = min(entry_best, time.perf_counter() - start)

    # Enabled cost, reported for context: divert spans into a buffer so the
    # measurement excludes disk.
    with obs_trace.capture_events():
        start = time.perf_counter()
        _instrumented_entry(simulator, configuration, seeds)
        traced_seconds = time.perf_counter() - start

    table = ExperimentTable(
        experiment_id="E15-obs-overhead",
        title=f"obs overhead, {REPETITIONS}-rep compiled serial ensemble",
        columns=["mode", "best seconds", "overhead"],
        notes=(
            "baseline replicates the uninstrumented loop body; 'disabled' is the "
            "real _run_seeds entry with no tracer installed "
            f"(budget {MAX_DISABLED_OVERHEAD}x); 'traced' captures spans "
            "in memory and is informational"
        ),
    )
    table.add_row(mode="baseline", **{"best seconds": baseline_best,
                                      "overhead": 1.0})
    table.add_row(mode="disabled", **{"best seconds": entry_best,
                                      "overhead": entry_best / baseline_best})
    table.add_row(mode="traced", **{"best seconds": traced_seconds,
                                    "overhead": traced_seconds / baseline_best})
    return table, baseline_results, entry_results


def test_bench_e15_obs_overhead(benchmark):
    table, baseline_results, entry_results = benchmark.pedantic(
        run_overhead_experiment, rounds=1, iterations=1
    )

    # Instrumentation must not perturb the simulation: identical results.
    assert entry_results == baseline_results

    overhead = table.rows[1]["overhead"]
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled observability added {overhead:.3f}x overhead "
        f"(budget {MAX_DISABLED_OVERHEAD}x)"
    )
    report(table)
