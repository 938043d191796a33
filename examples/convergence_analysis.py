"""Convergence analysis: trajectory analytics over a recorded ensemble.

The analytics subsystem turns recorded simulation paths into the paper's
quantities of interest — how fast consensus emerges, which interactions do
the work, and where two runs diverge.  This example:

1. runs a 64-repetition majority ensemble on a two-worker ``WorkerPool``
   with the ``analytics=`` knob, so each worker extracts a compact metric
   dict in place of the full trajectory,
2. aggregates the per-run metrics into time-to-consensus quantiles and a
   pooled firing histogram,
3. samples a consensus-fraction-over-time curve for a single recorded run,
4. diffs a uniform-scheduler run against a transition-scheduler run (same
   protocol, same seed) to pinpoint the step where the disciplines split —
   and an engine-vs-engine pair to show they *don't*.

The same analyses run from the shell:

    python -m repro.analytics report --store results.sqlite
    python -m repro.analytics hist --protocol majority --population 40 --seed 7
    python -m repro.analytics diff --protocol majority --population 40 --seed 7 \\
        --vs-scheduler transition

Run with:  python examples/convergence_analysis.py
"""

from repro.analytics import (
    AnalyticsSpec,
    aggregate_run_metrics,
    describe_diff,
    diff_results,
    extract_run_metrics,
    top_transitions,
)
from repro.simulation import (
    Simulator,
    TransitionScheduler,
    WorkerPool,
    repetition_seeds,
)
from repro.sweep import build_predicate_for, build_protocol_and_inputs

POPULATION = 40
SEED = 7
MAX_STEPS = 20000


def ensemble_analytics(protocol, inputs, expected):
    """In-worker extraction over a pooled ensemble, then aggregation."""
    spec = AnalyticsSpec(expected_output=expected)
    # The same results as Simulator(protocol, seed=SEED).run_many(inputs, 64, ...).
    with WorkerPool(max_workers=2) as pool:
        results = pool.run_seeds(
            protocol, inputs, repetition_seeds(SEED, 64), max_steps=MAX_STEPS,
            analytics=spec,
        )
    # The workers consumed the trajectories locally: only metrics travel.
    assert all(r.trajectory is None and r.analytics is not None for r in results)

    aggregated = aggregate_run_metrics([r.analytics for r in results])
    q10, q50, q90 = aggregated.stable_consensus_quantiles
    print(f"ensemble of {aggregated.runs} runs, population {POPULATION}:")
    print(f"  accuracy vs majority predicate: {aggregated.accuracy:.2f}")
    print(f"  time to stable consensus: q10={q10:.0f}  q50={q50:.0f}  q90={q90:.0f}")
    names = [t.name for t in protocol.petri_net.transitions]
    print("  pooled firing histogram (top 3):")
    for name, count in top_transitions(aggregated.histogram, names, k=3):
        print(f"    {name:<12} fired {count} times")
    print()


def consensus_curve(protocol, inputs):
    """How the consensus fraction builds up along one recorded run."""
    simulator = Simulator(protocol, seed=SEED)
    result = simulator.run(inputs, max_steps=MAX_STEPS, record_trajectory=True)
    checkpoints = tuple(sorted({
        step for step in (0, 50, 100, 250, 500, 1000, 2500, 5000)
        if step <= result.steps
    } | {result.steps}))
    spec = AnalyticsSpec(curve_checkpoints=checkpoints)
    metrics = extract_run_metrics(result, protocol, spec)
    print(
        f"single run: consensus {result.consensus} "
        f"(first at step {metrics['time_to_first_consensus']}, "
        f"stable from {metrics['time_to_stable_consensus']})"
    )
    print("  consensus fraction over time:")
    for step, fraction in metrics["curve"]:
        bar = "#" * round(fraction * 40)
        print(f"    step {step:>6}: {fraction:5.1%} {bar}")
    print()


def diff_schedulers_and_engines(protocol, inputs):
    """Where does the transition scheduler split from the uniform one?"""

    def recorded(scheduler=None, engine="auto"):
        simulator = Simulator(protocol, scheduler=scheduler, seed=SEED, engine=engine)
        return simulator.run(inputs, max_steps=MAX_STEPS, record_trajectory=True)

    uniform = recorded()
    transition = recorded(scheduler=TransitionScheduler())
    print("uniform vs transition scheduler (same seed):")
    print(
        describe_diff(
            diff_results(uniform, transition), net=protocol.petri_net,
            label_a="uniform", label_b="transition",
        )
    )
    print()
    compiled = recorded(engine="compiled")
    reference = recorded(engine="reference")
    print("compiled vs reference engine (same seed):")
    diff = diff_results(compiled, reference)
    print(
        describe_diff(
            diff, net=protocol.petri_net,
            label_a="compiled", label_b="reference",
        )
    )
    assert diff.identical, "engines must fire identical trajectories"


def main() -> None:
    protocol, inputs = build_protocol_and_inputs("majority", POPULATION, {})
    predicate = build_predicate_for("majority", POPULATION, {})
    ensemble_analytics(protocol, inputs, predicate.evaluate(inputs))
    consensus_curve(protocol, inputs)
    diff_schedulers_and_engines(protocol, inputs)


if __name__ == "__main__":
    main()
