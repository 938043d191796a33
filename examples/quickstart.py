"""Quickstart: define a protocol, verify it, simulate it, and check the paper's bound.

This example walks through the core workflow of the library:

1. build the classical flock-of-birds protocol for the counting predicate
   ``x >= 4``,
2. verify exhaustively (on bounded populations) that it stably computes the
   predicate, exactly as Section 2 of the paper defines stable computation,
3. simulate it on a larger population under the uniform random scheduler,
4. record one run's trajectory (the fired transitions) and replay it,
5. evaluate the Theorem 4.3 inequality on the protocol.

Run with:  python examples/quickstart.py
"""

from repro.analysis import check_protocol, theorem_4_3_holds_for_protocol
from repro.core import Configuration
from repro.protocols import flock_of_birds_predicate, flock_of_birds_protocol
from repro.simulation import Simulator, summarize_runs

THRESHOLD = 4


def main() -> None:
    # 1. Build the protocol: n + 1 states, width 2, leaderless.
    protocol = flock_of_birds_protocol(THRESHOLD)
    predicate = flock_of_birds_predicate(THRESHOLD)
    print(protocol.describe())
    print()

    # 2. Exhaustive verification on populations of at most THRESHOLD + 2 agents.
    report = check_protocol(protocol, predicate, max_agents=THRESHOLD + 2)
    print(report.summary())
    for verdict in report.verdicts:
        status = "ok" if verdict.correct else "FAIL"
        print(
            f"  input {verdict.inputs.pretty():>4}: expected {verdict.expected}, "
            f"computed {verdict.computed} [{status}]"
        )
    print()

    # 3. Simulation on a larger population (20 agents) with a fixed seed, on
    #    the compiled dense-array engine.  Three engines share bit-identical
    #    semantics: engine="reference" (sparse baseline), engine="compiled"
    #    (generated Python steppers, no compiler needed), and
    #    engine="native" (one C loop, built with the host C compiler on
    #    first use).  engine="auto" — the default — picks native whenever its
    #    library loads, compiled otherwise.
    simulator = Simulator(protocol, seed=2022, engine="compiled")
    inputs = protocol.counting_input(20)
    results = simulator.run_many(inputs, repetitions=10, max_steps=50000)
    stats = summarize_runs(results)
    print(
        f"simulation on {inputs.size} agents: {stats.converged}/{stats.runs} runs converged, "
        f"mean interactions to consensus = {stats.mean_consensus_step:.1f}"
    )
    print()

    # 4. Trajectory recording: every engine can append the fired transition
    #    indices to a deque (memory proportional to the steps fired); the
    #    trajectory replays on the net to exactly the run's final
    #    configuration.
    result = simulator.run(inputs, max_steps=50000, record_trajectory=True)
    trajectory = result.trajectory
    replayed = trajectory.replay(protocol.petri_net, result.initial)
    last = [t.name or "?" for t in trajectory.transitions(protocol.petri_net)[-3:]]
    print(
        f"recorded trajectory: {len(trajectory)} firings, "
        f"last transitions {last}, replay matches final: {replayed == result.final}"
    )
    print()

    # 5. Theorem 4.3: the protocol's parameters admit the threshold it decides.
    holds = theorem_4_3_holds_for_protocol(protocol, THRESHOLD)
    print(
        f"Theorem 4.3 inequality for (x >= {THRESHOLD}) with |P|={protocol.num_states}, "
        f"width={protocol.width}, leaders={protocol.num_leaders}: {'holds' if holds else 'VIOLATED'}"
    )


if __name__ == "__main__":
    main()
