"""Experiment definitions E1..E14.

Each function builds an :class:`~repro.experiments.harness.ExperimentTable`
reproducing one of the paper's quantitative claims on laptop-scale instances.
The benchmark suite wraps these runners with pytest-benchmark and the
examples print their tables.

Default parameters are sized so that the complete suite runs in minutes.
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..analysis.ackermann import czerner_esparza_lower_bound
from ..analysis.components import component_of, find_bottom_witness, theorem_6_1_bound_log2
from ..analysis.coverability import (
    rackoff_bound,
    rackoff_stabilization_threshold,
    shortest_covering_word,
)
from ..analysis.stability import is_stabilized, stabilization_certificate
from ..analysis.state_complexity import (
    bej_leaderless_upper_bound,
    bej_upper_bound_with_leaders,
    corollary_4_4_lower_bound,
    max_threshold_for_states,
    max_threshold_for_states_log2_log2,
    theorem_4_3_bound,
)
from ..analysis.verification import check_protocol
from ..controlstates.pcs import component_control_net
from ..controlstates.small_cycles import total_cycle, total_cycle_length_bound
from ..core.configuration import Configuration
from ..core.petrinet import PetriNet
from ..core.protocol import OUTPUT_ONE, OUTPUT_ZERO, Protocol
from ..core.transition import Transition
from ..protocols.example_4_1 import example_4_1_predicate, example_4_1_protocol
from ..protocols.example_4_2 import (
    STATE_I_BAR,
    STATE_P,
    STATE_P_BAR,
    STATE_Q,
    STATE_Q_BAR,
    example_4_2_petri_net,
    example_4_2_predicate,
    example_4_2_protocol,
)
from ..protocols.flock_of_birds import flock_of_birds_predicate, flock_of_birds_protocol
from ..protocols.majority import STATE_A, STATE_B, majority_protocol
from ..protocols.succinct import (
    bej_with_leaders_state_count,
    succinct_leaderless_predicate,
    succinct_leaderless_protocol,
    succinct_leaderless_state_count,
)
from ..simulation import Simulator, interactions_per_second
from .harness import ExperimentTable, registry

__all__ = [
    "experiment_e1_state_counts",
    "experiment_e2_theorem_4_3",
    "experiment_e3_lower_bounds",
    "experiment_e4_rackoff",
    "experiment_e5_stability",
    "experiment_e6_bottom",
    "experiment_e7_cycles",
    "experiment_e8_verification",
    "experiment_e9_simulation_throughput",
    "experiment_e10_parallel_batch",
    "experiment_e11_large_net_throughput",
    "experiment_e12_parameter_sweep",
    "experiment_e13_analytics_sweep",
    "experiment_e14_ensemble_throughput",
    "random_interaction_protocol",
]


# ----------------------------------------------------------------------
# E1 — state counts of the constructions
# ----------------------------------------------------------------------
@registry.register("E1")
def experiment_e1_state_counts(
    thresholds: Sequence[int] = (2, 4, 8, 16, 64, 256, 65536, 2 ** 32, 2 ** 64),
    build_protocols_up_to: int = 256,
) -> ExperimentTable:
    """State counts of every construction for the counting predicate ``x >= n``.

    For ``n <= build_protocols_up_to`` the succinct protocol is actually built
    and its state count measured; beyond that the closed-form count is used
    (the construction is explicit, only its size matters here).
    """
    table = ExperimentTable(
        experiment_id="E1",
        title="states needed for (x >= n): classic vs paper examples vs succinct",
        columns=[
            "n",
            "classic (n+1)",
            "example 4.1 (width n)",
            "example 4.2 (n leaders)",
            "BEJ leaderless O(log n)",
            "BEJ leaders O(log log n)",
            "Cor. 4.4 lower bound (h=0.49)",
        ],
        notes=(
            "Example protocols trade states against width / leaders; the succinct "
            "constructions respect width 2 and O(1) leaders.  The last column is the "
            "paper's lower bound with m = 2."
        ),
    )
    for threshold in thresholds:
        if threshold <= build_protocols_up_to:
            succinct_states = succinct_leaderless_protocol(threshold).num_states
        else:
            succinct_states = succinct_leaderless_state_count(threshold)
        table.add_row(
            **{
                "n": threshold,
                "classic (n+1)": threshold + 1,
                "example 4.1 (width n)": 2,
                "example 4.2 (n leaders)": 6,
                "BEJ leaderless O(log n)": succinct_states,
                "BEJ leaders O(log log n)": bej_with_leaders_state_count(threshold),
                "Cor. 4.4 lower bound (h=0.49)": corollary_4_4_lower_bound(threshold, 2, 0.49),
            }
        )
    return table


# ----------------------------------------------------------------------
# E2 — Theorem 4.3: the largest decidable threshold per state count
# ----------------------------------------------------------------------
@registry.register("E2")
def experiment_e2_theorem_4_3(
    state_counts: Sequence[int] = tuple(range(1, 13)),
    bound_parameters: Sequence[int] = (1, 2, 4),
) -> ExperimentTable:
    """Theorem 4.3: upper bound on the decidable threshold as a function of ``|P|``.

    Reports ``log2 log2`` of the bound, the scale on which the theorem says the
    growth is essentially quadratic in ``|P|`` (so that inverting gives the
    ``(log log n)^{1/2}`` lower bound).
    """
    table = ExperimentTable(
        experiment_id="E2",
        title="Theorem 4.3: max threshold decidable with |P| states (log log scale)",
        columns=["|P|"]
        + [f"log2 log2 bound (m={m})" for m in bound_parameters]
        + ["log10 of #digits (m=2)"],
        notes=(
            "the bound is doubly exponential in |P|: its log2 log2 grows like "
            "(|P|+2)^2 log2 |P|, which is what Corollary 4.4 inverts"
        ),
    )
    for num_states in state_counts:
        row = {"|P|": num_states}
        for m in bound_parameters:
            row[f"log2 log2 bound (m={m})"] = max_threshold_for_states_log2_log2(num_states, m)
        # Number of decimal digits of the bound, reported on a log10 scale
        # because the count itself stops fitting in a float beyond |P| ~ 11.
        loglog = max_threshold_for_states_log2_log2(num_states, 2)
        row["log10 of #digits (m=2)"] = (loglog - math.log2(math.log2(10))) * math.log10(2)
        table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# E3 — lower bounds: this paper vs Czerner-Esparza vs the upper bounds
# ----------------------------------------------------------------------
@registry.register("E3")
def experiment_e3_lower_bounds(
    exponents: Sequence[int] = (1, 2, 3, 4, 6, 8, 10, 12, 16, 20),
    bound_parameter: int = 2,
) -> ExperimentTable:
    """Lower/upper state-complexity bounds along the family ``n = 2^(2^j)``.

    Shows the gap closed by the paper: the inverse-Ackermann lower bound of
    PODC'21 is constant (<= 3) for every physically meaningful ``n``, while
    the paper's ``(log log n)^h`` bound tracks the ``O(log log n)`` upper
    bound up to the square-root exponent.
    """
    table = ExperimentTable(
        experiment_id="E3",
        title="state-complexity bounds along n = 2^(2^j)",
        columns=[
            "j",
            "log2 log2 n",
            "Czerner-Esparza A^{-1}(n)",
            "Leroux h=0.3",
            "Leroux h=0.4",
            "Leroux h=0.49",
            "BEJ upper (leaders)",
            "BEJ upper (leaderless)",
        ],
    )
    for exponent in exponents:
        # n = 2^(2^exponent); work with logs to avoid materializing huge ints
        # where possible, but the lower-bound formulas want the real n for
        # small exponents.  log2 log2 n == exponent exactly.
        n = 2 ** (2 ** exponent) if exponent <= 20 else None
        loglog = float(exponent)
        if n is not None:
            czerner = czerner_esparza_lower_bound(min(n, 10 ** 6))
            leroux = {
                h: corollary_4_4_lower_bound(n, bound_parameter, h) for h in (0.3, 0.4, 0.49)
            }
        else:
            czerner = 3
            leroux = {
                h: max((loglog - math.log2(math.log2(10 * bound_parameter))) ** h - 2, 0.0)
                for h in (0.3, 0.4, 0.49)
            }
        table.add_row(
            **{
                "j": exponent,
                "log2 log2 n": loglog,
                "Czerner-Esparza A^{-1}(n)": czerner,
                "Leroux h=0.3": leroux[0.3],
                "Leroux h=0.4": leroux[0.4],
                "Leroux h=0.49": leroux[0.49],
                "BEJ upper (leaders)": loglog,
                "BEJ upper (leaderless)": float(2 ** exponent),
            }
        )
    return table


# ----------------------------------------------------------------------
# E4 — Rackoff bound vs measured covering word lengths
# ----------------------------------------------------------------------
def _e4_instances() -> List[dict]:
    """The coverability instances of experiment E4."""
    instances: List[dict] = []
    for threshold in (2, 3, 4):
        protocol = flock_of_birds_protocol(threshold)
        net = protocol.petri_net
        source = protocol.initial_configuration(protocol.counting_input(threshold))
        target = Configuration.unit(threshold)
        instances.append(
            {"name": f"flock(n={threshold})", "net": net, "source": source, "target": target}
        )
    for threshold in (1, 2, 3):
        protocol = example_4_2_protocol(threshold)
        net = protocol.petri_net
        source = protocol.initial_configuration(protocol.counting_input(threshold))
        target = Configuration.unit(STATE_P)
        instances.append(
            {"name": f"ex4.2(n={threshold})", "net": net, "source": source, "target": target}
        )
    return instances


@registry.register("E4")
def experiment_e4_rackoff(max_nodes: int = 200000) -> ExperimentTable:
    """Lemma 5.3: measured shortest covering word length vs the Rackoff bound."""
    table = ExperimentTable(
        experiment_id="E4",
        title="Rackoff coverability bound vs measured shortest covering words",
        columns=["instance", "|P|", "||T||_inf", "measured length", "log2 Rackoff bound"],
        notes="the bound is doubly exponential; measured witnesses stay tiny",
    )
    for instance in _e4_instances():
        net: PetriNet = instance["net"]
        word = shortest_covering_word(net, instance["source"], instance["target"], max_nodes=max_nodes)
        measured = len(word) if word is not None else -1
        bound = rackoff_bound(instance["target"], net)
        table.add_row(
            **{
                "instance": instance["name"],
                "|P|": net.num_states,
                "||T||_inf": net.max_value,
                "measured length": measured,
                "log2 Rackoff bound": math.log2(bound) if bound > 0 else 0.0,
            }
        )
    return table


# ----------------------------------------------------------------------
# E5 — Lemma 5.4: stabilized configurations and their certificates
# ----------------------------------------------------------------------
@registry.register("E5")
def experiment_e5_stability(
    leader_counts: Sequence[int] = (1, 2, 3),
    extra_agents: int = 3,
) -> ExperimentTable:
    """Lemma 5.4: certificates transfer stability to every configuration below on ``R``.

    Uses Example 4.2: the all-rejecting configurations (everything in the
    barred states) are 0-output stable, i.e. ``(T, F)``-stabilized for
    ``F = {i_bar, p_bar, q_bar}``.  The experiment builds the certificate of a
    stabilized configuration and counts how many configurations it certifies,
    cross-checking each against the exact (backward-coverability) test.
    """
    table = ExperimentTable(
        experiment_id="E5",
        title="Lemma 5.4: small-value certificates for stabilized configurations",
        columns=[
            "leaders",
            "stabilized config",
            "certified",
            "checked",
            "agreement",
            "threshold (log2)",
        ],
    )
    net = example_4_2_petri_net()
    allowed = frozenset({STATE_I_BAR, STATE_P_BAR, STATE_Q_BAR})
    for leaders in leader_counts:
        base = Configuration({STATE_I_BAR: leaders})
        assert is_stabilized(net, base, allowed)
        certificate = stabilization_certificate(net, base, allowed)
        # Candidate configurations: everything over the barred states with a few
        # extra agents, plus configurations that also populate accepting states.
        candidates = []
        for i_bar in range(leaders + extra_agents):
            for p_bar in range(extra_agents):
                for q_bar in range(extra_agents):
                    candidates.append(
                        Configuration(
                            {STATE_I_BAR: i_bar, STATE_P_BAR: p_bar, STATE_Q_BAR: q_bar}
                        )
                    )
        certified = 0
        agreement = 0
        for candidate in candidates:
            by_certificate = certificate.implies_stabilized(candidate)
            exact = is_stabilized(net, candidate, allowed)
            if by_certificate:
                certified += 1
                # Lemma 5.4 is an implication: certified must imply stabilized.
                if exact:
                    agreement += 1
        table.add_row(
            **{
                "leaders": leaders,
                "stabilized config": base.pretty(),
                "certified": certified,
                "checked": len(candidates),
                "agreement": agreement,
                "threshold (log2)": math.log2(certificate.threshold),
            }
        )
    return table


# ----------------------------------------------------------------------
# E6 — Theorem 6.1: bottom-configuration witnesses
# ----------------------------------------------------------------------
@registry.register("E6")
def experiment_e6_bottom(
    leader_counts: Sequence[int] = (1, 2, 3),
    max_nodes: int = 20000,
) -> ExperimentTable:
    """Theorem 6.1: measured witness sizes vs the doubly-exponential bound ``b``.

    Applies the theorem the way Section 8 does: to the restriction of the
    Example 4.2 net to ``P' = P \\ {i}`` starting from the leader
    configuration.
    """
    table = ExperimentTable(
        experiment_id="E6",
        title="Theorem 6.1: bottom-configuration witnesses (Example 4.2, restricted net)",
        columns=[
            "leaders",
            "|sigma|",
            "|w|",
            "|Q|",
            "component size",
            "log2 bound b",
        ],
    )
    base_net = example_4_2_petri_net()
    restricted_states = [s for s in base_net.states if s != "i"]
    net = base_net.restrict(restricted_states)
    for leaders in leader_counts:
        origin = Configuration({STATE_I_BAR: leaders})
        witness = find_bottom_witness(net, origin, max_nodes=max_nodes)
        log_bound = theorem_6_1_bound_log2(net, origin)
        if witness is None:
            table.add_row(
                **{
                    "leaders": leaders,
                    "|sigma|": -1,
                    "|w|": -1,
                    "|Q|": -1,
                    "component size": -1,
                    "log2 bound b": log_bound,
                }
            )
            continue
        table.add_row(
            **{
                "leaders": leaders,
                "|sigma|": len(witness.sigma),
                "|w|": len(witness.pump),
                "|Q|": len(witness.places),
                "component size": witness.component_size,
                "log2 bound b": log_bound,
            }
        )
    return table


# ----------------------------------------------------------------------
# E7 — Lemma 7.2: total cycles vs the |E||S| bound
# ----------------------------------------------------------------------
def _e7_component_nets() -> List[dict]:
    """Strongly connected control-state nets built from protocol components."""
    instances: List[dict] = []

    # Example 4.2 restricted to the barred/unbarred witnesses: the component of
    # configurations reachable by flipping p/q bar status.
    net = example_4_2_petri_net()
    for count in (1, 2):
        seed = Configuration({STATE_P: count, STATE_Q: count, STATE_I_BAR: 1})
        # The configurations mutually reachable with the seed.
        component = component_of(net, seed, max_nodes=5000)
        control = component_control_net(net, component)
        instances.append({"name": f"ex4.2 witnesses x{count}", "net": control})

    # A simple token-ring Petri net (cyclic, strongly connected by design).
    ring_states = ["r0", "r1", "r2", "r3"]
    ring_transitions = [
        Transition(Configuration({ring_states[i]: 1}), Configuration({ring_states[(i + 1) % 4]: 1}),
                   name=f"step{i}")
        for i in range(4)
    ]
    ring = PetriNet(ring_transitions, name="ring")
    component = list(ring.reachable_set([Configuration({"r0": 1})]))
    control = component_control_net(ring, component)
    instances.append({"name": "token ring", "net": control})
    return instances


@registry.register("E7")
def experiment_e7_cycles() -> ExperimentTable:
    """Lemma 7.2: the constructed total cycle stays within the ``|E||S|`` bound."""
    table = ExperimentTable(
        experiment_id="E7",
        title="Lemma 7.2: total-cycle length vs the |E||S| bound",
        columns=["instance", "|S|", "|E|", "total cycle length", "bound |E||S|", "within bound"],
    )
    for instance in _e7_component_nets():
        control = instance["net"]
        cycle = total_cycle(control)
        bound = total_cycle_length_bound(control)
        table.add_row(
            **{
                "instance": instance["name"],
                "|S|": control.num_control_states,
                "|E|": control.num_edges,
                "total cycle length": cycle.length,
                "bound |E||S|": bound,
                "within bound": cycle.length <= bound,
            }
        )
    return table


# ----------------------------------------------------------------------
# E8 — exhaustive verification of the constructions
# ----------------------------------------------------------------------
@registry.register("E8")
def experiment_e8_verification(
    flock_thresholds: Sequence[int] = (1, 2, 3),
    example_4_1_thresholds: Sequence[int] = (1, 2, 3),
    example_4_2_thresholds: Sequence[int] = (1, 2),
    succinct_thresholds: Sequence[int] = (2, 3, 4, 5, 6),
    extra_agents: int = 2,
) -> ExperimentTable:
    """Exhaustive verification of every construction on bounded populations."""
    table = ExperimentTable(
        experiment_id="E8",
        title="exhaustive stable-computation checks (bounded populations)",
        columns=["protocol", "states", "max agents", "inputs", "failures", "explored"],
    )

    def record(protocol, predicate, max_agents):
        report = check_protocol(protocol, predicate, max_agents=max_agents)
        table.add_row(
            **{
                "protocol": protocol.name,
                "states": protocol.num_states,
                "max agents": max_agents,
                "inputs": report.num_inputs,
                "failures": report.num_failures,
                "explored": report.total_explored,
            }
        )

    for threshold in flock_thresholds:
        record(
            flock_of_birds_protocol(threshold),
            flock_of_birds_predicate(threshold),
            threshold + extra_agents,
        )
    for threshold in example_4_1_thresholds:
        record(
            example_4_1_protocol(threshold),
            example_4_1_predicate(threshold),
            threshold + extra_agents,
        )
    for threshold in example_4_2_thresholds:
        record(
            example_4_2_protocol(threshold),
            example_4_2_predicate(threshold),
            threshold + extra_agents,
        )
    for threshold in succinct_thresholds:
        record(
            succinct_leaderless_protocol(threshold),
            succinct_leaderless_predicate(threshold),
            threshold + extra_agents,
        )
    return table


# ----------------------------------------------------------------------
# E9 — simulation throughput: native and compiled engines vs reference
# ----------------------------------------------------------------------
@registry.register("E9")
def experiment_e9_simulation_throughput(
    populations: Sequence[int] = (200, 1000),
    max_steps: int = 20000,
    seed: int = 2022,
) -> ExperimentTable:
    """Interaction throughput of the native and compiled engines vs the
    reference engine.

    Runs the majority protocol (two-thirds ``A`` majority) for ``max_steps``
    interactions under every engine with the same seed.  The engines consume
    the random stream identically, so the runs must agree step for step —
    the experiment checks this and raises if they diverge, making every
    benchmark run double as an equivalence check.
    """
    engines = ("reference", "compiled", "native")
    table = ExperimentTable(
        experiment_id="E9",
        title="simulation throughput: native and compiled vs reference engine (majority protocol)",
        columns=["population", "engine", "interactions", "seconds", "interactions/s", "speedup"],
        notes=(
            "same seed on every engine; trajectories are cross-checked to agree exactly, "
            "speedup is relative to the reference engine at the same population"
        ),
    )
    protocol = majority_protocol()
    for population in populations:
        majority_count = (2 * population) // 3
        inputs = Configuration(
            {STATE_A: majority_count, STATE_B: population - majority_count}
        )
        outcomes = {}
        for engine in engines:
            simulator = Simulator(protocol, seed=seed, engine=engine)
            start = time.perf_counter()
            result = simulator.run(inputs, max_steps=max_steps, stability_window=max_steps)
            elapsed = time.perf_counter() - start
            outcomes[engine] = (result, elapsed)
        reference_result, reference_elapsed = outcomes["reference"]
        for engine in engines:
            result, elapsed = outcomes[engine]
            agrees = (
                result.final == reference_result.final
                and result.steps == reference_result.steps
                and result.consensus == reference_result.consensus
                and result.consensus_step == reference_result.consensus_step
            )
            if not agrees:
                raise RuntimeError(
                    f"engine {engine!r} diverged from the reference trajectory "
                    f"at population {population}"
                )
            table.add_row(
                **{
                    "population": population,
                    "engine": engine,
                    "interactions": result.interactions_sampled,
                    "seconds": elapsed,
                    "interactions/s": interactions_per_second([result], elapsed),
                    "speedup": reference_elapsed / elapsed,
                }
            )
    return table


# ----------------------------------------------------------------------
# E10 — parallel batch throughput: process fan-out vs serial ensembles
# ----------------------------------------------------------------------
@registry.register("E10")
def experiment_e10_parallel_batch(
    population: int = 1000,
    repetitions: int = 32,
    worker_counts: Sequence[int] = (1, 2, 4),
    max_steps: int = 20000,
    seed: int = 2022,
) -> ExperimentTable:
    """Ensemble throughput of the parallel batch backend vs the serial one.

    Runs a ``repetitions``-strong majority ensemble (two-thirds ``A``
    majority at the given population) once serially and once per worker count
    under ``backend="process"``, all from the same master seed.  The batch
    subsystem derives per-repetition seeds before scheduling, so every
    backend must return the exact same per-run results — the experiment
    verifies this run for run and raises on any divergence, making the
    benchmark double as a determinism check.  Speedups are relative to the
    serial backend; on a single-core machine the process rows mostly measure
    fan-out overhead.  The load is the compiled engine, fixed so the rows
    measure the pool layer rather than whichever stepper ``auto`` picks.
    """
    table = ExperimentTable(
        experiment_id="E10",
        title="parallel batch throughput: process fan-out vs serial (majority ensemble)",
        columns=[
            "population",
            "backend",
            "workers",
            "repetitions",
            "interactions",
            "seconds",
            "interactions/s",
            "speedup",
        ],
        notes=(
            "same master seed everywhere; per-run results are cross-checked to be "
            "bit-identical across backends, speedup is relative to the serial backend"
        ),
    )
    protocol = majority_protocol()
    majority_count = (2 * population) // 3
    inputs = Configuration({STATE_A: majority_count, STATE_B: population - majority_count})

    def timed(**backend: Any):
        simulator = Simulator(protocol, seed=seed, engine="compiled")
        start = time.perf_counter()
        results = simulator.run_many(
            inputs, repetitions, max_steps=max_steps, stability_window=max_steps,
            **backend,
        )
        return results, time.perf_counter() - start

    serial_results, serial_elapsed = timed()
    interactions = sum(result.interactions_sampled for result in serial_results)
    table.add_row(
        **{
            "population": population,
            "backend": "serial",
            "workers": 1,
            "repetitions": repetitions,
            "interactions": interactions,
            "seconds": serial_elapsed,
            "interactions/s": interactions_per_second(serial_results, serial_elapsed),
            "speedup": 1.0,
        }
    )
    for workers in worker_counts:
        results, elapsed = timed(backend="process", max_workers=workers)
        if results != serial_results:
            raise RuntimeError(
                f"process backend with {workers} workers diverged from the serial "
                f"ensemble at population {population}"
            )
        table.add_row(
            **{
                "population": population,
                "backend": "process",
                "workers": workers,
                "repetitions": repetitions,
                # Recomputed from this backend's own results (not the serial
                # total) so the cross-backend equality is visible in the table.
                "interactions": sum(r.interactions_sampled for r in results),
                "seconds": elapsed,
                "interactions/s": interactions_per_second(results, elapsed),
                "speedup": serial_elapsed / elapsed,
            }
        )
    return table


# ----------------------------------------------------------------------
# E11 — large-net throughput: native engine vs compiled codegen vs reference
# ----------------------------------------------------------------------
def random_interaction_protocol(
    num_transitions: int,
    rng: random.Random,
    density: int = 6,
    agents_per_state: int = 4,
):
    """A random width-2 conservative protocol with ``num_transitions`` transitions.

    The generator for the large-net throughput experiments: transitions are
    distinct random pairwise interactions ``{a, b} -> {c, d}`` over
    ``max(12, num_transitions // density)`` states, so states are shared
    among many transitions the way the succinct-counting constructions share
    their counter states (``density`` controls the coupling: larger means
    fewer states per transition and denser ``affected`` sets).  Returns the
    protocol together with an input configuration placing
    ``agents_per_state`` agents on every state, which enables every
    transition initially.
    """
    num_states = max(12, num_transitions // density)
    # Feasibility: distinct keys are (unordered distinct pre pair) x
    # (unordered post pair with repetition); the rejection loop below would
    # otherwise spin forever on an unsatisfiable request.
    distinct = (num_states * (num_states - 1) // 2) * (num_states * (num_states + 1) // 2)
    if num_transitions > distinct:
        raise ValueError(
            f"cannot build {num_transitions} distinct width-2 transitions over "
            f"{num_states} states (only {distinct} exist); lower `density` to "
            "enlarge the state universe"
        )
    states = [f"q{i}" for i in range(num_states)]
    seen = set()
    transitions = []
    while len(transitions) < num_transitions:
        a, b = rng.sample(range(num_states), 2)
        c = rng.randrange(num_states)
        d = rng.randrange(num_states)
        # PetriNet deduplicates transitions by (pre, post), so reject
        # duplicates here to hit the requested transition count exactly.
        key = (tuple(sorted((a, b))), tuple(sorted((c, d))))
        if key in seen:
            continue
        seen.add(key)
        post = {states[c]: 2} if c == d else {states[c]: 1, states[d]: 1}
        transitions.append(
            Transition(
                {states[a]: 1, states[b]: 1}, post, name=f"t{len(transitions)}"
            )
        )
    net = PetriNet(transitions, states=states, name=f"random-{num_transitions}")
    # q0 says 1, everything else says 0: with agents spread over many states
    # a consensus is effectively never reached, so runs exercise the engines
    # for the whole step budget.
    output = {
        state: (OUTPUT_ONE if index == 0 else OUTPUT_ZERO)
        for index, state in enumerate(states)
    }
    protocol = Protocol.from_petri_net(
        net,
        leaders=Configuration({}),
        initial_states=states,
        output=output,
        name=f"random-{num_transitions}",
    )
    inputs = Configuration({state: agents_per_state for state in states})
    return protocol, inputs


def _reference_step_cost(
    protocol: Protocol, inputs: Configuration, seed: int, steps: int
) -> Tuple[float, float, Any]:
    """Build time, per-step run time and result of a short reference run.

    The denominator of the large-net experiments where the compiled engine
    cannot be built: the reference engine recomputes every weight each step,
    so its per-step cost is flat and a short run extrapolates linearly.
    """
    start = time.perf_counter()
    simulator = Simulator(protocol, seed=seed, engine="reference")
    build = time.perf_counter() - start
    start = time.perf_counter()
    result = simulator.run(inputs, max_steps=steps, stability_window=steps)
    elapsed = time.perf_counter() - start
    return build, elapsed / max(result.steps, 1), result


@registry.register("E11")
def experiment_e11_large_net_throughput(
    transition_counts: Sequence[int] = (50, 200, 1000, 2000, 5000),
    max_steps: int = 4000,
    seed: int = 2022,
    net_seed: int = 11,
    density: int = 6,
    reference_up_to: int = 200,
    compiled_up_to: int = 8192,
    reference_fallback_steps: int = 250,
) -> ExperimentTable:
    """Engine throughput on random nets swept over the transition count.

    For each size, the same seeded random width-2 net is simulated with the
    same run seed on every engine, and the engines are cross-checked to agree
    on the final configuration, step count, consensus and consensus step (the
    experiment raises on divergence; exact step-for-step trajectory equality
    is asserted by the recorded-trajectory tests in the test suite).  Two costs are
    reported per engine: the steady-state interaction throughput and the
    one-off engine build time (stepper codegen for the compiled engine,
    table construction for the native engine), with speedups relative to the
    compiled engine both excluding (``speedup``) and including
    (``e2e speedup``) the build.

    The compiled engine's per-step dispatch walks one branch per transition,
    so its throughput falls linearly with the transition count while the
    native engine's blocked pick costs ``O(sqrt |T|)``; and at a few
    thousand transitions (between 2500 and 3000 on CPython 3.11) the
    generated dispatch chain overflows the CPython compiler's recursion
    guard and cannot be built at all — the default sweep's 5000-transition
    point records that real failure as an empty ``engine="compiled"`` row.
    Set ``compiled_up_to`` below a sweep point to skip hopeless (or merely
    slow) codegen attempts instead of demonstrating them.

    The reference engine is only measured up to ``reference_up_to``
    transitions (it recomputes every weight per step, so large sweeps would
    dominate the experiment's runtime).

    Where the compiled engine cannot provide the speedup denominator (its
    dispatch chain fails to build, or codegen was skipped via
    ``compiled_up_to``), the baseline falls back to the reference engine
    timed over ``reference_fallback_steps`` steps and extrapolated linearly
    to the sweep's step budget — so the 5000-transition rows report a real
    speedup instead of empty cells.  Every row's ``baseline`` column names
    the denominator it used (``compiled``, or the labeled extrapolation),
    and extrapolated baselines are excluded from the cross-engine agreement
    check (their runs use a different step budget).
    """
    table = ExperimentTable(
        experiment_id="E11",
        title="large-net throughput: native engine vs compiled codegen (random width-2 nets)",
        columns=[
            "transitions",
            "states",
            "engine",
            "build s",
            "run s",
            "interactions",
            "interactions/s",
            "speedup",
            "e2e speedup",
            "baseline",
        ],
        notes=(
            "same net and run seed per row group; engines cross-checked to agree "
            "on final configuration, steps and consensus; speedups are relative "
            "to the engine named in the baseline column — the compiled engine "
            "(run only vs build+run), falling back to a reference-engine timing "
            "extrapolated from a short run where codegen fails; empty compiled "
            "rows mean the generated stepper exceeded the CPython compiler's "
            "limits"
        ),
    )
    for num_transitions in transition_counts:
        protocol, inputs = random_interaction_protocol(
            num_transitions, random.Random(net_seed), density=density
        )
        engines = []
        if num_transitions <= reference_up_to:
            engines.append("reference")
        engines += ["compiled", "native"]
        outcomes = {}
        for engine in engines:
            if engine == "compiled" and num_transitions > compiled_up_to:
                outcomes[engine] = None
                continue
            start = time.perf_counter()
            try:
                simulator = Simulator(protocol, seed=seed, engine=engine)
            except RecursionError:
                # The generated dispatch chain exceeded the CPython
                # compiler's recursion guard: record the failure as an empty
                # row rather than aborting the sweep.
                outcomes[engine] = None
                continue
            build = time.perf_counter() - start
            # The engines are deterministic for a fixed seed, so repeated runs
            # retrace the same trajectory; keep the fastest of two timings.
            run_elapsed = None
            for _ in range(2):
                run_simulator = Simulator(protocol, seed=seed, engine=engine)
                start = time.perf_counter()
                result = run_simulator.run(
                    inputs, max_steps=max_steps, stability_window=max_steps
                )
                elapsed = time.perf_counter() - start
                run_elapsed = elapsed if run_elapsed is None else min(run_elapsed, elapsed)
            outcomes[engine] = (build, run_elapsed, result)
        baseline = outcomes.get("compiled")
        baseline_label = "compiled"
        baseline_result = baseline[2] if baseline is not None else None
        if baseline is None and any(
            outcome is not None for outcome in outcomes.values()
        ):
            # Codegen failed (or was skipped): synthesize the denominator
            # from a short reference run, scaled linearly to the sweep's
            # step budget; the label records it was not a full-length run.
            fallback_build, per_step, fallback_result = _reference_step_cost(
                protocol, inputs, seed, reference_fallback_steps
            )
            if fallback_result.steps:
                baseline = (fallback_build, per_step * max_steps)
                baseline_label = (
                    "reference (extrapolated from "
                    f"{fallback_result.steps} steps)"
                )
        for engine in engines:
            outcome = outcomes[engine]
            if outcome is None:
                table.add_row(
                    **{
                        "transitions": num_transitions,
                        "states": protocol.petri_net.num_states,
                        "engine": engine,
                        "build s": None,
                        "run s": None,
                        "interactions": None,
                        "interactions/s": None,
                        "speedup": None,
                        "e2e speedup": None,
                        "baseline": None,
                    }
                )
                continue
            build, run_elapsed, result = outcome
            if baseline_result is not None:
                reference_result = baseline_result
                agrees = (
                    result.final == reference_result.final
                    and result.steps == reference_result.steps
                    and result.consensus == reference_result.consensus
                    and result.consensus_step == reference_result.consensus_step
                    and result.interactions_sampled == reference_result.interactions_sampled
                )
                if not agrees:
                    raise RuntimeError(
                        f"engine {engine!r} diverged from the compiled trajectory "
                        f"at {num_transitions} transitions"
                    )
            table.add_row(
                **{
                    "transitions": num_transitions,
                    "states": protocol.petri_net.num_states,
                    "engine": engine,
                    "build s": build,
                    "run s": run_elapsed,
                    "interactions": result.interactions_sampled,
                    "interactions/s": interactions_per_second([result], run_elapsed),
                    "speedup": None if baseline is None else baseline[1] / run_elapsed,
                    "e2e speedup": (
                        None
                        if baseline is None
                        else (baseline[0] + baseline[1]) / (build + run_elapsed)
                    ),
                    "baseline": None if baseline is None else baseline_label,
                }
            )
    return table


# ----------------------------------------------------------------------
# E12 — parameter sweep: grids over (protocol x population x engine)
# ----------------------------------------------------------------------
@registry.register("E12")
def experiment_e12_parameter_sweep(
    populations: Sequence[int] = (24, 48),
    engines: Sequence[str] = ("compiled", "reference"),
    schedulers: Sequence[str] = ("uniform",),
    repetitions: int = 4,
    max_steps: int = 20000,
    stability_window: int = 500,
    master_seed: int = 2022,
    backend: str = "serial",
    max_workers: Optional[int] = None,
    store_path: Optional[str] = None,
) -> ExperimentTable:
    """Convergence statistics of majority/succinct swept over populations and engines.

    Drives the sweep harness (:mod:`repro.sweep`) end to end from the
    experiment registry: a :class:`~repro.sweep.spec.SweepSpec` over the
    majority protocol and the succinct counting construction (threshold 8),
    expanded to its deterministic cell grid and executed through a
    :class:`~repro.sweep.runner.SweepRunner`.  Engine rows of one grid point
    share their ensemble seed, so their statistics must agree exactly — the
    experiment raises on any divergence, extending the E9/E11 cross-engine
    checks to whole ensembles.

    With ``store_path`` (a ``.sqlite`` file) the table is additionally
    persisted and resumable on disk; the default runs against an in-memory
    sqlite store.  ``backend`` and
    ``max_workers`` select the batch backend exactly as for
    :class:`~repro.sweep.runner.SweepRunner`.
    """
    from ..sweep import SqliteResultStore, SweepRunner, SweepSpec, open_store
    from ..sweep.runner import to_experiment_table
    from ..sweep.spec import KEYFIELDS

    spec = SweepSpec(
        protocols=("majority", ("succinct", {"threshold": 8})),
        populations=populations,
        schedulers=schedulers,
        engines=engines,
        repetitions=repetitions,
        master_seed=master_seed,
        max_steps=max_steps,
        stability_window=stability_window,
    )
    store = open_store(store_path) if store_path else SqliteResultStore(":memory:")
    with store:
        report = SweepRunner(
            spec, store, backend=backend, max_workers=max_workers
        ).run()
        rows = store.rows()
        table = to_experiment_table(
            store,
            experiment_id="E12",
            title="parameter sweep: majority/succinct over populations and engines",
        )
    if not report.complete:
        failing = [
            f"{row['cell']}: {row['error']}"
            for row in rows
            if row["status"] == "error"
        ]
        raise RuntimeError(
            f"sweep did not complete ({report.failed} failed): " + "; ".join(failing)
        )
    # Engine rows of one grid point ran the same seeds, so their statistics
    # must be identical — assert it instead of trusting it.
    statistic_columns = ("runs", "converged", "mean_steps", "median_steps",
                        "min_steps", "max_steps", "mean_consensus_step")
    by_point = {}
    for row in rows:
        point = tuple(row[key] for key in KEYFIELDS if key != "engine")
        statistics = tuple(row[column] for column in statistic_columns)
        previous = by_point.setdefault(point, (row["engine"], statistics))
        if previous[1] != statistics:
            raise RuntimeError(
                f"engine {row['engine']!r} diverged from {previous[0]!r} on "
                f"grid point {point}"
            )
    return table


# ----------------------------------------------------------------------
# E13 — analytics sweep: trajectory-derived metrics across engines/schedulers
# ----------------------------------------------------------------------
@registry.register("E13")
def experiment_e13_analytics_sweep(
    populations: Sequence[int] = (18, 30),
    engines: Sequence[str] = ("compiled", "reference"),
    schedulers: Sequence[str] = ("uniform", "transition"),
    repetitions: int = 4,
    max_steps: int = 20000,
    stability_window: int = 500,
    master_seed: int = 2022,
    backend: str = "serial",
    max_workers: Optional[int] = None,
    store_path: Optional[str] = None,
) -> ExperimentTable:
    """Trajectory analytics of majority/modulo across engines and schedulers.

    Drives the analytics subsystem (:mod:`repro.analytics`) end to end
    through the sweep harness: an analytics-enabled
    :class:`~repro.sweep.spec.SweepSpec` over the majority protocol and the
    remainder predicate, with per-cell metric extraction running *inside the
    batch workers* — predicate accuracy, convergence-time quantiles and the
    top fired transitions land as persisted table columns.

    The experiment doubles as a cross-engine analytics check: engine rows of
    one grid point share their ensemble seed, so their trajectory-derived
    columns (not just their convergence statistics) must agree exactly —
    the run raises on any divergence.  Scheduler rows, by contrast, sample
    genuinely different dynamics; the table shows how the uniform and
    transition disciplines reshape both convergence times and the firing
    histogram.
    """
    from ..analytics.report import report_table
    from ..sweep import SqliteResultStore, SweepRunner, SweepSpec, open_store
    from ..sweep.spec import KEYFIELDS
    from ..sweep.store import ANALYTICS_COLUMNS

    spec = SweepSpec(
        protocols=("majority", ("modulo", {"modulus": 3, "remainder": 1})),
        populations=populations,
        schedulers=schedulers,
        engines=engines,
        repetitions=repetitions,
        master_seed=master_seed,
        max_steps=max_steps,
        stability_window=stability_window,
        analytics=True,
    )
    store = open_store(store_path) if store_path else SqliteResultStore(":memory:")
    with store:
        report = SweepRunner(
            spec, store, backend=backend, max_workers=max_workers
        ).run()
        rows = store.rows()
        table = report_table(
            store,
            experiment_id="E13",
            title="trajectory analytics: majority/modulo across engines and schedulers",
        )
    if not report.complete:
        failing = [
            f"{row['cell']}: {row['error']}"
            for row in rows
            if row["status"] == "error"
        ]
        raise RuntimeError(
            f"analytics sweep did not complete ({report.failed} failed): "
            + "; ".join(failing)
        )
    # Engine rows of one grid point ran the same seeds, so the
    # trajectory-derived analytics — not just the summary statistics — must
    # be identical across engines.
    comparison_columns = ANALYTICS_COLUMNS + ("runs", "converged", "mean_steps")
    by_point = {}
    for row in rows:
        point = tuple(row[key] for key in KEYFIELDS if key != "engine")
        values = tuple(row[column] for column in comparison_columns)
        previous = by_point.setdefault(point, (row["engine"], values))
        if previous[1] != values:
            raise RuntimeError(
                f"analytics of engine {row['engine']!r} diverged from "
                f"{previous[0]!r} on grid point {point}"
            )
        if row["accuracy"] is None or row["accuracy"] < 1.0:
            raise RuntimeError(
                f"cell {row['cell']} scored accuracy {row['accuracy']!r}; "
                "the majority/modulo protocols should stabilize correctly "
                "within this budget"
            )
    return table


# ----------------------------------------------------------------------
# E14 — seed-list throughput: one native call per seed list
# ----------------------------------------------------------------------
#: The largest net E14 builds the compiled engine for: its codegen takes
#: seconds per thousand transitions and fails from ~2500 transitions on.
_E14_COMPILED_UP_TO = 2000
#: Steps of the short reference run that E14 extrapolates beyond it.
_E14_REFERENCE_STEPS = 250


@registry.register("E14")
def experiment_e14_ensemble_throughput(
    transition_counts: Sequence[int] = (1000, 5000, 20000, 50000),
    repetition_counts: Sequence[int] = (64, 128),
    max_steps: int = 600,
    seed: int = 2022,
    net_seed: int = 11,
    density: int = 6,
) -> ExperimentTable:
    """Ensemble throughput of native seed lists on random nets, swept over
    size and repetitions.

    For each net size, the same seeded random width-2 net (the E11
    generator) is simulated as a ``reps``-strong ensemble with
    ``engine="native"``: ``Simulator.run_many`` hands the whole seed list to
    one native call that seeds every generator inside C.  Up to 2000
    transitions the same ensemble also runs on the compiled engine, every
    native row must be **bit-identical** to its compiled counterpart (the
    experiment raises on any divergence), and the compiled wall time is the
    speedup's denominator.  Beyond that the compiled engine cannot be built
    (its generated dispatch chain overflows the CPython compiler from ~2500
    transitions on), so the denominator is E11's reference engine timed over
    250 steps and extrapolated to the ensemble's total step count; that
    short reference run is cross-checked against a native run of the same
    budget.  The ``baseline`` column names the denominator.  ``build s`` is
    the one-time engine construction (stepper tables or codegen plus a
    one-step run), excluded from the speedup.
    """
    table = ExperimentTable(
        experiment_id="E14",
        title='seed-list throughput: engine="native" (one call per seed list) on random nets',
        columns=[
            "transitions",
            "states",
            "reps",
            "engine",
            "build s",
            "run s",
            "interactions",
            "interactions/s",
            "speedup",
            "baseline",
        ],
        notes=(
            "same net and derived per-repetition seeds per row group; native "
            "rows are checked bit-identical to the compiled ones where the "
            "compiled engine builds, and against a short reference run "
            "otherwise; speedup is the baseline's wall time (compiled, or the "
            "extrapolated reference) over the native wall time, build excluded"
        ),
    )
    compare_fields = (
        "final",
        "steps",
        "consensus",
        "consensus_step",
        "terminated",
        "interactions_sampled",
    )
    for num_transitions in transition_counts:
        protocol, inputs = random_interaction_protocol(
            num_transitions, random.Random(net_seed), density=density
        )
        engines = ["native"]
        if num_transitions <= _E14_COMPILED_UP_TO:
            engines.insert(0, "compiled")
        builds = {}
        for engine in engines:
            # One-time engine build: simulator construction plus a 1-step
            # run.  The compiled net and the native tables are cached on
            # the Petri net, so later simulators reuse them.
            start = time.perf_counter()
            Simulator(protocol, seed=seed, engine=engine).run_many(
                inputs, 1, max_steps=1, stability_window=1
            )
            builds[engine] = time.perf_counter() - start
        per_step = None
        if "compiled" not in engines:
            _, per_step, short = _reference_step_cost(
                protocol, inputs, seed, _E14_REFERENCE_STEPS
            )
            native_short = Simulator(protocol, seed=seed, engine="native").run(
                inputs, max_steps=_E14_REFERENCE_STEPS,
                stability_window=_E14_REFERENCE_STEPS,
            )
            if any(
                getattr(native_short, field) != getattr(short, field)
                for field in compare_fields
            ):
                raise RuntimeError(
                    f"native engine diverged from the reference engine at "
                    f"{num_transitions} transitions"
                )
            baseline_label = (
                f"reference (extrapolated from {short.steps} steps)"
            )
        else:
            baseline_label = "compiled"
        for reps in repetition_counts:
            outcomes = {}
            for engine in engines:
                # Deterministic for a fixed seed: repeated calls retrace the
                # same trajectories, so keep the fastest of two timings.
                elapsed_best = None
                results = None
                for _ in range(2):
                    simulator = Simulator(protocol, seed=seed, engine=engine)
                    start = time.perf_counter()
                    results = simulator.run_many(
                        inputs,
                        reps,
                        max_steps=max_steps,
                        stability_window=max_steps,
                    )
                    elapsed = time.perf_counter() - start
                    elapsed_best = (
                        elapsed
                        if elapsed_best is None
                        else min(elapsed_best, elapsed)
                    )
                outcomes[engine] = (elapsed_best, results)
            native_elapsed, native_results = outcomes["native"]
            if "compiled" in outcomes:
                baseline_elapsed, compiled_results = outcomes["compiled"]
                for index, (compiled, native) in enumerate(
                    zip(compiled_results, native_results)
                ):
                    if any(
                        getattr(compiled, field) != getattr(native, field)
                        for field in compare_fields
                    ):
                        raise RuntimeError(
                            f"native row {index} diverged from the compiled "
                            f"engine at {num_transitions} transitions, "
                            f"{reps} repetitions"
                        )
            else:
                baseline_elapsed = per_step * sum(
                    result.steps for result in native_results
                )
            for engine in engines:
                elapsed, results = outcomes[engine]
                table.add_row(
                    **{
                        "transitions": num_transitions,
                        "states": protocol.petri_net.num_states,
                        "reps": reps,
                        "engine": engine,
                        "build s": builds[engine],
                        "run s": elapsed,
                        "interactions": sum(
                            result.interactions_sampled for result in results
                        ),
                        "interactions/s": interactions_per_second(
                            results, elapsed
                        ),
                        "speedup": baseline_elapsed / elapsed,
                        "baseline": baseline_label,
                    }
                )
    return table
