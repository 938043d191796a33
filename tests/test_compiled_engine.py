"""Equivalence and unit tests for the compiled simulation engine.

The compiled engine (dense counts array + generated stepper) must produce
*identical* trajectories to the sparse reference engine for every
``(protocol, inputs, seed)``: same final configuration, same step counts,
same consensus value and consensus step, same termination flag.  These tests
assert that across the majority, modulo and flock-of-birds protocols (plus a
leader-based succinct protocol and a non-conservative net), for full runs,
truncated prefixes of runs, both built-in schedulers, and batched runs — and
across a seeded property-style sweep of random small nets (random pre/post
multisets) that goes beyond the named protocols.
"""

import random
import re

import pytest

from engines import ENGINES
from repro.core import Configuration, Protocol, Transition, from_counts
from repro.core.petrinet import PetriNet
from repro.core.protocol import OUTPUT_ONE, OUTPUT_UNDEFINED, OUTPUT_ZERO
from repro.protocols import (
    flock_of_birds_protocol,
    majority_protocol,
    modulo_initial_state,
    modulo_protocol,
    succinct_initial_state,
    succinct_leaderless_protocol,
)
from repro.simulation import (
    Scheduler,
    Simulator,
    TransitionScheduler,
    UniformScheduler,
    WorkerPool,
    repetition_seeds,
)


def _cases():
    return [
        ("majority", majority_protocol(), from_counts(A=21, B=14)),
        ("modulo", modulo_protocol(3, 1), Configuration({modulo_initial_state(): 16})),
        ("flock-of-birds", flock_of_birds_protocol(5), Configuration({1: 12})),
    ]


CASES = _cases()
CASE_IDS = [name for name, _, _ in CASES]


def assert_same_result(fast, reference):
    assert fast.final == reference.final
    assert fast.steps == reference.steps
    assert fast.consensus == reference.consensus
    assert fast.consensus_step == reference.consensus_step
    assert fast.terminated == reference.terminated
    assert fast.interactions_sampled == reference.interactions_sampled
    assert fast.initial == reference.initial


class TestEquivalenceWithReferenceEngine:
    @pytest.mark.parametrize("name,protocol,inputs", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_full_runs_match(self, name, protocol, inputs, seed):
        reference = Simulator(protocol, engine="reference", seed=seed).run(
            inputs, max_steps=4000, stability_window=150
        )
        fast = Simulator(protocol, engine="compiled", seed=seed).run(
            inputs, max_steps=4000, stability_window=150
        )
        assert_same_result(fast, reference)

    @pytest.mark.parametrize("name,protocol,inputs", CASES, ids=CASE_IDS)
    def test_trajectory_prefixes_match(self, name, protocol, inputs):
        # Truncating the same seeded run at several step budgets compares the
        # trajectories step for step, not just their endpoints.
        for max_steps in (1, 2, 3, 5, 10, 50, 250):
            reference = Simulator(protocol, engine="reference", seed=42).run(
                inputs, max_steps=max_steps, stability_window=10 ** 9
            )
            fast = Simulator(protocol, engine="compiled", seed=42).run(
                inputs, max_steps=max_steps, stability_window=10 ** 9
            )
            assert_same_result(fast, reference)

    @pytest.mark.parametrize("name,protocol,inputs", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_transition_scheduler_matches(self, name, protocol, inputs, seed):
        reference = Simulator(
            protocol, scheduler=TransitionScheduler(), engine="reference", seed=seed
        ).run(inputs, max_steps=2000, stability_window=150)
        fast = Simulator(
            protocol, scheduler=TransitionScheduler(), engine="compiled", seed=seed
        ).run(inputs, max_steps=2000, stability_window=150)
        assert_same_result(fast, reference)

    def test_leader_protocol_matches(self):
        protocol = succinct_leaderless_protocol(8)
        inputs = Configuration({succinct_initial_state(): 12})
        for seed in (3, 11):
            reference = Simulator(protocol, engine="reference", seed=seed).run(
                inputs, max_steps=3000, stability_window=500
            )
            fast = Simulator(protocol, engine="compiled", seed=seed).run(
                inputs, max_steps=3000, stability_window=500
            )
            assert_same_result(fast, reference)

    def test_run_many_matches_run_for_run(self):
        protocol = majority_protocol()
        inputs = from_counts(A=9, B=4)
        reference = Simulator(protocol, engine="reference", seed=17).run_many(
            inputs, repetitions=6, max_steps=3000
        )
        fast = Simulator(protocol, engine="compiled", seed=17).run_many(
            inputs, repetitions=6, max_steps=3000
        )
        assert len(fast) == len(reference) == 6
        for fast_result, reference_result in zip(fast, reference):
            assert_same_result(fast_result, reference_result)

    def test_terminal_configuration_matches(self):
        # A single below-threshold agent can never interact: both engines
        # must report an immediately terminal run with consensus 0.
        protocol = flock_of_birds_protocol(3)
        inputs = Configuration({1: 1})
        for engine in ("reference", "compiled"):
            result = Simulator(protocol, engine=engine, seed=0).run(inputs)
            assert result.terminated
            assert result.steps == 0
            assert result.consensus == 0
            assert result.consensus_step == 0

    def test_non_conservative_net_matches(self):
        # Spawning and dying transitions change the population size; the
        # consensus counters must track the moving total.
        net = PetriNet(
            [
                Transition({"s": 1}, {"s": 2}, name="spawn"),
                Transition({"s": 3}, {"s": 1}, name="cull"),
                Transition({"s": 1}, {"d": 1}, name="defect"),
                Transition({"s": 1, "d": 1}, {"s": 2}, name="recruit"),
            ],
            name="spawner",
        )
        protocol = Protocol.from_petri_net(
            net,
            leaders=Configuration({}),
            initial_states=["s"],
            output={"s": OUTPUT_ONE, "d": OUTPUT_ZERO},
            name="spawner",
        )
        inputs = Configuration({"s": 3})
        for seed in (0, 2, 9):
            reference = Simulator(protocol, engine="reference", seed=seed).run(
                inputs, max_steps=400, stability_window=10 ** 9
            )
            fast = Simulator(protocol, engine="compiled", seed=seed).run(
                inputs, max_steps=400, stability_window=10 ** 9
            )
            assert_same_result(fast, reference)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulator(majority_protocol(), engine="turbo")

    def test_custom_scheduler_falls_back_in_auto_mode(self):
        class FirstEnabled(Scheduler):
            def choose(self, net, configuration, rng):
                for transition in net.transitions:
                    if transition.is_enabled(configuration):
                        return transition
                return None

        simulator = Simulator(majority_protocol(), scheduler=FirstEnabled(), seed=0)
        assert simulator._stepper is None  # reference path
        result = simulator.run(from_counts(A=3, B=1), max_steps=500)
        assert result.consensus == 1

    def test_custom_scheduler_rejected_in_compiled_mode(self):
        class FirstEnabled(Scheduler):
            def choose(self, net, configuration, rng):
                return None

        with pytest.raises(ValueError, match="no compiled fast path"):
            Simulator(majority_protocol(), scheduler=FirstEnabled(), engine="compiled")

    def test_overridden_choose_disables_the_fast_path(self):
        class Biased(UniformScheduler):
            def choose(self, net, configuration, rng):
                return super().choose(net, configuration, rng)

        class BiasedWeights(UniformScheduler):
            @staticmethod
            def _weight(transition, configuration):
                return 1

        assert UniformScheduler().compiled_kind() == "uniform"
        assert TransitionScheduler().compiled_kind() == "transition"
        assert Biased().compiled_kind() is None
        assert BiasedWeights().compiled_kind() is None

    def test_unknown_states_fall_back_in_auto_mode(self):
        protocol = majority_protocol()
        strange = Configuration({"Z": 2})
        auto = Simulator(protocol, engine="auto", seed=0).run_from(strange, max_steps=100)
        reference = Simulator(protocol, engine="reference", seed=0).run_from(
            strange, max_steps=100
        )
        assert_same_result(auto, reference)
        assert auto.terminated

    def test_unknown_states_rejected_in_compiled_mode(self):
        simulator = Simulator(majority_protocol(), engine="compiled", seed=0)
        with pytest.raises(ValueError, match="outside the compiled universe"):
            simulator.run_from(Configuration({"Z": 2}))

    def test_simulate_accepts_engine(self):
        from repro.simulation import simulate

        protocol = flock_of_birds_protocol(3)
        inputs = Configuration({1: 5})
        fast = simulate(protocol, inputs, seed=42, max_steps=20000, engine="compiled")
        reference = simulate(protocol, inputs, seed=42, max_steps=20000, engine="reference")
        assert_same_result(fast, reference)
        assert fast.consensus == 1


class TestCompiledNet:
    def test_dense_indexing_round_trips(self):
        net = majority_protocol().petri_net
        compiled = net.compiled()
        assert set(compiled.index_of) == set(net.states)
        assert sorted(compiled.index_of.values()) == list(range(compiled.num_states))
        configuration = from_counts(A=3, b=2)
        counts = compiled.counts_of(configuration)
        assert compiled.configuration_of(counts) == configuration

    def test_counts_of_unknown_state_returns_none(self):
        compiled = majority_protocol().petri_net.compiled()
        assert compiled.counts_of(Configuration({"Z": 1})) is None

    def test_counts_of_reuses_the_buffer(self):
        compiled = majority_protocol().petri_net.compiled()
        buffer = [7] * compiled.num_states
        counts = compiled.counts_of(from_counts(A=2), out=buffer)
        assert counts is buffer
        assert sum(counts) == 2

    def test_deltas_match_transition_displacements(self):
        net = majority_protocol().petri_net
        compiled = net.compiled()
        for transition, delta in zip(net.transitions, compiled.delta_lists):
            displacement = transition.displacement()
            assert {compiled.states[i]: d for i, d in delta} == displacement

    def test_affected_covers_transitions_reading_changed_states(self):
        net = majority_protocol().petri_net
        compiled = net.compiled()
        for t, delta in enumerate(compiled.delta_lists):
            changed = {i for i, _ in delta}
            for u, pre in enumerate(compiled.pre_lists):
                reads = {i for i, _ in pre}
                if reads & changed:
                    assert u in compiled.affected[t]

    def test_compiled_hook_caches_per_universe(self):
        net = majority_protocol().petri_net
        assert net.compiled() is net.compiled()
        # Extra states already in the net normalize to the cached instance.
        assert net.compiled(extra_states=["A"]) is net.compiled()
        enlarged = net.compiled(extra_states=["X"])
        assert enlarged is not net.compiled()
        assert enlarged is net.compiled(extra_states=["X"])
        assert "X" in enlarged.index_of

    def test_stepper_is_cached_and_carries_source(self):
        protocol = majority_protocol()
        compiled = protocol.petri_net.compiled(extra_states=protocol.states)
        classes = compiled.output_classes(protocol.output_table)
        stepper = compiled.stepper("uniform", classes)
        assert compiled.stepper("uniform", classes) is stepper
        assert stepper.__code__.co_filename.startswith("<compiled stepper: ")
        assert "total" in compiled.stepper_source("uniform", classes)

    def test_unknown_kind_rejected(self):
        compiled = majority_protocol().petri_net.compiled()
        with pytest.raises(ValueError, match="unknown compiled scheduler kind"):
            compiled.stepper("fifo", compiled.output_classes({}))


def _random_multiset(rng, states, min_size, max_size):
    """A random configuration over ``states`` with ``min_size..max_size`` agents."""
    size = rng.randint(min_size, max_size)
    counts = {}
    for _ in range(size):
        state = rng.choice(states)
        counts[state] = counts.get(state, 0) + 1
    return Configuration(counts)


def _random_protocol(rng, num_states=(2, 4), num_transitions=(1, 5)):
    """A random Petri-net protocol: arbitrary pre/post multisets, possibly
    non-conservative, possibly with '*'-output states.  The sizes are drawn
    from the inclusive ``num_states`` / ``num_transitions`` ranges."""
    states = [f"s{i}" for i in range(rng.randint(*num_states))]
    transitions = []
    for t in range(rng.randint(*num_transitions)):
        pre = _random_multiset(rng, states, 1, 2)
        post = _random_multiset(rng, states, 0, 3)
        transitions.append(Transition(pre, post, name=f"t{t}"))
    net = PetriNet(transitions, states=states, name="random")
    outputs = [OUTPUT_ZERO, OUTPUT_ONE]
    if rng.random() < 0.4:
        outputs.append(OUTPUT_UNDEFINED)
    output = {state: rng.choice(outputs) for state in states}
    protocol = Protocol.from_petri_net(
        net,
        leaders=Configuration({}),
        initial_states=states,
        output=output,
        name="random",
    )
    inputs = _random_multiset(rng, states, 2, 8)
    return protocol, inputs


#: Wide random nets: ``(num_states, num_transitions)`` ranges large enough
#: that a generated arm usually reweighs few of the net's transitions and
#: keeps the total by diffing them (``total +=``), while the busiest arms
#: re-sum it (``total =``).  The small nets only ever take the second form.
WIDE_NETS = ((4, 8), (6, 12))
WIDE_NET_SEED = 9500

#: The seed-list sweep's cases: ten small nets (seeds 9000+) and ten wide
#: ones (seeds 9500+).
SEED_LIST_CASES = [
    pytest.param(case, 9000 + case, (), id=str(case)) for case in range(10)
] + [
    pytest.param(case, WIDE_NET_SEED + case, WIDE_NETS, id=f"wide-{case}")
    for case in range(10)
]


class TestRandomNetEquivalence:
    """Seeded property-style sweep: the engines must agree step for step on
    arbitrary small nets, not just on the five named protocols.  Each case is
    a random net (random pre/post multisets, so non-conservative spawning and
    dying transitions and '*'-output states all occur) checked across all
    three engines and both schedulers with trajectories recorded, so any
    divergence pinpoints the first differing firing rather than just the
    final configuration.
    """

    @pytest.mark.parametrize("case", range(25))
    def test_random_small_nets_match_step_for_step(self, case):
        rng = random.Random(6000 + case)
        protocol, inputs = _random_protocol(rng)
        for seed in (0, 1):
            results = {
                engine: Simulator(protocol, engine=engine, seed=seed).run(
                    inputs,
                    max_steps=300,
                    stability_window=50,
                    record_trajectory=True,
                )
                for engine in ENGINES
            }
            reference = results.pop("reference")
            for engine, fast in results.items():
                assert_same_result(fast, reference)
                assert fast.trajectory == reference.trajectory

    @pytest.mark.parametrize("case", range(10))
    def test_random_small_nets_match_under_the_transition_scheduler(self, case):
        rng = random.Random(7000 + case)
        protocol, inputs = _random_protocol(rng)
        scheduler = TransitionScheduler()
        reference = Simulator(
            protocol, scheduler=scheduler, engine="reference", seed=3
        ).run(inputs, max_steps=200, stability_window=50)
        for engine in ENGINES[1:]:
            fast = Simulator(protocol, scheduler=scheduler, engine=engine, seed=3).run(
                inputs, max_steps=200, stability_window=50
            )
            assert_same_result(fast, reference)

    @pytest.mark.parametrize("case, net_seed, sizes", SEED_LIST_CASES)
    @pytest.mark.parametrize(
        "scheduler", [UniformScheduler(), TransitionScheduler()],
        ids=["uniform", "transition"],
    )
    def test_random_net_seed_lists_match_step_for_step(
        self, case, net_seed, sizes, scheduler
    ):
        # run_many hands the native engine the whole seed list in one call.
        rng = random.Random(net_seed)
        protocol, inputs = _random_protocol(rng, *sizes)
        results = {
            engine: Simulator(
                protocol, scheduler=scheduler, engine=engine, seed=case
            ).run_many(
                inputs, repetitions=3, max_steps=200, stability_window=50,
                record_trajectory=True,
            )
            for engine in ENGINES
        }
        reference = results.pop("reference")
        for engine, fast in results.items():
            for fast_result, reference_result in zip(fast, reference):
                assert_same_result(fast_result, reference_result)
                assert fast_result.trajectory == reference_result.trajectory

    @pytest.mark.parametrize("kind", ["uniform", "transition"])
    def test_wide_random_nets_take_both_total_updates(self, kind):
        # The seed-list sweep's wide nets must exercise both ways a
        # generated arm keeps the running total, under either kind.
        forms = set()
        for case in range(10):
            protocol, _ = _random_protocol(random.Random(WIDE_NET_SEED + case), *WIDE_NETS)
            compiled = protocol.petri_net.compiled(extra_states=protocol.states)
            source = compiled.stepper_source(
                kind, compiled.output_classes(protocol.output_table)
            )
            forms.update(re.findall(r"^ {12}total (\+=|=) ", source, flags=re.MULTILINE))
        assert forms == {"+=", "="}

    @pytest.mark.parametrize("case", range(8))
    def test_random_net_batches_match_in_process_and_on_a_pool(self, case):
        rng = random.Random(8000 + case)
        protocol, inputs = _random_protocol(rng)
        serial = Simulator(protocol, seed=case).run_many(
            inputs, repetitions=4, max_steps=150, stability_window=50
        )
        with WorkerPool(max_workers=2) as pool:
            parallel = pool.run_seeds(
                protocol, inputs, repetition_seeds(case, 4), max_steps=150,
                stability_window=50,
            )
        for fast_result, reference_result in zip(parallel, serial):
            assert_same_result(fast_result, reference_result)


class TestBatchedRuns:
    def test_run_many_is_reproducible_from_the_simulator_seed(self):
        protocol = majority_protocol()
        inputs = from_counts(A=7, B=3)
        first = Simulator(protocol, seed=5).run_many(inputs, repetitions=4, max_steps=2000)
        second = Simulator(protocol, seed=5).run_many(inputs, repetitions=4, max_steps=2000)
        for a, b in zip(first, second):
            assert_same_result(a, b)

    def test_repetitions_are_independent(self):
        # With a shared buffer, a bug would leak one run's final counts into
        # the next run's initial configuration.
        protocol = majority_protocol()
        inputs = from_counts(A=7, B=3)
        results = Simulator(protocol, seed=5).run_many(inputs, repetitions=4, max_steps=2000)
        expected_initial = protocol.initial_configuration(inputs)
        for result in results:
            assert result.initial == expected_initial
            assert result.final.size == expected_initial.size  # conservative net
