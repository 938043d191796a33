"""Tests for the native stepper (repro.simulation.native).

The contract: ``engine="native"`` produces **bit-identical** results to the
reference and compiled engines for every ``(protocol, inputs, seed)`` and
leaves the generator in the same state — single runs carry the simulator's
generator through ``getstate``/``setstate``, seed lists seed every generator
inside C.  Plus the machinery around it: CPython's MT19937 reproduced in C,
``engine="auto"`` picking the native engine and the ``REPRO_FORCE_ENGINE``
override, the compiled fallback for runs that overflow 64 bits, the
no-compiler and unusable-cache paths, the per-user build cache, the cached
steppers across pickling, the batch backends and the run spans of one call.
"""

import os
import pickle
import random
import stat
import sys
import threading
import warnings
from array import array
from collections import deque

import pytest

from repro.config import FORCE_ENGINE_ENV
from repro.core import Configuration, Protocol, Transition, from_counts
from repro.core.petrinet import PetriNet
from repro.core.protocol import OUTPUT_ONE, OUTPUT_ZERO
from repro.obs import trace as obs_trace
from repro.protocols import (
    flock_of_birds_protocol,
    majority_protocol,
    modulo_initial_state,
    modulo_protocol,
)
from repro.simulation import (
    NativeUnavailable,
    Scheduler,
    Simulator,
    TransitionScheduler,
    UniformScheduler,
    native,
)
from repro.simulation.batch import WorkerPool, repetition_seeds, run_ensemble
from repro.sweep.spec import build_protocol_and_inputs

from test_compiled_engine import _random_protocol, assert_same_result

PAPER_PROTOCOLS = ("majority", "modulo", "succinct", "flock")
SCHEDULERS = pytest.mark.parametrize(
    "scheduler", [UniformScheduler(), TransitionScheduler()],
    ids=["uniform", "transition"],
)


def _cases():
    return [
        ("majority", majority_protocol(), from_counts(A=21, B=14)),
        ("modulo", modulo_protocol(3, 1), Configuration({modulo_initial_state(): 16})),
        ("flock-of-birds", flock_of_birds_protocol(5), Configuration({1: 12})),
    ]


CASES = _cases()
CASE_IDS = [name for name, _, _ in CASES]


def _two_state_protocol(transitions, name, states=("a", "b")):
    net = PetriNet(transitions, name=name)
    return Protocol.from_petri_net(
        net,
        leaders=Configuration({}),
        initial_states=list(states),
        output={state: OUTPUT_ONE if state == "a" else OUTPUT_ZERO for state in states},
        name=name,
    )


def _multiplicity_protocol():
    """Pre-sets with multiplicities 2 and 3: binomial weights beyond pairs."""
    return _two_state_protocol(
        [
            Transition({"a": 3}, {"b": 3}, name="triple"),
            Transition({"a": 2, "b": 1}, {"a": 1, "b": 2}, name="mixed"),
            Transition({"b": 2}, {"a": 2}, name="back"),
        ],
        "multiplicities",
    )


def _spawner_protocol():
    """Transitions with an empty pre-set, in the middle and at the end."""
    return _two_state_protocol(
        [
            Transition({"a": 1, "b": 1}, {"b": 2}, name="meet"),
            Transition({}, {"a": 1}, name="spawn-middle"),
            Transition({"b": 2}, {"a": 1, "b": 1}, name="swap"),
            Transition({}, {"b": 1}, name="spawn-last"),
        ],
        "spawners",
    )


def _pair(protocol, inputs, engines=("compiled", "native"), scheduler=None, seed=99,
          repetitions=6, **kwargs):
    """``run_many`` on each engine with the same simulator seed."""
    return [
        Simulator(protocol, scheduler=scheduler, engine=engine, seed=seed).run_many(
            inputs, repetitions, **kwargs
        )
        for engine in engines
    ]


def _assert_rows_identical(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert_same_result(got, want)
        assert got.trajectory == want.trajectory
        assert got.analytics == want.analytics


@pytest.fixture
def no_library(monkeypatch):
    """A process whose native library is not loaded yet, with an empty cache."""
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setattr(native, "_failure", None)


class TestGenerator:
    SEEDS = [0, 1, 12345, 2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1, 2 ** 70 + 3, -17]
    MODULI = [1, 2, 3, 7, 255, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
              10 ** 12, 2 ** 40 + 7, 2 ** 63, 10 ** 19, 2 ** 64 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeding_and_randbelow_match_random(self, seed):
        expected = random.Random(seed)
        draws = [expected.randrange(modulus) for modulus in self.MODULI]
        magnitude = abs(seed)
        key = array("I", [
            (magnitude >> shift) & 0xFFFFFFFF
            for shift in range(0, max(magnitude.bit_length(), 1), 32)
        ])
        mt = array("I", bytes(4 * 625))
        moduli = array("Q", self.MODULI)
        out = array("Q", bytes(8 * len(self.MODULI)))
        native.library().repro_randbelow(
            mt.buffer_info()[0], key.buffer_info()[0], len(key),
            moduli.buffer_info()[0], len(moduli), out.buffer_info()[0],
        )
        assert list(out) == draws
        assert tuple(mt) == expected.getstate()[1]

    @SCHEDULERS
    def test_run_leaves_the_generator_where_compiled_does(self, scheduler):
        protocol, inputs = build_protocol_and_inputs("majority", 40)
        states = []
        for engine in ("compiled", "native"):
            simulator = Simulator(protocol, scheduler=scheduler, engine=engine, seed=8)
            simulator.run(inputs, max_steps=3000, stability_window=80)
            simulator.run(inputs, max_steps=500, stability_window=10 ** 9)
            states.append(simulator.rng.getstate())
        assert states[0] == states[1]


class TestEquivalence:
    @pytest.mark.parametrize("name,protocol,inputs", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_full_runs_match_all_engines(self, name, protocol, inputs, seed):
        results = [
            Simulator(protocol, engine=engine, seed=seed).run(
                inputs, max_steps=4000, stability_window=150
            )
            for engine in ("reference", "compiled", "native")
        ]
        for result in results[1:]:
            assert_same_result(result, results[0])

    @pytest.mark.parametrize("name,protocol,inputs", CASES, ids=CASE_IDS)
    def test_trajectory_prefixes_match(self, name, protocol, inputs):
        for max_steps in (0, 1, 2, 3, 5, 10, 50, 250):
            reference = Simulator(protocol, engine="reference", seed=42).run(
                inputs, max_steps=max_steps, stability_window=10 ** 9
            )
            fast = Simulator(protocol, engine="native", seed=42).run(
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
            protocol, scheduler=TransitionScheduler(), engine="native", seed=seed
        ).run(inputs, max_steps=2000, stability_window=150)
        assert_same_result(fast, reference)

    def test_terminal_configuration_matches(self):
        protocol = flock_of_birds_protocol(3)
        result = Simulator(protocol, engine="native", seed=0).run(Configuration({1: 1}))
        assert result.terminated
        assert result.steps == 0
        assert result.consensus == 0
        assert result.consensus_step == 0

    def test_run_many_matches_run_for_run(self):
        reference, fast = _pair(
            majority_protocol(), from_counts(A=9, B=4), ("reference", "native"),
            seed=17, max_steps=3000,
        )
        assert len(fast) == 6
        _assert_rows_identical(reference, fast)

    @SCHEDULERS
    def test_multiplicity_nets_match(self, scheduler):
        protocol = _multiplicity_protocol()
        inputs = Configuration({"a": 9, "b": 4})
        for seed in (0, 3, 8):
            reference = Simulator(
                protocol, scheduler=scheduler, engine="reference", seed=seed
            ).run(inputs, max_steps=500, stability_window=10 ** 9)
            fast = Simulator(protocol, scheduler=scheduler, engine="native", seed=seed).run(
                inputs, max_steps=500, stability_window=10 ** 9
            )
            assert_same_result(fast, reference)
        compiled, fast = _pair(
            protocol, inputs, scheduler=scheduler, repetitions=8, max_steps=500,
            stability_window=10 ** 9, record_trajectory=True,
        )
        _assert_rows_identical(compiled, fast)

    @SCHEDULERS
    def test_spawner_nets_match(self, scheduler):
        # Empty pre-sets weigh 1 and are always enabled; the net grows.
        protocol = _spawner_protocol()
        inputs = Configuration({"a": 3, "b": 2})
        for seed in (0, 1, 5):
            reference = Simulator(
                protocol, scheduler=scheduler, engine="reference", seed=seed
            ).run(inputs, max_steps=200, stability_window=10 ** 9)
            fast = Simulator(protocol, scheduler=scheduler, engine="native", seed=seed).run(
                inputs, max_steps=200, stability_window=10 ** 9
            )
            assert_same_result(fast, reference)
        reference, fast = _pair(
            protocol, inputs, ("reference", "native"), scheduler=scheduler,
            max_steps=200, stability_window=10 ** 9, record_trajectory=True,
        )
        _assert_rows_identical(reference, fast)

    @pytest.mark.parametrize("case", range(15))
    def test_random_nets_match_step_for_step(self, case):
        protocol, inputs = _random_protocol(random.Random(9000 + case))
        for seed in (0, 1):
            reference = Simulator(protocol, engine="reference", seed=seed).run(
                inputs, max_steps=300, stability_window=50,
                record_trajectory=True, trajectory_capacity=10 ** 6,
            )
            fast = Simulator(protocol, engine="native", seed=seed).run(
                inputs, max_steps=300, stability_window=50,
                record_trajectory=True, trajectory_capacity=10 ** 6,
            )
            assert_same_result(fast, reference)
            assert fast.trajectory == reference.trajectory


class TestSeedLists:
    @pytest.mark.parametrize("name", PAPER_PROTOCOLS)
    @SCHEDULERS
    def test_paper_protocols_match_compiled(self, name, scheduler):
        protocol, inputs = build_protocol_and_inputs(name, 60)
        compiled, fast = _pair(
            protocol, inputs, scheduler=scheduler, repetitions=9, max_steps=400,
            stability_window=150, record_trajectory=True,
        )
        _assert_rows_identical(compiled, fast)

    def test_runs_of_different_lengths(self):
        # Rows converge at different steps; each row's outcome, counts and
        # trajectory must land at its own index, with a chunk smaller than
        # the longer runs so recording resumes mid-run.
        protocol, inputs = build_protocol_and_inputs("majority", 40)
        compiled, fast = _pair(
            protocol, inputs, repetitions=16, max_steps=6000, stability_window=60,
            record_trajectory=True, trajectory_capacity=10 ** 6,
        )
        _assert_rows_identical(compiled, fast)
        assert len({result.steps for result in fast}) > 1
        assert max(result.steps for result in fast) > native._CHUNK

    def test_single_seed(self):
        protocol, inputs = build_protocol_and_inputs("flock", 30)
        expected = run_ensemble(
            protocol, inputs, [2022], engine="compiled", max_steps=400,
            stability_window=150, record_trajectory=True,
        )
        fast = run_ensemble(
            protocol, inputs, [2022], engine="native", max_steps=400,
            stability_window=150, record_trajectory=True,
        )
        _assert_rows_identical(expected, fast)

    @pytest.mark.parametrize("transitions", [1024, 1200])
    def test_multi_block_random_nets(self, transitions):
        # Several weight blocks (1024 fills a 32 x 32 grid exactly): the
        # two-level pick must select what the flat scan selects.
        from repro.experiments.experiment_defs import random_interaction_protocol

        protocol, inputs = random_interaction_protocol(transitions, random.Random(7))
        reference, fast = _pair(
            protocol, inputs, ("reference", "native"), repetitions=2, max_steps=150,
            stability_window=10 ** 9, record_trajectory=True,
        )
        _assert_rows_identical(reference, fast)

    def test_analytics_metric_dicts_match(self):
        from repro.analytics.metrics import AnalyticsSpec

        protocol, inputs = build_protocol_and_inputs("majority", 40)
        spec = AnalyticsSpec(curve_checkpoints=(0, 50, 200), expected_output=1)
        compiled, fast = _pair(
            protocol, inputs, max_steps=4000, stability_window=100, analytics=spec,
        )
        _assert_rows_identical(compiled, fast)
        assert all(result.analytics is not None for result in fast)

    def test_run_spans_tile_the_call_in_seed_order(self):
        protocol, inputs = build_protocol_and_inputs("majority", 30)
        seeds = repetition_seeds(5, 6)
        with obs_trace.capture_events() as events:
            run_ensemble(protocol, inputs, seeds, engine="native", max_steps=2000)
        runs = [event for event in events if event.get("kind") == "run"]
        assert [run["attrs"]["seed"] for run in runs] == seeds
        assert all(run["attrs"]["engine"] == "native" for run in runs)
        for before, after in zip(runs, runs[1:]):
            assert after["t0"] == pytest.approx(before["t0"] + before["dur"])
        assert len({round(run["dur"], 12) for run in runs}) == 1


class TestOverflowFallback:
    """Values beyond 64 bits redo the run on the compiled engine, bit-identically."""

    @staticmethod
    def _meet_protocol():
        return _two_state_protocol(
            [Transition({"a": 1, "b": 1}, {"a": 2}, name="meet"),
             Transition({"a": 2}, {"a": 1, "b": 1}, name="split")],
            "overflow",
        )

    @staticmethod
    def _assert_engines_agree(protocol, inputs, scheduler=None, **kwargs):
        results = []
        for engine in ("compiled", "native"):
            simulator = Simulator(protocol, scheduler=scheduler, engine=engine, seed=4)
            single = simulator.run(inputs, record_trajectory=True, **kwargs)
            many = simulator.run_many(inputs, 3, record_trajectory=True, **kwargs)
            results.append(([single] + many, simulator.rng.getstate()))
        (expected, expected_state), (fast, fast_state) = results
        _assert_rows_identical(expected, fast)
        assert fast_state == expected_state

    def test_weights_of_2_to_the_64_fall_back(self):
        # Majority with 2 x 2**33 agents: the first weight is 2**66.
        self._assert_engines_agree(
            majority_protocol(), Configuration({"A": 2 ** 33, "B": 2 ** 33}),
            max_steps=40, stability_window=10 ** 9,
        )

    @SCHEDULERS
    def test_weight_totals_of_2_to_the_64_fall_back(self, scheduler):
        # Two weights of 2**63 each: every weight fits, their total does not.
        protocol = _two_state_protocol(
            [Transition({"a": 1, "b": 1}, {"a": 2}, name="ab"),
             Transition({"a": 1, "c": 1}, {"c": 2}, name="ac")],
            "total", states=("a", "b", "c"),
        )
        self._assert_engines_agree(
            protocol, Configuration({"a": 2 ** 32, "b": 2 ** 31, "c": 2 ** 31}),
            scheduler=scheduler, max_steps=40, stability_window=10 ** 9,
        )

    def test_weights_within_uint64_stay_native(self, monkeypatch):
        from repro.simulation.compiled import CompiledNet

        def no_fallback(*args, **kwargs):
            raise AssertionError("the run fell back to the compiled engine")

        protocol = majority_protocol()
        inputs = Configuration({"A": 2 * 10 ** 9, "B": 2 * 10 ** 9})
        expected = Simulator(protocol, engine="compiled", seed=4).run_many(
            inputs, 3, max_steps=40, stability_window=10 ** 9
        )
        simulator = Simulator(protocol, engine="native", seed=4)
        monkeypatch.setattr(CompiledNet, "stepper", no_fallback)
        fast = simulator.run_many(inputs, 3, max_steps=40, stability_window=10 ** 9)
        _assert_rows_identical(expected, fast)

    @SCHEDULERS
    def test_counts_beyond_int64_fall_back(self, scheduler):
        self._assert_engines_agree(
            self._meet_protocol(), Configuration({"a": 2 ** 64, "b": 3}),
            scheduler=scheduler, max_steps=20, stability_window=10 ** 9,
        )

    @SCHEDULERS
    def test_counts_overflowing_mid_run_fall_back(self, scheduler):
        # 2**63 - 2 agents in one state and two spawns: int64 overflows
        # after a few steps, and the compiled engine redoes the run.
        protocol = _spawner_protocol()
        self._assert_engines_agree(
            protocol, Configuration({"a": 2 ** 63 - 3, "b": 1}), scheduler=scheduler,
            max_steps=30, stability_window=10 ** 9,
        )


    def test_redo_on_a_net_too_large_to_generate_raises_overflow(self, monkeypatch):
        # Past the codegen ceiling the compiled redo cannot be built: the
        # error names the overflow and the engine that can run the net.
        from repro.simulation.compiled import CompiledNet

        def too_large(*args, **kwargs):
            raise RecursionError("net is too large for the compiled engine")

        inputs = Configuration({"A": 2 ** 33, "B": 2 ** 33})
        simulator = Simulator(majority_protocol(), engine="native", seed=4)
        monkeypatch.setattr(CompiledNet, "stepper", too_large)
        expected = r"leaves 64 bits.*use engine='reference'"
        with pytest.raises(OverflowError, match=expected):
            simulator.run(inputs, max_steps=5)
        with pytest.raises(OverflowError, match=expected):
            simulator.run_many(inputs, 2, max_steps=5)


class TestEngineSelection:
    def test_auto_picks_native(self, monkeypatch):
        monkeypatch.delenv(FORCE_ENGINE_ENV, raising=False)
        simulator = Simulator(majority_protocol(), seed=0)
        assert simulator._choice == "native"
        assert isinstance(simulator._stepper, native.NativeStepper)

    def test_force_engine_env_overrides_auto(self, monkeypatch):
        protocol = majority_protocol()
        for forced in ("native", "compiled"):
            monkeypatch.setenv(FORCE_ENGINE_ENV, forced)
            assert Simulator(protocol, seed=0)._choice == forced
        monkeypatch.setenv(FORCE_ENGINE_ENV, "reference")
        assert Simulator(protocol, seed=0)._stepper is None
        monkeypatch.setenv(FORCE_ENGINE_ENV, "auto")
        assert Simulator(protocol, seed=0)._choice == "native"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_force_engine_env_does_not_override_explicit_engines(self, monkeypatch):
        monkeypatch.setenv(FORCE_ENGINE_ENV, "native")
        assert Simulator(majority_protocol(), seed=0, engine="compiled")._choice == "compiled"
        assert Simulator(majority_protocol(), seed=0, engine="reference")._stepper is None

    def test_shadowed_override_warns_once_per_pair(self, monkeypatch):
        import repro.config as config

        monkeypatch.setenv(FORCE_ENGINE_ENV, "compiled")
        monkeypatch.setattr(config, "_IGNORED_FORCE_WARNED", set())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Simulator(majority_protocol(), engine="native", seed=0)
            Simulator(majority_protocol(), engine="native", seed=1)
        runtime_warnings = [
            warning for warning in caught
            if issubclass(warning.category, RuntimeWarning)
        ]
        assert len(runtime_warnings) == 1
        message = str(runtime_warnings[0].message)
        assert "REPRO_FORCE_ENGINE=compiled" in message
        assert "native" in message

    def test_matching_override_stays_silent(self, monkeypatch):
        import repro.config as config

        monkeypatch.setenv(FORCE_ENGINE_ENV, "native")
        monkeypatch.setattr(config, "_IGNORED_FORCE_WARNED", set())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Simulator(majority_protocol(), engine="native", seed=0)
        assert not [
            warning for warning in caught
            if issubclass(warning.category, RuntimeWarning)
        ]

    @pytest.mark.parametrize("value", ["turbo", "numpy", "ensemble"])
    def test_invalid_override_rejected(self, monkeypatch, value):
        monkeypatch.setenv(FORCE_ENGINE_ENV, value)
        with pytest.raises(ValueError, match="REPRO_FORCE_ENGINE"):
            Simulator(majority_protocol(), seed=0)
        with pytest.raises(ValueError, match="REPRO_FORCE_ENGINE"):
            Simulator(majority_protocol(), engine="native", seed=0)

    @pytest.mark.parametrize("engine", ["warp", "numpy", "ensemble"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulator(majority_protocol(), engine=engine, seed=0)

    def test_custom_scheduler_rejected_in_native_mode(self):
        class FirstEnabled(Scheduler):
            def choose(self, net, configuration, rng):
                return None

        with pytest.raises(ValueError, match="no compiled fast path"):
            Simulator(majority_protocol(), scheduler=FirstEnabled(), engine="native")

    def test_unknown_states_rejected_in_native_mode(self):
        simulator = Simulator(majority_protocol(), engine="native", seed=0)
        with pytest.raises(ValueError, match="outside the compiled universe"):
            simulator.run_from(Configuration({"Z": 2}))


class TestBuild:
    @staticmethod
    def _home(monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        return tmp_path / ".cache" / "repro-native"

    def test_cache_is_private_and_holds_only_the_build(self, monkeypatch, tmp_path, no_library):
        cache = self._home(monkeypatch, tmp_path)
        assert native.available()
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        (built,) = list(cache.iterdir())
        assert built.name.startswith("stepper-")
        # A second process start loads the cached build instead of rebuilding.
        monkeypatch.setattr(native, "_library", None)
        mtime = built.stat().st_mtime_ns
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        assert native.available()
        assert built.stat().st_mtime_ns == mtime

    def test_no_compiler(self, monkeypatch, tmp_path, no_library):
        self._home(monkeypatch, tmp_path)
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        monkeypatch.delenv(FORCE_ENGINE_ENV, raising=False)
        protocol, inputs = build_protocol_and_inputs("majority", 30)
        with pytest.raises(NativeUnavailable, match="'cc'"):
            Simulator(protocol, engine="native")
        auto = Simulator(protocol, seed=3)
        assert auto._choice == "compiled"
        expected = Simulator(protocol, engine="compiled", seed=3)
        assert auto.run_many(inputs, 4, max_steps=2000) == expected.run_many(
            inputs, 4, max_steps=2000
        )

    @pytest.mark.parametrize("problem", ["not-a-directory", "group-writable"])
    def test_unusable_cache_directory(self, monkeypatch, tmp_path, no_library, problem):
        cache = self._home(monkeypatch, tmp_path)
        if problem == "not-a-directory":
            (tmp_path / ".cache").write_text("a file where the cache belongs")
        else:
            cache.mkdir(parents=True)
            os.chmod(cache, 0o777)
        monkeypatch.delenv(FORCE_ENGINE_ENV, raising=False)
        protocol, inputs = build_protocol_and_inputs("modulo", 20)
        with pytest.raises(NativeUnavailable, match="cache"):
            Simulator(protocol, engine="native")
        auto = Simulator(protocol, seed=9)
        assert auto._choice == "compiled"
        expected = Simulator(protocol, engine="compiled", seed=9)
        assert auto.run(inputs, max_steps=800) == expected.run(inputs, max_steps=800)
        if problem == "group-writable":
            assert list(cache.iterdir()) == []


class TestCaching:
    def test_threads_share_one_stepper_safely(self):
        # Simulators of one protocol share the cached stepper, whose C calls
        # release the GIL: concurrent seed lists must still match serial ones.
        protocol, inputs = build_protocol_and_inputs("majority", 200)
        seed_lists = [repetition_seeds(seed, 4) for seed in range(8)]

        def ensemble(seeds):
            return run_ensemble(
                protocol, inputs, seeds, engine="native", max_steps=20000,
                stability_window=20000, record_trajectory=True,
                trajectory_capacity=64,
            )

        expected = [ensemble(seeds) for seeds in seed_lists]
        mismatches = []

        def work(index):
            for _ in range(4):
                if ensemble(seed_lists[index]) != expected[index]:
                    mismatches.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(index,))
                for index in range(len(seed_lists))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_steppers_are_cached_per_kind_and_classes(self):
        protocol = majority_protocol()
        net = protocol.petri_net.compiled(extra_states=protocol.states)
        classes = net.output_classes(protocol.output_table)
        stepper = net.native_stepper("uniform", classes)
        assert net.native_stepper("uniform", classes) is stepper
        assert net.native_stepper("transition", classes) is not stepper

    def test_unknown_kind_rejected(self):
        net = majority_protocol().petri_net.compiled()
        with pytest.raises(ValueError, match="unknown compiled scheduler kind"):
            net.native_stepper("fifo", net.output_classes({}))

    def test_pickles_without_steppers(self):
        protocol = majority_protocol()
        net = protocol.petri_net.compiled(extra_states=protocol.states)
        classes = net.output_classes(protocol.output_table)
        net.native_stepper("uniform", classes)
        clone = pickle.loads(pickle.dumps(net))
        assert clone._native == {}
        assert clone.pre_lists == net.pre_lists
        inputs = from_counts(A=8, B=5)
        counts = clone.counts_of(protocol.initial_configuration(inputs))
        steps, value, since, terminated = clone.native_stepper("uniform", classes)(
            counts, random.Random(3), 500, 10 ** 9, 0, 0, 0
        )
        reference = Simulator(protocol, engine="reference", seed=3).run(
            inputs, max_steps=500, stability_window=10 ** 9
        )
        assert clone.configuration_of(counts) == reference.final
        assert steps == reference.steps

    def test_protocol_pickle_drops_the_native_steppers(self):
        protocol = majority_protocol()
        Simulator(protocol, seed=0, engine="native")
        clone = pickle.loads(pickle.dumps(protocol))
        assert clone.petri_net._compiled_cache == {}
        inputs = from_counts(A=12, B=5)
        original = Simulator(protocol, seed=3, engine="native").run(inputs, max_steps=500)
        rebuilt = Simulator(clone, seed=3, engine="native").run(inputs, max_steps=500)
        assert rebuilt == original


class TestBatchIntegration:
    def test_backends_agree(self):
        protocol, inputs = build_protocol_and_inputs("majority", 30)
        seeds = [11, 22, 33, 44, 55]
        serial = run_ensemble(protocol, inputs, seeds, engine="native", max_steps=3000)
        process = run_ensemble(
            protocol, inputs, seeds, engine="native", max_steps=3000,
            backend="process", max_workers=2,
        )
        assert process == serial

    def test_trajectories_travel_across_the_process_boundary(self):
        protocol = majority_protocol()
        inputs = from_counts(A=14, B=7)
        kwargs = dict(
            repetitions=4, max_steps=300, stability_window=10 ** 9,
            record_trajectory=True, trajectory_capacity=64,
        )
        serial = Simulator(protocol, seed=5, engine="native").run_many(inputs, **kwargs)
        parallel = Simulator(protocol, seed=5, engine="native").run_many(
            inputs, backend="process", max_workers=2, **kwargs
        )
        assert parallel == serial
        assert all(result.trajectory is not None for result in parallel)

    def test_worker_pool_matches_simulator_run_many(self):
        protocol, inputs = build_protocol_and_inputs("flock", 24)
        direct = Simulator(protocol, engine="native", seed=17).run_many(
            inputs, 6, max_steps=3000
        )
        with WorkerPool(max_workers=2) as pool:
            batched = pool.run_seeds(
                protocol, inputs, repetition_seeds(17, 6), engine="native",
                max_steps=3000,
            )
        assert batched == direct

    def test_empty_ensembles_agree_across_entry_points(self):
        protocol, inputs = build_protocol_and_inputs("majority", 20)
        assert Simulator(protocol, engine="native", seed=0).run_many(inputs, 0) == []
        assert run_ensemble(
            protocol, inputs, [], engine="native", backend="process"
        ) == []
        with WorkerPool(max_workers=1) as pool:
            assert pool.run_seeds(protocol, inputs, [], engine="native") == []

    def test_empty_ensemble_still_validates_the_spec(self):
        protocol, inputs = build_protocol_and_inputs("majority", 20)
        with pytest.raises(ValueError):
            run_ensemble(protocol, inputs, [], engine="warp")
        with WorkerPool(max_workers=1) as pool:
            with pytest.raises(ValueError):
                pool.run_seeds(protocol, inputs, [], engine="warp")
