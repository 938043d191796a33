"""Tests for the lock-step ensemble engine (repro.simulation.ensemble).

The contract: ``engine="ensemble"`` advances a whole seed list as one
``(reps, states)`` matrix program, and every row is **bit-identical** to a
per-run ``engine="numpy"`` execution with the same derived seed — across all
four paper protocols, both built-in schedulers, ragged retirement (rows
converging at different steps), trajectory recording, analytics extraction
and both batch backends.  Plus the machinery around it: the blocked weight
selection agreeing with the flat scan, the ``Stepper`` protocol conformance
of :class:`VectorizedEnsemble`, engine selection (``auto`` never picks the
ensemble; ``REPRO_FORCE_ENGINE=ensemble`` does), the one-time warning when
the override is shadowed by an explicit engine, and the empty-ensemble edge
agreeing across every entry point.
"""

import random
import warnings

import pytest

from repro.config import FORCE_ENGINE_ENV
from repro.core import Configuration, Protocol, Transition, from_counts
from repro.core.petrinet import PetriNet
from repro.core.protocol import OUTPUT_ONE, OUTPUT_ZERO
from repro.protocols import majority_protocol
from repro.simulation import Simulator, TransitionScheduler, UniformScheduler
from repro.simulation.batch import WorkerPool, repetition_seeds, run_ensemble
from repro.simulation.compiled import Stepper
from repro.simulation.vectorized import numpy_available
from repro.sweep.spec import build_protocol_and_inputs

from test_compiled_engine import assert_same_result

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy not installed (the optional 'sim' extra)"
)

PAPER_PROTOCOLS = ("majority", "modulo", "succinct", "flock")


def _run_pair(protocol, inputs, scheduler, reps, seed=99, max_steps=400,
              stability_window=150, **kwargs):
    """Per-run numpy and lock-step ensemble results for identical seeds."""
    results = []
    for engine in ("numpy", "ensemble"):
        simulator = Simulator(
            protocol, scheduler=scheduler, engine=engine, seed=seed
        )
        results.append(
            simulator.run_many(
                inputs, reps, max_steps=max_steps,
                stability_window=stability_window, **kwargs
            )
        )
    return results


def _assert_rows_identical(per_run, ensemble):
    assert len(per_run) == len(ensemble)
    for row_per_run, row_ensemble in zip(per_run, ensemble):
        assert_same_result(row_ensemble, row_per_run)
        assert row_ensemble.trajectory == row_per_run.trajectory
        assert row_ensemble.analytics == row_per_run.analytics


def _multiplicity_protocol():
    """A net with multiplicity-2/3 pre-sets: forces the ragged general path."""
    net = PetriNet(
        [
            Transition({"a": 3}, {"b": 3}, name="triple"),
            Transition({"a": 2, "b": 1}, {"a": 1, "b": 2}, name="mixed"),
            Transition({"b": 2}, {"a": 2}, name="back"),
        ],
        name="multiplicities",
    )
    protocol = Protocol.from_petri_net(
        net,
        leaders=Configuration({}),
        initial_states=["a", "b"],
        output={"a": OUTPUT_ONE, "b": OUTPUT_ZERO},
        name="multiplicities",
    )
    return protocol, Configuration({"a": 9, "b": 4})


@requires_numpy
class TestRowBitIdentity:
    @pytest.mark.parametrize("name", PAPER_PROTOCOLS)
    @pytest.mark.parametrize(
        "scheduler", [UniformScheduler(), TransitionScheduler()],
        ids=["uniform", "transition"],
    )
    def test_paper_protocols_match_per_run_numpy(self, name, scheduler):
        protocol, inputs = build_protocol_and_inputs(name, 60)
        per_run, ensemble = _run_pair(
            protocol, inputs, scheduler, reps=9, record_trajectory=True
        )
        _assert_rows_identical(per_run, ensemble)

    def test_ragged_retirement(self):
        # Rows converge at different steps: compaction must keep every
        # surviving row on its own stream and flush outputs to the right
        # original index.
        protocol, inputs = build_protocol_and_inputs("majority", 40)
        per_run, ensemble = _run_pair(
            protocol, inputs, None, reps=16, max_steps=6000,
            stability_window=60, record_trajectory=True,
        )
        _assert_rows_identical(per_run, ensemble)
        assert len({result.steps for result in ensemble}) > 1

    def test_single_repetition(self):
        # One-seed lists run on the per-run stepper, so a single lock-step row
        # is driven through VectorizedEnsemble.run directly.
        from collections import deque

        from repro.simulation.ensemble import VectorizedEnsemble

        protocol, inputs = build_protocol_and_inputs("flock", 30)
        seed = 2022
        expected = run_ensemble(
            protocol, inputs, [seed], engine="numpy", max_steps=400,
            stability_window=150, record_trajectory=True,
        )[0]
        simulator = Simulator(protocol, engine="ensemble", seed=0)
        net = simulator._compiled
        counts = net.counts_of(protocol.initial_configuration(inputs))
        ring = deque(maxlen=10 ** 6)
        steps, values, since, terminated, finals = VectorizedEnsemble(
            net, "uniform", simulator._classes
        ).run(
            counts, [seed], 400, 150,
            *simulator._initial_output_counters(counts), rings=[ring],
        )
        assert int(steps[0]) == expected.steps
        assert int(values[0]) == expected.consensus
        assert int(since[0]) == expected.consensus_step
        assert bool(terminated[0]) == expected.terminated
        assert net.configuration_of(finals[0].tolist()) == expected.final
        assert tuple(ring) == expected.trajectory.transition_indices

    def test_one_seed_run_many_uses_the_per_run_stepper(self):
        protocol, inputs = build_protocol_and_inputs("majority", 30)
        per_run, ensemble = _run_pair(
            protocol, inputs, None, reps=1, record_trajectory=True
        )
        _assert_rows_identical(per_run, ensemble)
        simulator = Simulator(protocol, engine="ensemble", seed=4)
        simulator.run_many(inputs, 1, max_steps=400)
        assert simulator._ensemble is None
        simulator.run_many(inputs, 2, max_steps=400)
        assert simulator._ensemble is not None

    def test_multi_block_random_net(self):
        # A net wide enough for several weight blocks exercises the blocked
        # two-level pick against the per-run flat searchsorted.
        from repro.experiments.experiment_defs import random_interaction_protocol

        protocol, inputs = random_interaction_protocol(1200, random.Random(7))
        per_run, ensemble = _run_pair(
            protocol, inputs, None, reps=5, max_steps=250,
            stability_window=10 ** 9, record_trajectory=True,
        )
        _assert_rows_identical(per_run, ensemble)

    def test_exact_grid_net_keeps_a_dummy_slot(self):
        # 2048 transitions exactly fill the block grid; the layout must grow
        # a spare block so the fast path's dummy weight slot exists.
        from repro.experiments.experiment_defs import random_interaction_protocol

        protocol, inputs = random_interaction_protocol(2048, random.Random(7))
        simulator = Simulator(protocol, engine="ensemble", seed=1)
        tables = simulator._compiled.ensemble_tables()
        assert tables.padded > 2048
        per_run, ensemble = _run_pair(
            protocol, inputs, None, reps=4, max_steps=200,
            stability_window=10 ** 9,
        )
        for row_per_run, row_ensemble in zip(per_run, ensemble):
            assert_same_result(row_ensemble, row_per_run)

    def test_multiplicity_nets_use_the_general_path(self):
        protocol, inputs = _multiplicity_protocol()
        simulator = Simulator(protocol, engine="ensemble", seed=5)
        assert not simulator._compiled.ensemble_tables().fast_uniform
        for scheduler in (None, TransitionScheduler()):
            per_run, ensemble = _run_pair(
                protocol, inputs, scheduler, reps=8, max_steps=500,
                stability_window=10 ** 9, record_trajectory=True,
            )
            _assert_rows_identical(per_run, ensemble)

    def test_analytics_metric_dicts_match(self):
        from repro.analytics.metrics import AnalyticsSpec

        protocol, inputs = build_protocol_and_inputs("majority", 40)
        spec = AnalyticsSpec(curve_checkpoints=(0, 50, 200), expected_output=1)
        per_run, ensemble = _run_pair(
            protocol, inputs, None, reps=6, max_steps=4000,
            stability_window=100, analytics=spec,
        )
        _assert_rows_identical(per_run, ensemble)
        assert all(result.analytics is not None for result in ensemble)

    def test_single_run_uses_the_per_run_stepper(self):
        # Simulator.run under engine="ensemble" goes through the per-run
        # numpy stepper; the trajectory must equal the numpy engine's.
        protocol, inputs = build_protocol_and_inputs("modulo", 30)
        fast = Simulator(protocol, engine="numpy", seed=3).run(
            inputs, max_steps=500, record_trajectory=True
        )
        lock_step = Simulator(protocol, engine="ensemble", seed=3).run(
            inputs, max_steps=500, record_trajectory=True
        )
        assert_same_result(lock_step, fast)
        assert lock_step.trajectory == fast.trajectory


@requires_numpy
class TestBatchIntegration:
    def test_backends_agree(self):
        protocol, inputs = build_protocol_and_inputs("majority", 30)
        seeds = [11, 22, 33, 44, 55]
        serial = run_ensemble(
            protocol, inputs, seeds, engine="ensemble", max_steps=3000
        )
        process = run_ensemble(
            protocol, inputs, seeds, engine="ensemble", max_steps=3000,
            backend="process", max_workers=2,
        )
        assert len(serial) == len(process) == len(seeds)
        for serial_result, process_result in zip(serial, process):
            assert_same_result(process_result, serial_result)

    def test_worker_pool_matches_simulator_run_many(self):
        protocol, inputs = build_protocol_and_inputs("flock", 24)
        direct = Simulator(protocol, engine="ensemble", seed=17).run_many(
            inputs, 6, max_steps=3000
        )
        with WorkerPool(max_workers=2) as pool:
            batched = pool.run_seeds(
                protocol, inputs, repetition_seeds(17, 6), engine="ensemble",
                max_steps=3000,
            )
        for direct_result, batched_result in zip(direct, batched):
            assert_same_result(batched_result, direct_result)

    def test_empty_ensembles_agree_across_entry_points(self):
        protocol, inputs = build_protocol_and_inputs("majority", 20)
        assert Simulator(protocol, engine="ensemble", seed=0).run_many(
            inputs, 0
        ) == []
        assert run_ensemble(
            protocol, inputs, [], engine="ensemble", backend="process"
        ) == []
        with WorkerPool(max_workers=1) as pool:
            assert pool.run_seeds(protocol, inputs, [], engine="ensemble") == []

    def test_empty_ensemble_still_validates_the_spec(self):
        # An empty seed list must not silently accept a spec every non-empty
        # call would reject — all entry points raise the same way.
        protocol, inputs = build_protocol_and_inputs("majority", 20)
        with pytest.raises(ValueError):
            run_ensemble(protocol, inputs, [], engine="warp")
        with WorkerPool(max_workers=1) as pool:
            with pytest.raises(ValueError):
                pool.run_seeds(protocol, inputs, [], engine="warp")


@requires_numpy
class TestEngineSelection:
    def test_auto_never_picks_the_ensemble(self, monkeypatch):
        monkeypatch.delenv(FORCE_ENGINE_ENV, raising=False)
        from repro.experiments.experiment_defs import random_interaction_protocol

        protocol, _ = random_interaction_protocol(600, random.Random(3))
        simulator = Simulator(protocol, seed=0)
        assert simulator._choice in ("compiled", "numpy")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_force_engine_env_selects_the_ensemble(self, monkeypatch):
        monkeypatch.setenv(FORCE_ENGINE_ENV, "ensemble")
        simulator = Simulator(majority_protocol(), seed=0)
        assert simulator._choice == "ensemble"
        per_run = Simulator(majority_protocol(), engine="numpy", seed=12).run_many(
            from_counts(A=9, B=6), 4, max_steps=2000
        )
        forced = Simulator(majority_protocol(), seed=12).run_many(
            from_counts(A=9, B=6), 4, max_steps=2000
        )
        for per_run_result, forced_result in zip(per_run, forced):
            assert_same_result(forced_result, per_run_result)

    def test_shadowed_override_warns_once_per_pair(self, monkeypatch):
        import repro.config as config

        monkeypatch.setenv(FORCE_ENGINE_ENV, "numpy")
        monkeypatch.setattr(config, "_IGNORED_FORCE_WARNED", set())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Simulator(majority_protocol(), engine="ensemble", seed=0)
            Simulator(majority_protocol(), engine="ensemble", seed=1)
        runtime_warnings = [
            warning for warning in caught
            if issubclass(warning.category, RuntimeWarning)
        ]
        assert len(runtime_warnings) == 1
        message = str(runtime_warnings[0].message)
        assert "REPRO_FORCE_ENGINE=numpy" in message
        assert "ensemble" in message

    def test_matching_override_stays_silent(self, monkeypatch):
        import repro.config as config

        monkeypatch.setenv(FORCE_ENGINE_ENV, "ensemble")
        monkeypatch.setattr(config, "_IGNORED_FORCE_WARNED", set())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Simulator(majority_protocol(), engine="ensemble", seed=0)
        assert not [
            warning for warning in caught
            if issubclass(warning.category, RuntimeWarning)
        ]

    def test_invalid_override_rejected_for_explicit_engines(self, monkeypatch):
        monkeypatch.setenv(FORCE_ENGINE_ENV, "warp")
        with pytest.raises(ValueError, match="REPRO_FORCE_ENGINE"):
            Simulator(majority_protocol(), engine="numpy", seed=0)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Simulator(majority_protocol(), engine="warp", seed=0)


@requires_numpy
class TestStepperProtocol:
    def test_ensemble_satisfies_the_stepper_protocol(self):
        from repro.simulation.ensemble import VectorizedEnsemble

        simulator = Simulator(majority_protocol(), engine="ensemble", seed=0)
        ensemble = VectorizedEnsemble(
            simulator._compiled, "uniform", simulator._classes
        )
        assert isinstance(ensemble, Stepper)
        assert ensemble.source() is None
        assert ensemble.qa_meta["implementation"] == "numpy-ensemble"
        assert ensemble.qa_meta["kind"] == "uniform"

    def test_tables_are_cached_and_dropped_on_pickle(self):
        import pickle

        simulator = Simulator(majority_protocol(), engine="ensemble", seed=0)
        net = simulator._compiled
        tables = net.ensemble_tables()
        assert net.ensemble_tables() is tables
        clone = pickle.loads(pickle.dumps(net))
        assert clone._ensemble_tables is None
        rebuilt = clone.ensemble_tables()
        assert rebuilt.num_blocks == tables.num_blocks
        assert rebuilt.block == tables.block

    def test_blocked_layout_covers_the_net(self):
        import numpy as np

        from repro.experiments.experiment_defs import random_interaction_protocol

        for num_transitions in (1, 5, 33, 700, 1200):
            protocol, _ = random_interaction_protocol(
                num_transitions, random.Random(num_transitions)
            )
            net = Simulator(protocol, engine="ensemble", seed=0)._compiled
            tables = net.ensemble_tables()
            assert tables.padded >= tables.num_blocks * tables.block
            assert tables.padded > net.num_transitions
            assert tables.block == 1 << tables.block_shift
            assert 2 * tables.block * tables.block >= net.num_transitions
            assert int(np.sum(tables.a_len)) == sum(
                len(affected) for affected in net.affected
            )
