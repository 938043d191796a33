"""Tests for opt-in trajectory recording (repro.simulation.trajectory).

Covers the recording holding the whole run on every engine — native seed
lists included, and runs longer than any fixed buffer — replay of
trajectories to the run's final configuration, the engines agreeing on the
recorded paths index for index, and recording memory following the steps
actually fired rather than the step budget.
"""

import tracemalloc

import pytest

from engines import ENGINES
from repro.analytics.metrics import AnalyticsSpec
from repro.core import Configuration, from_counts
from repro.protocols import flock_of_birds_protocol, majority_protocol
from repro.simulation import Simulator, TransitionScheduler, UniformScheduler
from repro.sweep.spec import build_protocol_and_inputs

#: The dense engines, checked against the sparse reference engine.
DENSE_ENGINES = ENGINES[1:]
SCHEDULERS = pytest.mark.parametrize(
    "scheduler", [UniformScheduler(), TransitionScheduler()],
    ids=["uniform", "transition"],
)


def _record(protocol, inputs, engine, seed=7, max_steps=500, scheduler=None):
    return Simulator(protocol, scheduler=scheduler, seed=seed, engine=engine).run(
        inputs,
        max_steps=max_steps,
        stability_window=10 ** 9,
        record_trajectory=True,
    )


def _record_many(protocol, inputs, engine, seed=7, max_steps=5000, scheduler=None):
    """Four recorded repetitions; under ``engine="native"`` one seed-list call."""
    return Simulator(protocol, scheduler=scheduler, seed=seed, engine=engine).run_many(
        inputs,
        4,
        max_steps=max_steps,
        stability_window=60,
        record_trajectory=True,
    )


class TestWholeRunRecording:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_long_run_is_recorded_in_full(self, engine):
        # 70,000 steps: longer than any fixed recording buffer of 2^16
        # entries, and than the native engine's 4096-entry chunks.
        protocol, inputs = build_protocol_and_inputs("majority", 200)
        result = Simulator(protocol, seed=3, engine=engine).run(
            inputs, max_steps=70000, stability_window=10 ** 9,
            record_trajectory=True,
        )
        assert result.steps == 70000
        assert len(result.trajectory) == 70000
        replayed = result.trajectory.replay(protocol.petri_net, result.initial)
        assert replayed == result.final

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_many_rows_record_their_whole_paths(self, engine):
        # Rows stop at different steps (one seed-list call under
        # engine="native"), and each holds exactly its own steps.
        protocol = majority_protocol()
        inputs = from_counts(A=17, B=9)
        rows = _record_many(protocol, inputs, engine)
        assert len({result.steps for result in rows}) > 1
        for row in rows:
            assert len(row.trajectory) == row.steps
            assert row.trajectory.replay(protocol.petri_net, row.initial) == row.final

    @pytest.mark.parametrize("engine", ENGINES)
    def test_terminal_run_records_an_empty_trajectory(self, engine):
        # A single below-threshold agent never interacts.
        protocol = flock_of_birds_protocol(3)
        result = _record(protocol, Configuration({1: 1}), engine)
        assert result.terminated
        assert result.trajectory is not None
        assert len(result.trajectory) == 0

    def test_not_recording_leaves_trajectory_none(self):
        result = Simulator(majority_protocol(), seed=0).run(
            from_counts(A=5, B=2), max_steps=200
        )
        assert result.trajectory is None


class TestReplay:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_complete_trajectory_replays_to_the_final_configuration(self, engine):
        protocol = majority_protocol()
        inputs = from_counts(A=18, B=11)
        result = _record(protocol, inputs, engine)
        trajectory = result.trajectory
        assert len(trajectory) == result.interactions_sampled
        replayed = trajectory.replay(protocol.petri_net, result.initial)
        assert replayed == result.final

    @pytest.mark.parametrize("engine", ENGINES)
    def test_transition_scheduler_trajectories_replay_too(self, engine):
        protocol = flock_of_birds_protocol(4)
        inputs = Configuration({1: 9})
        result = Simulator(
            protocol, seed=11, engine=engine, scheduler=TransitionScheduler()
        ).run(
            inputs,
            max_steps=300,
            stability_window=10 ** 9,
            record_trajectory=True,
        )
        replayed = result.trajectory.replay(protocol.petri_net, result.initial)
        assert replayed == result.final

    def test_transitions_resolve_against_net_order(self):
        protocol = majority_protocol()
        net = protocol.petri_net
        result = _record(protocol, from_counts(A=8, B=5), "compiled")
        resolved = result.trajectory.transitions(net)
        assert len(resolved) == len(result.trajectory)
        for index, transition in zip(result.trajectory, resolved):
            assert net.transitions[index] is transition


class TestEngineAgreement:
    @pytest.mark.parametrize("engine", DENSE_ENGINES)
    @pytest.mark.parametrize("seed", [0, 3, 19])
    @SCHEDULERS
    def test_engines_record_identical_paths(self, engine, seed, scheduler):
        protocol = majority_protocol()
        inputs = from_counts(A=17, B=9)
        recorded = _record(protocol, inputs, engine, seed=seed, scheduler=scheduler)
        reference = _record(protocol, inputs, "reference", seed=seed, scheduler=scheduler)
        assert recorded.trajectory == reference.trajectory
        assert recorded.final == reference.final

    @pytest.mark.parametrize("engine", DENSE_ENGINES)
    @SCHEDULERS
    def test_engines_agree_on_run_many_rows(self, engine, scheduler):
        # Rows of different lengths, one native seed-list call: each row's
        # whole path must equal the reference engine's row.
        protocol = majority_protocol()
        inputs = from_counts(A=17, B=9)
        recorded = _record_many(protocol, inputs, engine, seed=5, scheduler=scheduler)
        reference = _record_many(
            protocol, inputs, "reference", seed=5, scheduler=scheduler
        )
        assert len({result.steps for result in recorded}) > 1
        assert [result.trajectory for result in recorded] == [
            result.trajectory for result in reference
        ]
        assert [result.final for result in recorded] == [
            result.final for result in reference
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_recording_does_not_perturb_the_run(self, engine):
        # The recording stepper must consume the random stream exactly like
        # the plain one: same seed with and without recording, same result.
        protocol = majority_protocol()
        inputs = from_counts(A=17, B=9)
        plain = Simulator(protocol, seed=13, engine=engine).run(inputs, max_steps=400)
        recorded = Simulator(protocol, seed=13, engine=engine).run(
            inputs, max_steps=400, record_trajectory=True
        )
        assert recorded.final == plain.final
        assert recorded.steps == plain.steps
        assert recorded.consensus == plain.consensus
        assert recorded.consensus_step == plain.consensus_step


class TestBoundedMemory:
    """Recording memory follows the steps fired, not the budget.

    Majority at population 24 stabilizes within a few thousand steps, so an
    analytics batch and a recorded run both stay far below the 2 MB bound
    however large ``max_steps`` is; a buffer sized by ``max_steps`` would
    take 16 MB per run.
    """

    BUDGET = 2_000_000
    PEAK_BYTES = 2 * 1024 * 1024

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            value = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return value, peak

    @pytest.mark.parametrize("engine", ENGINES)
    def test_recording_memory_follows_steps_fired(self, engine):
        protocol, inputs = build_protocol_and_inputs("majority", 24)
        simulator = Simulator(protocol, seed=5, engine=engine)
        spec = AnalyticsSpec()
        # Build the lazily cached steppers outside the measurement.
        simulator.run_many(inputs, 2, max_steps=100, analytics=spec)
        simulator.run(inputs, max_steps=100, record_trajectory=True)

        results, peak = self._peak(
            lambda: simulator.run_many(inputs, 8, max_steps=self.BUDGET, analytics=spec)
        )
        assert all(result.consensus is not None for result in results)
        assert sum(result.steps for result in results) < 20_000
        assert peak < self.PEAK_BYTES, f"analytics batch peaked at {peak} bytes"

        single, peak = self._peak(
            lambda: simulator.run(
                inputs, max_steps=self.BUDGET, record_trajectory=True,
            )
        )
        assert len(single.trajectory) == single.steps
        assert single.steps < 20_000
        assert peak < self.PEAK_BYTES, f"recorded run peaked at {peak} bytes"
