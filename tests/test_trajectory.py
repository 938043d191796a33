"""Tests for opt-in trajectory recording (repro.simulation.trajectory).

Covers the truncation semantics of the bounded recording deque (the recorded
indices are the *last* ``capacity`` firings, with the dropped prefix
counted) on every engine — native seed lists included — replay of
complete trajectories to the run's final configuration, the engines agreeing
on the recorded paths index for index, and recording memory following the
steps actually fired rather than the step budget or the capacity.
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


def _record(protocol, inputs, engine, capacity, seed=7, max_steps=500,
            scheduler=None, **kwargs):
    result = Simulator(protocol, scheduler=scheduler, seed=seed, engine=engine).run(
        inputs,
        max_steps=max_steps,
        stability_window=10 ** 9,
        record_trajectory=True,
        trajectory_capacity=capacity,
        **kwargs,
    )
    return result


def _record_many(protocol, inputs, engine, capacity, seed=7, max_steps=5000,
                 scheduler=None):
    """Four recorded repetitions; under ``engine="native"`` one seed-list call."""
    return Simulator(protocol, scheduler=scheduler, seed=seed, engine=engine).run_many(
        inputs,
        4,
        max_steps=max_steps,
        stability_window=60,
        record_trajectory=True,
        trajectory_capacity=capacity,
    )


class TestRingBufferSemantics:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_truncation_keeps_the_last_capacity_firings(self, engine):
        protocol = majority_protocol()
        inputs = from_counts(A=20, B=12)
        full = _record(protocol, inputs, engine, capacity=10 ** 6)
        truncated = _record(protocol, inputs, engine, capacity=32)
        assert full.trajectory.is_complete
        assert not truncated.trajectory.is_complete
        assert truncated.trajectory.total_fired == full.trajectory.total_fired
        assert truncated.trajectory.transition_indices == (
            full.trajectory.transition_indices[-32:]
        )
        assert truncated.trajectory.dropped == full.trajectory.total_fired - 32
        assert len(truncated.trajectory) == 32

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exact_capacity_is_complete(self, engine):
        protocol = majority_protocol()
        inputs = from_counts(A=20, B=12)
        full = _record(protocol, inputs, engine, capacity=10 ** 6, max_steps=200)
        fired = full.trajectory.total_fired
        exact = _record(protocol, inputs, engine, capacity=fired, max_steps=200)
        assert exact.trajectory.is_complete
        assert exact.trajectory.transition_indices == full.trajectory.transition_indices

    @pytest.mark.parametrize("engine", ENGINES)
    def test_capacity_one_keeps_only_the_last_firing(self, engine):
        protocol = majority_protocol()
        inputs = from_counts(A=20, B=12)
        full = _record(protocol, inputs, engine, capacity=10 ** 6, max_steps=100)
        tiny = _record(protocol, inputs, engine, capacity=1, max_steps=100)
        assert tiny.trajectory.transition_indices == (
            full.trajectory.transition_indices[-1],
        )
        assert tiny.trajectory.dropped == full.trajectory.total_fired - 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_many_rows_keep_the_last_capacity_firings(self, engine):
        # Rows stop at different steps (one seed-list call under
        # engine="native"), and each truncates on its own.
        protocol = majority_protocol()
        inputs = from_counts(A=17, B=9)
        full = _record_many(protocol, inputs, engine, capacity=10 ** 6)
        truncated = _record_many(protocol, inputs, engine, capacity=32)
        assert len({result.steps for result in full}) > 1
        for full_row, truncated_row in zip(full, truncated):
            assert full_row.trajectory.is_complete
            assert truncated_row.trajectory.total_fired == full_row.steps
            assert truncated_row.trajectory.capacity == 32
            assert truncated_row.trajectory.transition_indices == (
                full_row.trajectory.transition_indices[-32:]
            )

    def test_invalid_capacity_rejected(self):
        protocol = majority_protocol()
        simulator = Simulator(protocol, seed=0)
        with pytest.raises(ValueError, match="trajectory_capacity"):
            simulator.run(from_counts(A=3, B=1), record_trajectory=True, trajectory_capacity=0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_terminal_run_records_an_empty_trajectory(self, engine):
        # A single below-threshold agent never interacts.
        protocol = flock_of_birds_protocol(3)
        result = _record(protocol, Configuration({1: 1}), engine, capacity=16)
        assert result.terminated
        assert result.trajectory is not None
        assert result.trajectory.total_fired == 0
        assert len(result.trajectory) == 0
        assert result.trajectory.is_complete

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
        result = _record(protocol, inputs, engine, capacity=10 ** 6)
        trajectory = result.trajectory
        assert trajectory.is_complete
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
            trajectory_capacity=10 ** 6,
        )
        replayed = result.trajectory.replay(protocol.petri_net, result.initial)
        assert replayed == result.final

    def test_truncated_trajectory_refuses_to_replay(self):
        protocol = majority_protocol()
        result = _record(protocol, from_counts(A=20, B=12), "compiled", capacity=8)
        assert not result.trajectory.is_complete
        with pytest.raises(ValueError, match="truncated"):
            result.trajectory.replay(protocol.petri_net, result.initial)

    def test_transitions_resolve_against_net_order(self):
        protocol = majority_protocol()
        net = protocol.petri_net
        result = _record(protocol, from_counts(A=8, B=5), "compiled", capacity=10 ** 6)
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
        recorded = _record(
            protocol, inputs, engine, capacity=10 ** 6, seed=seed, scheduler=scheduler
        )
        reference = _record(
            protocol, inputs, "reference", capacity=10 ** 6, seed=seed, scheduler=scheduler
        )
        assert recorded.trajectory == reference.trajectory
        assert recorded.final == reference.final

    @pytest.mark.parametrize("engine", DENSE_ENGINES)
    @SCHEDULERS
    def test_engines_agree_on_truncated_paths(self, engine, scheduler):
        protocol = majority_protocol()
        inputs = from_counts(A=17, B=9)
        recorded = _record(protocol, inputs, engine, capacity=25, seed=5, scheduler=scheduler)
        reference = _record(
            protocol, inputs, "reference", capacity=25, seed=5, scheduler=scheduler
        )
        assert recorded.trajectory == reference.trajectory

    @pytest.mark.parametrize("engine", DENSE_ENGINES)
    @SCHEDULERS
    def test_engines_agree_on_truncated_run_many_rows(self, engine, scheduler):
        protocol = majority_protocol()
        inputs = from_counts(A=17, B=9)
        recorded = _record_many(
            protocol, inputs, engine, capacity=25, seed=5, scheduler=scheduler
        )
        reference = _record_many(
            protocol, inputs, "reference", capacity=25, seed=5, scheduler=scheduler
        )
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
    """Recording memory follows the steps fired, not the budget or capacity.

    Majority at population 24 stabilizes within a few thousand steps, so an
    analytics batch (which records every run in full) and a recorded run
    with a huge capacity both stay far below the 2 MB bound however large
    ``max_steps`` is; a buffer sized by min(capacity, max_steps) would take
    16 MB per run.
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
                trajectory_capacity=10 ** 8,
            )
        )
        assert single.trajectory.is_complete
        assert single.trajectory.capacity == 10 ** 8
        assert single.steps < 20_000
        assert peak < self.PEAK_BYTES, f"recorded run peaked at {peak} bytes"
