"""Tests for the parallel batch-execution subsystem (repro.simulation.batch).

The contract under test: for a fixed ``(protocol, inputs, seed)`` the serial
and process backends return **bit-identical** result lists — same
per-repetition seeds, same per-run results, same order — regardless of worker
count or pool reuse.  Plus the supporting machinery: worker-count edge
cases, the persistent ``WorkerPool`` lifecycle, pickling of protocols and
compiled nets across process boundaries, trajectory transport through
workers, and crash/timeout containment.
"""

import os
import pickle
import signal
import threading
import time

import pytest

from engines import ENGINES
from repro.core import Configuration, from_counts
from repro.protocols import flock_of_birds_protocol, majority_protocol
from repro.simulation import (
    Scheduler,
    Simulator,
    TransitionScheduler,
    UniformScheduler,
    WorkerCrashError,
    WorkerPool,
    WorkerTimeoutError,
    repetition_seeds,
    run_ensemble,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _majority_inputs(population=48):
    majority = (2 * population) // 3
    return from_counts(A=majority, B=population - majority)


class TestSerialProcessEquivalence:
    def test_64_repetition_majority_ensemble_is_bit_identical(self):
        # The acceptance-criterion ensemble: 64 seeded majority repetitions,
        # serial vs process, compared as full SimulationResult values.
        protocol = majority_protocol()
        inputs = _majority_inputs()
        serial = Simulator(protocol, seed=2022).run_many(
            inputs, repetitions=64, max_steps=2000
        )
        parallel = Simulator(protocol, seed=2022).run_many(
            inputs, repetitions=64, max_steps=2000, backend="process", max_workers=2
        )
        assert len(serial) == len(parallel) == 64
        assert parallel == serial

    def test_worker_pool_agrees_with_simulator_run_many(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(30)
        via_simulator = Simulator(protocol, seed=9).run_many(
            inputs, repetitions=10, max_steps=1500
        )
        with WorkerPool(max_workers=2) as pool:
            via_pool = pool.run_seeds(
                protocol, inputs, repetition_seeds(9, 10), max_steps=1500
            )
        assert via_pool == via_simulator

    def test_reference_engine_ensembles_agree_across_backends(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(18)
        serial = Simulator(protocol, seed=4, engine="reference").run_many(
            inputs, repetitions=6, max_steps=800
        )
        parallel = Simulator(protocol, seed=4, engine="reference").run_many(
            inputs, repetitions=6, max_steps=800, backend="process", max_workers=2
        )
        assert parallel == serial

    def test_transition_scheduler_ensembles_agree_across_backends(self):
        protocol = flock_of_birds_protocol(4)
        inputs = Configuration({1: 9})
        serial = Simulator(protocol, scheduler=TransitionScheduler(), seed=8).run_many(
            inputs, repetitions=6, max_steps=800
        )
        parallel = Simulator(protocol, scheduler=TransitionScheduler(), seed=8).run_many(
            inputs, repetitions=6, max_steps=800, backend="process", max_workers=2
        )
        assert parallel == serial

    def test_trajectories_travel_across_the_process_boundary(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(20)
        kwargs = dict(
            repetitions=5, max_steps=300, stability_window=10 ** 9,
            record_trajectory=True, trajectory_capacity=64,
        )
        serial = Simulator(protocol, seed=5).run_many(inputs, **kwargs)
        parallel = Simulator(protocol, seed=5).run_many(
            inputs, backend="process", max_workers=2, **kwargs
        )
        assert parallel == serial
        assert all(result.trajectory is not None for result in parallel)
        assert any(result.trajectory.dropped > 0 for result in parallel)

    def test_spawn_start_method_round_trips_everything_through_pickle(self):
        # Under "spawn" nothing is fork-inherited: protocol, configuration and
        # results all cross the boundary as pickles in a fresh interpreter.
        protocol = majority_protocol()
        inputs = _majority_inputs(15)
        seeds = [11, 22, 33]
        serial = run_ensemble(protocol, inputs, seeds, max_steps=400)
        spawned = run_ensemble(
            protocol, inputs, seeds, max_steps=400,
            backend="process", max_workers=2, start_method="spawn",
        )
        assert spawned == serial


class TestWorkerCountEdgeCases:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            WorkerPool(max_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            run_ensemble(
                majority_protocol(), _majority_inputs(9), [1],
                backend="process", max_workers=0,
            )

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            WorkerPool(max_workers=-2)

    @pytest.mark.parametrize("cpus,expected", [(3, 3), (None, 1)], ids=["known", "unknown"])
    def test_default_worker_count_is_the_cpu_count(self, monkeypatch, cpus, expected):
        # os.cpu_count() returns None when the count cannot be determined.
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        with WorkerPool() as pool:
            assert pool.workers == expected

    def test_default_worker_count_matches_serial(self, monkeypatch):
        # Without max_workers the process backend sizes its pool from the
        # CPU count, and the results are still bit-identical to serial.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        protocol = majority_protocol()
        inputs = _majority_inputs(18)
        seeds = [41, 42, 43, 44]
        serial = run_ensemble(protocol, inputs, seeds, max_steps=500)
        parallel = run_ensemble(protocol, inputs, seeds, max_steps=500, backend="process")
        assert parallel == serial

    def test_single_worker_matches_serial(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(21)
        serial = Simulator(protocol, seed=1).run_many(inputs, 5, max_steps=600)
        single = Simulator(protocol, seed=1).run_many(
            inputs, 5, max_steps=600, backend="process", max_workers=1
        )
        assert single == serial

    def test_more_workers_than_repetitions(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(21)
        serial = Simulator(protocol, seed=2).run_many(inputs, 3, max_steps=600)
        oversubscribed = Simulator(protocol, seed=2).run_many(
            inputs, 3, max_steps=600, backend="process", max_workers=16
        )
        assert oversubscribed == serial

    def test_zero_repetitions_returns_empty_list(self):
        assert repetition_seeds(0, 0) == []
        assert Simulator(majority_protocol(), seed=0).run_many(
            _majority_inputs(9), 0, backend="process", max_workers=2
        ) == []

    def test_negative_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            repetition_seeds(0, -1)
        with pytest.raises(ValueError, match="repetitions"):
            Simulator(majority_protocol(), seed=0).run_many(
                _majority_inputs(9), repetitions=-1
            )

    def test_incompatible_scheduler_engine_rejected_before_spawning(self):
        # Regression: a Simulator constructor error inside the pool
        # initializer crashes every worker and multiprocessing respawns them
        # forever; the combination must be validated in the parent instead.
        class Custom(Scheduler):
            def choose(self, net, configuration, rng):
                return None

        with pytest.raises(ValueError, match="no compiled fast path"):
            run_ensemble(
                majority_protocol(), _majority_inputs(9), [1, 2],
                scheduler=Custom(), engine="compiled",
                backend="process", max_workers=2,
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_ensemble(
                majority_protocol(), _majority_inputs(9), [1], backend="threads"
            )
        with pytest.raises(ValueError, match="unknown backend"):
            Simulator(majority_protocol(), seed=0).run_many(
                _majority_inputs(9), repetitions=2, backend="threads"
            )

    def test_invalid_trajectory_capacity_rejected_before_fanout(self):
        # Regression: the batched compiled path enters the engines below
        # _dispatch's validation; a bad capacity must fail at the call site
        # with ValueError, not as an IndexError from inside a pool worker.
        for backend in ("serial", "process"):
            with pytest.raises(ValueError, match="trajectory_capacity"):
                Simulator(majority_protocol(), seed=0).run_many(
                    _majority_inputs(9), repetitions=2, backend=backend,
                    max_workers=2 if backend == "process" else None,
                    record_trajectory=True, trajectory_capacity=0,
                )


class TestStepBudget:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_run_path_rejects_a_negative_budget(self, engine):
        # Each engine used to run max_steps=-5 its own way: the reference
        # engine reported steps=-5, the dense ones steps=0.
        protocol = majority_protocol()
        inputs = _majority_inputs(10)
        simulator = Simulator(protocol, seed=0, engine=engine)
        state = simulator.rng.getstate()
        with pytest.raises(ValueError, match="max_steps"):
            simulator.run(inputs, max_steps=-5)
        with pytest.raises(ValueError, match="max_steps"):
            simulator.run_many(inputs, repetitions=3, max_steps=-5)
        assert simulator.rng.getstate() == state
        with WorkerPool(max_workers=1) as pool:
            with pytest.raises(ValueError, match="max_steps"):
                pool.run_seeds(protocol, inputs, [1, 2], engine=engine, max_steps=-5)
        # A zero budget stays allowed and fires nothing on every engine.
        result = simulator.run(inputs, max_steps=0)
        assert result.steps == 0 and not result.terminated
        assert [r.steps for r in simulator.run_many(inputs, 2, max_steps=0)] == [0, 0]


class TestReproducibility:
    def test_pool_reproducible_from_master_seed(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(24)
        with WorkerPool(max_workers=2) as pool:
            first = pool.run_seeds(
                protocol, inputs, repetition_seeds(14, 6), max_steps=800
            )
            second = pool.run_seeds(
                protocol, inputs, repetition_seeds(14, 6), max_steps=800
            )
        assert first == second

    def test_explicit_seed_lists_are_index_aligned(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(24)
        seeds = [5, 6, 7, 8, 9]
        with WorkerPool(max_workers=2) as pool:
            results = pool.run_seeds(protocol, inputs, seeds, max_steps=800)
        # Each repetition must equal a standalone run of its own seed.
        for seed, result in zip(seeds, results):
            solo = run_ensemble(protocol, inputs, [seed], max_steps=800)
            assert [result] == solo

    def test_rejected_run_many_does_not_consume_the_master_stream(self):
        # Regression: a call rejected by argument validation must not advance
        # the master generator, or a corrected retry would return a different
        # ensemble than a fresh simulator seeded the same way.
        protocol = majority_protocol()
        inputs = _majority_inputs(15)
        simulator = Simulator(protocol, seed=42)
        with pytest.raises(ValueError, match="unknown backend"):
            simulator.run_many(inputs, repetitions=4, backend="thread")
        with pytest.raises(ValueError, match="max_workers"):
            simulator.run_many(inputs, repetitions=4, backend="process", max_workers=0)
        with pytest.raises(ValueError, match="trajectory_capacity"):
            simulator.run_many(
                inputs, repetitions=4, record_trajectory=True, trajectory_capacity=0
            )
        retried = simulator.run_many(inputs, repetitions=4, max_steps=500)
        fresh = Simulator(protocol, seed=42).run_many(inputs, repetitions=4, max_steps=500)
        assert retried == fresh

    def test_late_process_rejection_does_not_consume_the_master_stream(self):
        # Failures raised deep inside run_ensemble (here: an unpicklable
        # scheduler detected only at spec-pickling time) must also leave the
        # master generator untouched.
        class Unpicklable(UniformScheduler):
            def __init__(self):
                self.hook = lambda: None

        protocol = majority_protocol()
        inputs = _majority_inputs(15)
        simulator = Simulator(protocol, scheduler=Unpicklable(), seed=42)
        with pytest.raises(ValueError, match="picklable"):
            simulator.run_many(inputs, repetitions=4, backend="process", max_workers=2)
        retried = simulator.run_many(inputs, repetitions=4, max_steps=500)
        fresh = Simulator(protocol, scheduler=Unpicklable(), seed=42).run_many(
            inputs, repetitions=4, max_steps=500
        )
        assert retried == fresh

    def test_run_many_consumes_master_stream_like_the_serial_path(self):
        # Two successive batches from one simulator must not depend on the
        # backend: the master generator advances once per repetition.
        protocol = majority_protocol()
        inputs = _majority_inputs(18)
        serial_sim = Simulator(protocol, seed=77)
        serial = serial_sim.run_many(inputs, 3, max_steps=500) + serial_sim.run_many(
            inputs, 3, max_steps=500
        )
        parallel_sim = Simulator(protocol, seed=77)
        parallel = parallel_sim.run_many(
            inputs, 3, max_steps=500, backend="process", max_workers=2
        ) + parallel_sim.run_many(inputs, 3, max_steps=500, backend="process", max_workers=2)
        assert parallel == serial


class TestPersistentPool:
    """The pool lifecycle: one set of processes reused across ensembles,
    released by close()/the context manager, spent afterwards — and never
    able to change results."""

    def test_consecutive_ensembles_reuse_one_pool(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(24)
        with WorkerPool(max_workers=2) as pool:
            first = pool.run_seeds(
                protocol, inputs, repetition_seeds(21, 8), max_steps=800
            )
            processes = pool._pool
            assert processes is not None
            second = pool.run_seeds(
                protocol, inputs, repetition_seeds(22, 8), max_steps=800
            )
            assert pool._pool is processes
        # Fresh-pool runs of the same seeds must be bit-identical: pool reuse
        # cannot leak state between ensembles.
        for seed, expected in ((21, first), (22, second)):
            with WorkerPool(max_workers=2) as fresh:
                assert fresh.run_seeds(
                    protocol, inputs, repetition_seeds(seed, 8), max_steps=800
                ) == expected

    def test_concurrent_run_seeds_from_threads_is_safe_and_deterministic(self):
        # Regression: two threads sharing one pool used to race _ensure_pool
        # and interleave map phases.  The dispatch lock serializes whole
        # ensembles, so both threads must get their exact serial results and
        # the pool must stay usable afterwards.
        protocol = majority_protocol()
        inputs = _majority_inputs(24)
        seeds_by_thread = [[101, 102, 103, 104], [201, 202, 203, 204]]
        expected = [
            run_ensemble(protocol, inputs, seeds, max_steps=500, backend="serial")
            for seeds in seeds_by_thread
        ]
        barrier = threading.Barrier(2)
        results = [None, None]
        errors = []

        def submit(index):
            try:
                barrier.wait(timeout=30)
                results[index] = pool.run_seeds(
                    protocol, inputs, seeds_by_thread[index], max_steps=500
                )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        with WorkerPool(max_workers=2) as pool:
            threads = [
                threading.Thread(target=submit, args=(index,))
                for index in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            assert results[0] == expected[0]
            assert results[1] == expected[1]
            # The pool survived the contention and still serves new work.
            again = pool.run_seeds(
                protocol, inputs, seeds_by_thread[0], max_steps=500
            )
            assert again == expected[0]

    def test_persistent_pool_matches_serial(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(24)
        serial = Simulator(protocol, seed=31).run_many(inputs, 6, max_steps=800)
        with WorkerPool(max_workers=2) as pool:
            pool.run_seeds(protocol, inputs, [99, 98, 97], max_steps=400)  # warm it
            assert pool.run_seeds(
                protocol, inputs, repetition_seeds(31, 6), max_steps=800
            ) == serial

    def test_close_is_idempotent(self):
        pool = WorkerPool(max_workers=2)
        pool.run_seeds(majority_protocol(), _majority_inputs(12), [1, 2], max_steps=300)
        assert not pool.closed
        pool.close()
        assert pool.closed
        pool.close()  # second close is a no-op
        assert pool.closed

    def test_close_without_ever_building_a_pool(self):
        pool = WorkerPool(max_workers=2)
        pool.close()
        assert pool.closed

    def test_use_after_close_raises(self):
        pool = WorkerPool(max_workers=2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_seeds(majority_protocol(), _majority_inputs(12), [1, 2])

    def test_reentering_a_closed_pool_raises(self):
        pool = WorkerPool(max_workers=2)
        with pool:
            pass
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            with pool:
                pass  # pragma: no cover

    def test_context_manager_returns_the_pool_and_closes(self):
        with WorkerPool(max_workers=2) as pool:
            assert isinstance(pool, WorkerPool)
            assert not pool.closed
        assert pool.closed

    def test_mixed_ensemble_parameters_on_one_pool(self):
        # Per-ensemble parameters (step budgets, recording) travel with each
        # call, so one initialized pool serves heterogeneous ensembles.
        protocol = majority_protocol()
        inputs = _majority_inputs(20)
        seeds = repetition_seeds(3, 4)
        recording = dict(
            max_steps=300, stability_window=10 ** 9,
            record_trajectory=True, trajectory_capacity=32,
        )
        with WorkerPool(max_workers=2) as pool:
            plain = pool.run_seeds(protocol, inputs, seeds, max_steps=500)
            recorded = pool.run_seeds(protocol, inputs, seeds, **recording)
        assert all(result.trajectory is None for result in plain)
        assert all(result.trajectory is not None for result in recorded)
        assert recorded == run_ensemble(protocol, inputs, seeds, **recording)


class TestPickling:
    def test_compiled_net_round_trips_without_steppers(self):
        protocol = majority_protocol()
        compiled = protocol.petri_net.compiled(extra_states=protocol.states)
        classes = compiled.output_classes(protocol.output_table)
        compiled.stepper("uniform", classes)
        compiled.stepper("uniform", classes, record=True)

        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._steppers == {}
        assert clone.states == compiled.states
        assert clone.pre_lists == compiled.pre_lists
        assert clone.delta_lists == compiled.delta_lists
        assert clone.affected == compiled.affected

    def test_unpickled_compiled_net_regenerates_equivalent_steppers(self):
        protocol = majority_protocol()
        compiled = protocol.petri_net.compiled(extra_states=protocol.states)
        classes = compiled.output_classes(protocol.output_table)
        original = compiled.stepper("uniform", classes)
        clone = pickle.loads(pickle.dumps(compiled))
        regenerated = clone.stepper("uniform", classes)
        assert regenerated.__code__.co_code == original.__code__.co_code
        assert clone.stepper_source("uniform", classes) == compiled.stepper_source("uniform", classes)

    def test_protocol_with_populated_compile_cache_pickles(self):
        protocol = majority_protocol()
        Simulator(protocol, seed=0, engine="compiled")  # populates the cache
        clone = pickle.loads(pickle.dumps(protocol))
        inputs = _majority_inputs(12)
        original_run = Simulator(protocol, seed=3, engine="compiled").run(
            inputs, max_steps=500
        )
        clone_run = Simulator(clone, seed=3, engine="compiled").run(inputs, max_steps=500)
        assert clone_run.final == original_run.final
        assert clone_run.steps == original_run.steps

    def test_unpicklable_scheduler_raises_a_clear_error(self):
        class Closure(Scheduler):
            def __init__(self):
                self.hook = lambda: None  # lambdas cannot be pickled

            def choose(self, net, configuration, rng):
                return None

        with pytest.raises(ValueError, match="picklable"):
            run_ensemble(
                majority_protocol(), _majority_inputs(9), [1, 2],
                scheduler=Closure(), backend="process", max_workers=2,
            )

    def test_pool_rejects_unpicklable_scheduler_before_spawning(self):
        class Closure(Scheduler):
            def __init__(self):
                self.hook = lambda: None

            def choose(self, net, configuration, rng):
                return None

        with WorkerPool(max_workers=2) as pool:
            with pytest.raises(ValueError, match="picklable"):
                pool.run_seeds(
                    majority_protocol(), _majority_inputs(9), [1, 2],
                    scheduler=Closure(),
                )
            assert pool._pool is None
        # The serial backend never pickles, so the same scheduler is fine there.
        run_ensemble(
            majority_protocol(), _majority_inputs(9), [1, 2], scheduler=Closure()
        )


class _SuicideScheduler(UniformScheduler):
    """SIGKILLs its own worker process on the first scheduling decision."""

    def choose(self, net, configuration, rng):
        os.kill(os.getpid(), signal.SIGKILL)
        return super().choose(net, configuration, rng)


class _SparseOnlyScheduler(UniformScheduler):
    """The uniform discipline without a compiled fast path."""

    def compiled_kind(self):
        return None


class _SleepyScheduler(UniformScheduler):
    """Stalls every scheduling decision far past any test timeout."""

    def choose(self, net, configuration, rng):
        time.sleep(60)
        return super().choose(net, configuration, rng)


class TestCrashContainment:
    """Worker-process death and ensemble timeouts surface as typed errors
    carrying the failing spec's context, and the pool object survives both:
    the next ensemble transparently gets fresh worker processes."""

    def test_worker_death_raises_worker_crash_error(self):
        protocol = majority_protocol()
        pool = WorkerPool(max_workers=2)
        try:
            with pytest.raises(WorkerCrashError) as caught:
                pool.run_seeds(
                    protocol, _majority_inputs(12), [1, 2],
                    scheduler=_SuicideScheduler(), engine="reference",
                    max_steps=200,
                )
            assert caught.value.protocol_name == protocol.name
            assert caught.value.seeds == (1, 2)
            assert -signal.SIGKILL in caught.value.exitcodes
        finally:
            pool.close()

    def test_ensemble_timeout_raises_worker_timeout_error(self):
        protocol = majority_protocol()
        pool = WorkerPool(max_workers=2)
        try:
            with pytest.raises(WorkerTimeoutError) as caught:
                pool.run_seeds(
                    protocol, _majority_inputs(12), [1, 2],
                    scheduler=_SleepyScheduler(), engine="reference",
                    max_steps=200, timeout=0.5,
                )
            assert caught.value.protocol_name == protocol.name
            assert caught.value.seeds == (1, 2)
            assert caught.value.timeout == 0.5
        finally:
            pool.close()

    def test_pool_survives_a_crash_and_stays_bit_identical(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(24)
        serial = run_ensemble(protocol, inputs, [5, 6, 7], max_steps=800)
        pool = WorkerPool(max_workers=2)
        try:
            with pytest.raises(WorkerCrashError):
                pool.run_seeds(
                    protocol, inputs, [1, 2],
                    scheduler=_SuicideScheduler(), engine="reference",
                    max_steps=200,
                )
            assert not pool.closed
            healthy = pool.run_seeds(protocol, inputs, [5, 6, 7], max_steps=800)
            assert healthy == serial
        finally:
            pool.close()

    def test_pool_survives_a_timeout_and_stays_bit_identical(self):
        protocol = majority_protocol()
        inputs = _majority_inputs(24)
        serial = run_ensemble(protocol, inputs, [5, 6, 7], max_steps=800)
        pool = WorkerPool(max_workers=2)
        try:
            with pytest.raises(WorkerTimeoutError):
                pool.run_seeds(
                    protocol, inputs, [1, 2],
                    scheduler=_SleepyScheduler(), engine="reference",
                    max_steps=200, timeout=0.5,
                )
            assert not pool.closed
            healthy = pool.run_seeds(protocol, inputs, [5, 6, 7], max_steps=800)
            assert healthy == serial
        finally:
            pool.close()

    def test_workers_build_simulators_lazily_and_survive_a_bad_spec(self):
        # A bare pool sends the spec to its workers unvalidated: each worker
        # builds its Simulator on first sight, so a constructor error fails
        # the ensemble but not the worker processes, and the same pool then
        # serves a valid spec bit-identically.
        protocol = majority_protocol()
        inputs = _majority_inputs(12)
        with WorkerPool(max_workers=2) as pool:
            with pytest.raises(ValueError, match="no compiled fast path"):
                pool.run_seeds(
                    protocol, inputs, [1, 2],
                    scheduler=_SparseOnlyScheduler(), engine="compiled",
                    max_steps=300,
                )
            results = pool.run_seeds(
                protocol, inputs, [1, 2],
                scheduler=_SparseOnlyScheduler(), max_steps=300,
            )
        assert results == run_ensemble(
            protocol, inputs, [1, 2], scheduler=_SparseOnlyScheduler(),
            max_steps=300,
        )

    def test_invalid_timeout_is_rejected(self):
        pool = WorkerPool(max_workers=2)
        try:
            with pytest.raises(ValueError, match="timeout must be positive"):
                pool.run_seeds(
                    majority_protocol(), _majority_inputs(12), [1],
                    timeout=0.0,
                )
        finally:
            pool.close()
