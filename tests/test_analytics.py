"""Tests for the trajectory-analytics subsystem (repro.analytics).

Covers the four layers end to end: per-run metric extraction (including the
block-skip replay against a naive per-step reference), ensemble aggregation,
trajectory diffing, the batch-layer ``analytics=`` knob (in-worker
extraction, serial/process bit-identity, compact payloads), the sweep
integration (accuracy + analytics columns, byte-stable stores) and the
``python -m repro.analytics`` CLI.
"""

import pickle
import random

import pytest

from engines import ENGINES
from repro.analytics import (
    AnalyticsSpec,
    EnsembleAnalytics,
    aggregate_run_metrics,
    describe_diff,
    diff_results,
    diff_trajectories,
    extract_run_metrics,
    firing_histogram,
    pooled_histogram,
    quantile,
    top_transitions,
)
from repro.analytics.metrics import (
    _consensus_of,
    _initial_counters,
    _replay_tables,
)
from repro.analytics.report import main as analytics_main
from repro.core import Configuration
from repro.simulation import (
    Simulator,
    WorkerPool,
    repetition_seeds,
    run_ensemble,
)
from repro.simulation.trajectory import Trajectory
from repro.sweep import (
    SqliteResultStore,
    SweepRunner,
    SweepSpec,
    build_predicate_for,
    build_protocol_and_inputs,
    export_rows,
)


def _majority(population=13):
    return build_protocol_and_inputs("majority", population, {})


def _recorded_run(protocol, inputs, seed=2022, max_steps=400, window=80,
                  engine="auto"):
    simulator = Simulator(protocol, seed=seed, engine=engine)
    return simulator.run(
        inputs, max_steps=max_steps, stability_window=window,
        record_trajectory=True,
    )


def _naive_first_consensus(result, protocol):
    """Per-step reference implementation the block-skip replay must match."""
    compiled, classes, deltas, _ = _replay_tables(protocol)
    one, zero, undef = _initial_counters(result.initial, compiled, classes)
    if _consensus_of(one, zero, undef) is not None:
        return 0
    for step, index in enumerate(result.trajectory.transition_indices, start=1):
        d_one, d_zero, d_undef = deltas[index]
        one += d_one
        zero += d_zero
        undef += d_undef
        if _consensus_of(one, zero, undef) is not None:
            return step
    return None


def _configuration_replay(result, protocol, checkpoints):
    """An independent oracle for the replay: fire the recorded word on
    :class:`Configuration` values step by step, reading consensus from
    ``protocol.has_consensus`` and the curve as the share of output-carrying
    agents whose output is the final consensus.

    Returns ``(time_to_first_consensus, curve)``.
    """
    output = protocol.output_table

    def in_consensus(configuration):
        return protocol.has_consensus(configuration, 1) or protocol.has_consensus(
            configuration, 0
        )

    def share(configuration):
        carrying = agreeing = 0
        for state, count in configuration.items():
            if state in output:
                carrying += count
                agreeing += count if output[state] == result.consensus else 0
        return agreeing / carrying

    configuration = result.initial
    first = 0 if in_consensus(configuration) else None
    sampled = {0: share(configuration)} if 0 in checkpoints else {}
    for step, transition in enumerate(
        result.trajectory.transitions(protocol.petri_net), start=1
    ):
        configuration = transition.fire(configuration)
        if first is None and in_consensus(configuration):
            first = step
        if step in checkpoints:
            sampled[step] = share(configuration)
    curve = tuple(
        (checkpoint, sampled.get(checkpoint, share(configuration)))
        for checkpoint in checkpoints
    )
    return first, curve


class TestAnalyticsSpec:
    def test_defaults_are_picklable_and_hashable(self):
        spec = AnalyticsSpec(expected_output=1)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(AnalyticsSpec(expected_output=1))

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            AnalyticsSpec(curve_checkpoints=(-1,))
        with pytest.raises(ValueError, match="sorted"):
            AnalyticsSpec(curve_checkpoints=(10, 5))
        with pytest.raises(ValueError, match="duplicate"):
            AnalyticsSpec(curve_checkpoints=(5, 5))
        with pytest.raises(ValueError, match="integers"):
            AnalyticsSpec(curve_checkpoints=(1.5,))
        with pytest.raises(ValueError, match="integers"):
            AnalyticsSpec(curve_checkpoints=(True,))

    def test_expected_output_validation(self):
        with pytest.raises(ValueError, match="expected_output"):
            AnalyticsSpec(expected_output=2)


class TestExtractRunMetrics:
    def test_requires_a_recorded_trajectory(self):
        protocol, inputs = _majority()
        result = Simulator(protocol, seed=1).run(inputs, max_steps=50)
        with pytest.raises(ValueError, match="no recorded trajectory"):
            extract_run_metrics(result, protocol)

    def test_metric_dict_shape_and_consistency(self):
        protocol, inputs = _majority()
        result = _recorded_run(protocol, inputs)
        metrics = extract_run_metrics(
            result, protocol, AnalyticsSpec(expected_output=1)
        )
        assert metrics["steps"] == result.steps
        assert metrics["consensus"] == result.consensus
        assert metrics["time_to_stable_consensus"] == result.consensus_step
        assert metrics["correct"] is (result.consensus == 1)
        assert metrics["trajectory_complete"] is True
        assert sum(metrics["histogram"]) == result.steps
        assert metrics["curve"] is None  # no checkpoints requested
        first = metrics["time_to_first_consensus"]
        assert first is not None and first <= metrics["time_to_stable_consensus"]

    @pytest.mark.parametrize(
        "case",
        [
            ("majority", {}, 13, 400),
            ("majority", {}, 40, 3000),
            ("majority", {}, 200, 2000),  # budget-exhausted, no consensus
            ("modulo", {"modulus": 3, "remainder": 1}, 11, 400),
            ("succinct", {"threshold": 4}, 9, 500),
            ("flock", {"threshold": 5}, 12, 400),
        ],
        ids=lambda case: f"{case[0]}-{case[2]}",
    )
    def test_block_skip_replay_matches_naive_scan(self, case):
        # The fast replay (bulk Counter skips + exact tails) must agree with
        # the obvious per-step loop on every protocol shape — converged,
        # unconverged, with and without '*'-output states.
        name, params, population, budget = case
        protocol, inputs = build_protocol_and_inputs(name, population, params)
        for seed in range(5):
            result = _recorded_run(
                protocol, inputs, seed=seed, max_steps=budget, window=60
            )
            metrics = extract_run_metrics(result, protocol, AnalyticsSpec())
            assert metrics["time_to_first_consensus"] == _naive_first_consensus(
                result, protocol
            )
            assert metrics["histogram"] == firing_histogram(
                result.trajectory, protocol.petri_net.num_transitions
            )

    @pytest.mark.parametrize(
        "case",
        [
            ("majority", {}, 12),
            ("majority", {}, 40),
            ("modulo", {"modulus": 3, "remainder": 1}, 11),
            ("succinct", {"threshold": 4}, 9),
            ("flock", {"threshold": 5}, 12),
            ("modulo", {"modulus": 3, "remainder": 1}, 200),
            ("flock", {"threshold": 5}, 200),
        ],
        ids=lambda case: f"{case[0]}-{case[2]}",
    )
    def test_replay_matches_a_configuration_oracle(self, case):
        # One block-skip loop yields the first consensus and the curve, its
        # blocks stopping at each checkpoint; checkpoints fall at random,
        # in runs of consecutive steps and past the run's end.
        name, params, population = case
        protocol, inputs = build_protocol_and_inputs(name, population, params)
        rng = random.Random(population * 1000 + len(name))
        for seed in range(6):
            result = _recorded_run(
                protocol, inputs, seed=seed, max_steps=6000, window=200
            )
            top = result.steps + 40
            scattered = rng.sample(range(top + 1), min(8, top + 1))
            start = rng.randrange(top + 1)
            checkpoints = tuple(sorted(set(scattered) | set(range(start, start + 5))))
            metrics = extract_run_metrics(
                result, protocol, AnalyticsSpec(curve_checkpoints=checkpoints)
            )
            first, curve = _configuration_replay(result, protocol, checkpoints)
            assert metrics["time_to_first_consensus"] == first
            assert metrics["curve"] == (curve if result.consensus is not None else None)

    def test_zero_step_terminal_run(self):
        # A single agent enables no width-2 transition: the run terminates at
        # step 0 with an immediate consensus and an all-zero histogram.
        protocol, _ = _majority()
        from repro.protocols.majority import STATE_A

        inputs = Configuration({STATE_A: 1})
        result = _recorded_run(protocol, inputs, max_steps=100)
        metrics = extract_run_metrics(
            result, protocol, AnalyticsSpec(curve_checkpoints=(0, 10))
        )
        assert metrics["steps"] == 0
        assert metrics["histogram"] == (0, 0, 0, 0)
        assert metrics["time_to_first_consensus"] == 0
        assert metrics["time_to_stable_consensus"] == 0
        assert metrics["curve"] == ((0, 1.0), (10, 1.0))

    def test_single_output_class_protocol_still_counts_firings(self):
        # Every state outputs 1, so no transition ever moves the consensus
        # counters (max_delta == 0) and the replay can skip the whole scan —
        # but the histogram must still count every firing, and the run is in
        # consensus from step 0.
        from repro.core.petrinet import PetriNet
        from repro.core.protocol import Protocol
        from repro.core.transition import Transition

        net = PetriNet([
            Transition({"x": 2}, {"x": 1, "y": 1}, name="shed"),
            Transition({"y": 2}, {"x": 1, "y": 1}, name="mix"),
        ])
        protocol = Protocol.from_petri_net(
            net, leaders=Configuration({}), initial_states=["x"],
            output={"x": 1, "y": 1}, name="all-ones",
        )
        inputs = Configuration({"x": 10})
        result = _recorded_run(protocol, inputs, seed=3, max_steps=60, window=500)
        assert result.steps > 0
        metrics = extract_run_metrics(
            result, protocol, AnalyticsSpec(expected_output=1)
        )
        assert sum(metrics["histogram"]) == result.steps
        assert metrics["histogram"] == firing_histogram(
            result.trajectory, net.num_transitions
        )
        assert metrics["time_to_first_consensus"] == 0
        assert metrics["correct"] is True

    def test_curve_checkpoints_beyond_run_length_sample_the_end(self):
        protocol, inputs = _majority()
        result = _recorded_run(protocol, inputs)
        metrics = extract_run_metrics(
            result, protocol,
            AnalyticsSpec(curve_checkpoints=(0, result.steps, 99999)),
        )
        curve = dict(metrics["curve"])
        assert curve[result.steps] == 1.0  # converged: everyone agrees
        assert curve[99999] == 1.0
        assert 0.0 < curve[0] < 1.0

    def test_unconverged_run_has_no_curve(self):
        protocol, inputs = _majority(200)
        result = _recorded_run(protocol, inputs, max_steps=500)
        assert result.consensus is None
        metrics = extract_run_metrics(
            result, protocol, AnalyticsSpec(curve_checkpoints=(0, 100))
        )
        assert metrics["curve"] is None
        assert metrics["time_to_first_consensus"] is None

    def test_histogram_rejects_bad_sizes(self):
        protocol, inputs = _majority()
        result = _recorded_run(protocol, inputs)
        with pytest.raises(ValueError, match="at least 1"):
            firing_histogram(result.trajectory, 0)
        with pytest.raises(ValueError, match="outside"):
            firing_histogram(result.trajectory, 2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engines_extract_identical_metrics(self, engine):
        protocol, inputs = _majority()
        spec = AnalyticsSpec(curve_checkpoints=(0, 50, 400), expected_output=1)
        reference = extract_run_metrics(
            _recorded_run(protocol, inputs, engine="reference"), protocol, spec
        )
        other = extract_run_metrics(
            _recorded_run(protocol, inputs, engine=engine), protocol, spec
        )
        assert reference == other


class TestBatchAnalytics:
    def test_in_process_and_pool_metrics_are_identical(self):
        protocol, inputs = _majority(40)
        spec = AnalyticsSpec(expected_output=1)
        seeds = list(range(12))
        serial = run_ensemble(
            protocol, inputs, seeds, max_steps=4000, analytics=spec,
        )
        with WorkerPool(max_workers=2) as pool:
            process = pool.run_seeds(
                protocol, inputs, seeds, max_steps=4000, analytics=spec,
            )
        assert [r.analytics for r in serial] == [r.analytics for r in process]
        # Trajectory rings were consumed in the workers, not shipped back.
        assert all(r.trajectory is None for r in serial + process)

    def test_analytics_do_not_perturb_results(self):
        protocol, inputs = _majority(40)
        plain = run_ensemble(protocol, inputs, range(8), max_steps=4000)
        analysed = run_ensemble(
            protocol, inputs, range(8), max_steps=4000, analytics=AnalyticsSpec(),
        )
        assert [
            (r.steps, r.consensus, r.consensus_step, r.terminated, r.final)
            for r in plain
        ] == [
            (r.steps, r.consensus, r.consensus_step, r.terminated, r.final)
            for r in analysed
        ]

    def test_requested_trajectories_survive_analytics_bit_identically(self):
        # record_trajectory=True + analytics: the returned trajectory must be
        # exactly what a plain recorded run returns.
        protocol, inputs = _majority(13)
        plain = run_ensemble(
            protocol, inputs, range(4), max_steps=400, record_trajectory=True,
        )
        analysed = run_ensemble(
            protocol, inputs, range(4), max_steps=400, record_trajectory=True,
            analytics=AnalyticsSpec(),
        )
        assert [r.trajectory for r in plain] == [r.trajectory for r in analysed]
        assert all(r.analytics is not None for r in analysed)

    def test_worker_pool_run_seeds_carries_analytics(self):
        protocol, inputs = _majority(13)
        with WorkerPool(max_workers=2) as pool:
            results = pool.run_seeds(
                protocol, inputs, repetition_seeds(3, 8), max_steps=400,
                analytics=AnalyticsSpec(expected_output=1),
            )
        assert all(r.analytics is not None and r.trajectory is None
                   for r in results)
        serial = Simulator(protocol, seed=3).run_many(
            inputs, 8, max_steps=400, analytics=AnalyticsSpec(expected_output=1)
        )
        assert [r.analytics for r in results] == [r.analytics for r in serial]

    def test_compact_payload_crosses_the_pool(self):
        protocol, inputs = _majority(40)
        results = run_ensemble(
            protocol, inputs, [1], max_steps=4000, analytics=AnalyticsSpec(),
        )
        payload = len(pickle.dumps(results[0]))
        ring = len(pickle.dumps(tuple(range(results[0].steps))))
        assert payload < ring, (
            "the analytics payload should be smaller than the trajectory "
            f"ring it replaces ({payload} >= {ring})"
        )

    def test_invalid_analytics_objects_are_rejected_early(self):
        protocol, inputs = _majority(13)
        with pytest.raises(ValueError, match="extract"):
            run_ensemble(protocol, inputs, [1], analytics=object())

        class Unpicklable:
            extract = staticmethod(lambda result, protocol: {})

            def __reduce__(self):
                raise TypeError("deliberately unpicklable")

        # An in-process ensemble never pickles the spec, so this one is fine
        # there...
        run_ensemble(protocol, inputs, [], analytics=Unpicklable())
        # ...but a pool must reject it before sending it.
        with WorkerPool(max_workers=2) as pool:
            with pytest.raises(ValueError, match="picklable analytics"):
                pool.run_seeds(protocol, inputs, [1, 2], analytics=Unpicklable())
            assert pool._pool is None


class TestQuantile:
    def test_linear_interpolation(self):
        values = [10, 20, 30, 40]
        assert quantile(values, 0.0) == 10
        assert quantile(values, 1.0) == 40
        assert quantile(values, 0.5) == 25.0
        assert quantile(values, 0.25) == pytest.approx(17.5)

    def test_single_value_is_every_quantile(self):
        assert quantile([7], 0.1) == 7 == quantile([7], 0.9)

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError, match="empty"):
            quantile([], 0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            quantile([1], 1.5)


class TestPooledHistogramAndTop:
    def test_pooling_sums_elementwise(self):
        assert pooled_histogram([(1, 2, 0), (0, 3, 5)]) == (1, 5, 5)

    def test_empty_and_mismatched_raise(self):
        with pytest.raises(ValueError, match="empty"):
            pooled_histogram([])
        with pytest.raises(ValueError, match="disagree"):
            pooled_histogram([(1, 2), (1, 2, 3)])

    def test_top_transitions_orders_and_labels(self):
        histogram = (5, 0, 9, 5)
        assert top_transitions(histogram, k=3) == (
            ("2", 9), ("0", 5), ("3", 5)  # ties broken by index
        )
        names = ["a", "b", "c", "d"]
        assert top_transitions(histogram, names, k=1) == (("c", 9),)
        assert top_transitions((0, 0), names, k=2) == ()
        with pytest.raises(ValueError, match="at least 1"):
            top_transitions(histogram, k=0)


class TestAggregateRunMetrics:
    def _metric(self, consensus=1, stable=100, first=50, correct=True,
                histogram=(1, 2)):
        return {
            "steps": stable if stable is not None else 500,
            "consensus": consensus,
            "time_to_stable_consensus": stable,
            "time_to_first_consensus": first,
            "correct": correct,
            "trajectory_complete": True,
            "histogram": histogram,
            "curve": None,
        }

    def test_empty_raises_like_summarize_runs(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_run_metrics([])

    def test_aggregation(self):
        metrics = [
            self._metric(stable=100, first=40),
            self._metric(stable=300, first=60),
            self._metric(consensus=None, stable=None, first=None,
                         correct=False),
        ]
        aggregated = aggregate_run_metrics(metrics, quantile_points=(0.5,))
        assert aggregated.runs == 3
        assert aggregated.converged == 2
        assert aggregated.convergence_rate == pytest.approx(2 / 3)
        # Accuracy counts correct runs over *all* runs.
        assert aggregated.accuracy == pytest.approx(2 / 3)
        assert aggregated.stable_consensus_quantiles == (200.0,)
        assert aggregated.first_consensus_quantiles == (50.0,)
        assert aggregated.histogram == (3, 6)

    def test_accuracy_denominator_counts_only_scored_runs(self):
        # Runs without a correct flag (no expectation was set for them) are
        # excluded from the accuracy denominator, not silently counted as
        # wrong.
        metrics = [
            self._metric(correct=True),
            self._metric(correct=True),
            self._metric(correct=None),
        ]
        assert aggregate_run_metrics(metrics).accuracy == 1.0

    def test_no_convergence_yields_none_quantiles(self):
        aggregated = aggregate_run_metrics(
            [self._metric(consensus=None, stable=None, first=None,
                          correct=None)]
        )
        assert aggregated.stable_consensus_quantiles is None
        assert aggregated.first_consensus_quantiles is None
        assert aggregated.accuracy is None
        assert aggregated.convergence_rate == 0.0

    def test_mean_curve_averages_per_checkpoint(self):
        metrics = [
            dict(self._metric(), curve=((0, 0.5), (10, 1.0))),
            dict(self._metric(), curve=((0, 0.7), (10, 0.8))),
        ]
        aggregated = aggregate_run_metrics(metrics)
        assert aggregated.mean_curve == (
            (0, pytest.approx(0.6)), (10, pytest.approx(0.9))
        )

    def test_invalid_quantile_points_raise(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            aggregate_run_metrics([self._metric()], quantile_points=(2.0,))

    def test_zero_run_rate_on_the_dataclass(self):
        analytics = EnsembleAnalytics(
            runs=0, converged=0, accuracy=None, quantile_points=(),
            stable_consensus_quantiles=None, first_consensus_quantiles=None,
            histogram=None, mean_curve=None,
        )
        assert analytics.convergence_rate == 0.0


class TestTrajectoryDiff:
    def _trajectory(self, indices):
        return Trajectory(transition_indices=tuple(indices))

    def test_identical(self):
        diff = diff_trajectories(
            self._trajectory([1, 2, 3]), self._trajectory([1, 2, 3])
        )
        assert diff.identical
        assert diff.first_divergence is None
        assert "identical" in describe_diff(diff)

    def test_divergence_is_located(self):
        diff = diff_trajectories(
            self._trajectory([1, 2, 3, 4]), self._trajectory([1, 2, 9, 4])
        )
        assert diff.first_divergence == 2
        assert diff.common_prefix == 2
        assert (diff.fired_a, diff.fired_b) == (3, 9)
        assert not diff.identical
        text = describe_diff(diff, label_a="x", label_b="y")
        assert "step 3" in text and "x fired" in text

    def test_prefix_is_not_a_divergence(self):
        diff = diff_trajectories(
            self._trajectory([1, 2]), self._trajectory([1, 2, 3])
        )
        assert diff.first_divergence is None
        assert not diff.identical
        assert diff.common_prefix == 2
        assert "continued" in describe_diff(diff)

    def test_diff_results_requires_recordings(self):
        protocol, inputs = _majority()
        bare = Simulator(protocol, seed=1).run(inputs, max_steps=50)
        recorded = _recorded_run(protocol, inputs)
        with pytest.raises(ValueError, match="no recorded trajectory"):
            diff_results(bare, recorded)

    def test_engines_diff_identical_schedulers_diverge(self):
        protocol, inputs = _majority()
        compiled = _recorded_run(protocol, inputs, engine="compiled")
        reference = _recorded_run(protocol, inputs, engine="reference")
        assert diff_results(compiled, reference).identical

        from repro.simulation import TransitionScheduler

        transition = Simulator(
            protocol, scheduler=TransitionScheduler(), seed=2022
        ).run(
            inputs, max_steps=400, stability_window=80,
            record_trajectory=True,
        )
        diff = diff_results(compiled, transition)
        assert not diff.identical
        named = describe_diff(diff, net=protocol.petri_net)
        assert "#" in named  # transition names resolved


class TestSweepAnalytics:
    def _spec(self, analytics=True, **overrides):
        options = dict(
            protocols=("majority", ("modulo", {"modulus": 3, "remainder": 1})),
            populations=(12,),
            schedulers=("uniform",),
            engines=("compiled", "reference"),
            repetitions=3,
            master_seed=11,
            max_steps=4000,
            stability_window=200,
            analytics=analytics,
        )
        options.update(overrides)
        return SweepSpec(**options)

    def test_analytics_flag_round_trips_and_validates(self):
        spec = self._spec()
        assert SweepSpec.from_json(spec.to_json()) == spec
        assert SweepSpec.from_json(self._spec(analytics=False).to_json()).analytics is False
        with pytest.raises(ValueError, match="boolean"):
            self._spec(analytics="yes")

    def test_analytics_columns_are_populated_and_engine_identical(self):
        store = SqliteResultStore(":memory:")
        report = SweepRunner(self._spec(), store, backend="serial").run()
        assert report.complete
        rows = store.rows()
        for row in rows:
            assert row["accuracy"] == 1.0
            assert row["consensus_q50"] is not None
            assert row["consensus_q10"] <= row["consensus_q50"] <= row["consensus_q90"]
            assert ":" in row["top_transitions"]
        # Engine rows of a grid point share seeds: analytics columns agree.
        by_point = {}
        for row in rows:
            key = (row["protocol"], row["params"], row["population"])
            values = (
                row["accuracy"], row["consensus_q10"], row["consensus_q50"],
                row["consensus_q90"], row["top_transitions"],
            )
            by_point.setdefault(key, set()).add(values)
        assert all(len(values) == 1 for values in by_point.values())

    def test_accuracy_is_scored_even_without_analytics(self):
        store = SqliteResultStore(":memory:")
        SweepRunner(self._spec(analytics=False), store, backend="serial").run()
        for row in store.rows():
            assert row["accuracy"] == 1.0
            # The trajectory-derived columns stay empty without analytics.
            assert row["consensus_q50"] is None
            assert row["top_transitions"] is None

    def test_analytics_store_is_byte_stable_across_backends_and_resume(
        self, tmp_path
    ):
        spec = self._spec()

        def export(store, name):
            export_rows(store.rows(), tmp_path / name)
            store.close()
            return (tmp_path / name).read_bytes()

        straight = SqliteResultStore(tmp_path / "straight.sqlite")
        SweepRunner(spec, straight, backend="serial").run()
        straight_bytes = export(straight, "straight.csv")

        process = SqliteResultStore(tmp_path / "process.sqlite")
        SweepRunner(spec, process, backend="process", max_workers=2).run()
        assert export(process, "process.csv") == straight_bytes

        resumed = SqliteResultStore(tmp_path / "resumed.sqlite")
        SweepRunner(spec, resumed, backend="serial").run(max_cells=2)
        resumed.close()
        resumed = SqliteResultStore(tmp_path / "resumed.sqlite")
        SweepRunner(spec, resumed, backend="serial").run()
        assert export(resumed, "resumed.csv") == straight_bytes

    def test_unregistered_predicate_leaves_accuracy_empty(self):
        from repro.sweep.spec import _PROTOCOL_BUILDERS, register_sweep_protocol
        from repro.protocols.majority import majority_protocol, STATE_A, STATE_B

        def builder(population, params):
            protocol = majority_protocol()
            return protocol, Configuration(
                {STATE_A: population - 1, STATE_B: 1}
            )

        register_sweep_protocol("majority-no-predicate", builder)
        try:
            spec = SweepSpec(
                protocols=("majority-no-predicate",),
                populations=(8,),
                engines=("compiled",),
                repetitions=2,
                master_seed=3,
                max_steps=2000,
                stability_window=100,
                analytics=True,
            )
            store = SqliteResultStore(":memory:")
            SweepRunner(spec, store, backend="serial").run()
            (row,) = store.rows()
            assert row["accuracy"] is None
            assert row["consensus_q50"] is not None  # analytics still run
        finally:
            _PROTOCOL_BUILDERS.pop("majority-no-predicate")

    def test_store_rejects_malformed_quantiles(self):
        from repro.simulation import summarize_runs

        protocol, inputs = _majority()
        results = Simulator(protocol, seed=1).run_many(inputs, 2, max_steps=400)
        store = SqliteResultStore(":memory:")
        store.ensure("cell", {"protocol": "majority"}, 1)
        claim = store.claim_next("t")
        with pytest.raises(ValueError, match="q10, q50, q90"):
            store.finish_claim(
                claim, summarize_runs(results), consensus_quantiles=(1.0,)
            )
        assert store.status("cell") == "running"


class TestExperimentE13:
    def test_reduced_analytics_sweep_cross_checks_engines(self):
        from repro.experiments import registry

        table = registry.run(
            "E13", populations=(12,), repetitions=2, max_steps=4000,
            stability_window=200,
        )
        assert len(table) == 8  # 2 protocols x 1 population x 2 scheds x 2 engines
        assert set(table.column("accuracy")) == {1.0}
        rendered = table.render()
        assert "majority" in rendered and "modulo" in rendered


class TestAnalyticsCli:
    def _store_with_sweep(self, tmp_path, analytics=True):
        spec = SweepSpec(
            protocols=("majority",),
            populations=(12,),
            engines=("compiled",),
            repetitions=2,
            master_seed=5,
            max_steps=2000,
            stability_window=100,
            analytics=analytics,
        )
        path = tmp_path / "results.sqlite"
        with SqliteResultStore(path) as store:
            SweepRunner(spec, store, backend="serial").run()
        return path

    def test_report_renders_analytics_columns(self, tmp_path, capsys):
        path = self._store_with_sweep(tmp_path)
        assert analytics_main(["report", "--store", str(path)]) == 0
        output = capsys.readouterr().out
        assert "accuracy" in output and "consensus_q50" in output
        assert "majority" in output

    def test_report_notes_missing_analytics(self, tmp_path, capsys):
        path = self._store_with_sweep(tmp_path, analytics=False)
        assert analytics_main(["report", "--store", str(path)]) == 0
        assert "analytics" in capsys.readouterr().out

    def test_report_rejects_unknown_store(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert analytics_main(["report", "--store", str(missing)]) == 2

    def test_report_refuses_a_missing_store(self, tmp_path, capsys):
        missing = tmp_path / "typo.sqlite"
        assert analytics_main(["report", "--store", str(missing)]) == 2
        assert "no such store" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_hist_prints_ranked_transitions(self, capsys):
        assert analytics_main([
            "hist", "--protocol", "majority", "--population", "13",
            "--seed", "2022", "--max-steps", "400",
            "--stability-window", "80", "--top", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "firing histogram" in output
        assert "convert_a" in output

    def test_hist_calls_only_a_terminal_configuration_terminal(self, capsys):
        # A zero budget fires nothing from a configuration that is not
        # terminal; a lone majority agent has no transition to fire.
        assert analytics_main([
            "hist", "--protocol", "majority", "--population", "10",
            "--max-steps", "0",
        ]) == 0
        output = capsys.readouterr().out
        assert "no transitions fired\n" in output
        assert "terminal" not in output
        assert analytics_main(["hist", "--protocol", "majority", "--population", "1"]) == 0
        assert (
            "no transitions fired (the initial configuration is terminal)"
            in capsys.readouterr().out
        )

    def test_diff_rejects_a_negative_budget(self, capsys):
        assert analytics_main([
            "diff", "--protocol", "majority", "--population", "10",
            "--engine", "reference", "--vs-engine", "compiled", "--max-steps", "-5",
        ]) == 2
        assert "max_steps must be non-negative" in capsys.readouterr().err

    def test_diff_engines_identical_exit_zero(self, capsys):
        assert analytics_main([
            "diff", "--protocol", "majority", "--population", "13",
            "--seed", "2022", "--engine", "compiled",
            "--vs-engine", "reference", "--max-steps", "400",
            "--stability-window", "80",
        ]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_schedulers_divergent_exit_one(self, capsys):
        assert analytics_main([
            "diff", "--protocol", "majority", "--population", "13",
            "--seed", "2022", "--vs-scheduler", "transition",
            "--max-steps", "400", "--stability-window", "80",
        ]) == 1
        assert "divergence" in capsys.readouterr().out

    def test_bad_params_json_exits_two(self, capsys):
        assert analytics_main([
            "hist", "--protocol", "majority", "--population", "13",
            "--params", "{not json",
        ]) == 2
