"""Tests for the experiment harness and the E1..E11 experiment definitions."""

import random

import pytest

from repro.experiments import (
    ExperimentTable,
    experiment_e1_state_counts,
    experiment_e2_theorem_4_3,
    experiment_e3_lower_bounds,
    experiment_e4_rackoff,
    experiment_e5_stability,
    experiment_e6_bottom,
    experiment_e7_cycles,
    experiment_e8_verification,
    experiment_e9_simulation_throughput,
    experiment_e10_parallel_batch,
    experiment_e11_large_net_throughput,
    experiment_e12_parameter_sweep,
    experiment_e14_ensemble_throughput,
    random_interaction_protocol,
    registry,
)
from repro.sweep import SqliteResultStore


class TestHarness:
    def test_add_row_requires_all_columns(self):
        table = ExperimentTable("X", "test", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(a=1)
        table.add_row(a=1, b=2)
        assert len(table) == 1

    def test_add_row_rejects_unexpected_columns(self):
        # Regression: unknown keys used to be accepted silently and then
        # dropped by render()/column().
        table = ExperimentTable("X", "test", columns=["a", "b"])
        with pytest.raises(ValueError, match="unexpected"):
            table.add_row(a=1, b=2, c=3)
        assert len(table) == 0

    def test_column_extraction(self):
        table = ExperimentTable("X", "test", columns=["a"])
        table.add_row(a=1)
        table.add_row(a=2)
        assert table.column("a") == [1, 2]
        with pytest.raises(KeyError):
            table.column("missing")

    def test_render_contains_header_and_rows(self):
        table = ExperimentTable("X", "test title", columns=["a"], notes="a note")
        table.add_row(a=3.14159)
        text = table.render()
        assert "X: test title" in text
        assert "3.14" in text
        assert "a note" in text

    def test_registry_contains_all_experiments(self):
        assert set(registry.ids()) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
            "E12", "E13", "E14",
        }

    def test_registry_unknown_experiment(self):
        with pytest.raises(KeyError):
            registry.run("E99")

    def test_registry_rejects_duplicates(self):
        with pytest.raises(ValueError):
            registry.register("E1")(lambda: None)


class TestExperimentE1:
    def test_shape_and_monotonicity(self):
        table = experiment_e1_state_counts(thresholds=(4, 16, 256, 65536), build_protocols_up_to=32)
        assert len(table) == 4
        classic = table.column("classic (n+1)")
        succinct = table.column("BEJ leaderless O(log n)")
        loglog = table.column("BEJ leaders O(log log n)")
        # The shape the paper is about: classic >> log n >> log log n for large n.
        assert classic[-1] > succinct[-1] > loglog[-1]
        # Examples 4.1 / 4.2 have constant state counts.
        assert set(table.column("example 4.1 (width n)")) == {2}
        assert set(table.column("example 4.2 (n leaders)")) == {6}

    def test_lower_bound_never_exceeds_upper_bound(self):
        table = experiment_e1_state_counts(thresholds=(2 ** 16, 2 ** 64), build_protocols_up_to=1)
        lower = table.column("Cor. 4.4 lower bound (h=0.49)")
        upper = table.column("BEJ leaderless O(log n)")
        assert all(l <= u for l, u in zip(lower, upper))


class TestExperimentE2:
    def test_log_log_bound_grows_with_states(self):
        table = experiment_e2_theorem_4_3(state_counts=(1, 2, 3, 4, 8), bound_parameters=(2,))
        values = table.column("log2 log2 bound (m=2)")
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestExperimentE3:
    def test_paper_bound_eventually_dominates_czerner_esparza(self):
        # The inverse-Ackermann bound is stuck at <= 3; the paper's bound grows
        # like (log log n)^h and overtakes it for huge n (around j ~ 30 for
        # h = 0.49 and m = 2).
        table = experiment_e3_lower_bounds(exponents=(6, 40, 80))
        leroux = table.column("Leroux h=0.49")
        czerner = table.column("Czerner-Esparza A^{-1}(n)")
        assert all(c <= 3 for c in czerner)
        assert leroux[-1] > czerner[-1]
        # Monotone growth of the paper's bound along the family.
        assert leroux[0] <= leroux[1] <= leroux[2]

    def test_lower_bounds_below_upper_bound(self):
        table = experiment_e3_lower_bounds(exponents=(6, 10, 16))
        leroux = table.column("Leroux h=0.49")
        upper = table.column("BEJ upper (leaders)")
        assert all(l <= u for l, u in zip(leroux, upper))


class TestExperimentE4:
    def test_measured_lengths_below_rackoff_bound(self):
        table = experiment_e4_rackoff()
        import math

        for row in table.rows:
            assert row["measured length"] >= 0
            assert math.log2(max(row["measured length"], 1)) <= row["log2 Rackoff bound"]


class TestExperimentE5:
    def test_certificates_agree_with_exact_checks(self):
        table = experiment_e5_stability(leader_counts=(1, 2), extra_agents=2)
        for row in table.rows:
            assert row["certified"] == row["agreement"]
            assert row["certified"] <= row["checked"]


class TestExperimentE6:
    def test_witness_found_and_small(self):
        table = experiment_e6_bottom(leader_counts=(1,), max_nodes=5000)
        (row,) = table.rows
        assert row["|sigma|"] >= 0
        assert row["component size"] >= 1
        # The measured sizes are minuscule compared to the bound b.
        assert row["|sigma|"] + row["|w|"] + row["component size"] < row["log2 bound b"]


class TestExperimentE7:
    def test_total_cycles_within_bound(self):
        table = experiment_e7_cycles()
        assert len(table) >= 2
        assert all(row["within bound"] for row in table.rows)


class TestExperimentE8:
    def test_all_constructions_verify(self):
        table = experiment_e8_verification(
            flock_thresholds=(1, 2),
            example_4_1_thresholds=(1, 2),
            example_4_2_thresholds=(1,),
            succinct_thresholds=(2, 3),
            extra_agents=1,
        )
        assert all(row["failures"] == 0 for row in table.rows)
        assert all(row["inputs"] > 0 for row in table.rows)


class TestExperimentE9:
    def test_engines_agree_and_rows_are_paired(self):
        table = experiment_e9_simulation_throughput(populations=(60,), max_steps=1500)
        assert len(table) == 2
        by_engine = {row["engine"]: row for row in table.rows}
        assert set(by_engine) == {"reference", "compiled"}
        # The experiment raises on trajectory divergence, so both engines
        # must have sampled the same number of interactions.
        assert by_engine["reference"]["interactions"] == by_engine["compiled"]["interactions"]
        assert all(row["interactions/s"] > 0 for row in table.rows)
        assert by_engine["reference"]["speedup"] == 1.0
        assert by_engine["compiled"]["speedup"] > 0


class TestExperimentE10:
    def test_backends_agree_and_rows_are_complete(self):
        table = experiment_e10_parallel_batch(
            population=60, repetitions=6, worker_counts=(1, 2), max_steps=800
        )
        # One serial row plus one row per worker count; the experiment raises
        # if any parallel ensemble diverges from the serial one.
        assert len(table) == 3
        by_backend = {}
        for row in table.rows:
            by_backend.setdefault(row["backend"], []).append(row)
        assert set(by_backend) == {"serial", "process"}
        assert [row["workers"] for row in by_backend["process"]] == [1, 2]
        interactions = {row["interactions"] for row in table.rows}
        assert len(interactions) == 1  # identical ensembles everywhere
        assert all(row["interactions/s"] > 0 for row in table.rows)
        assert by_backend["serial"][0]["speedup"] == 1.0


class TestExperimentE11:
    def test_random_protocol_generator_hits_the_requested_size(self):
        protocol, inputs = random_interaction_protocol(40, random.Random(1))
        net = protocol.petri_net
        assert net.num_transitions == 40
        assert net.is_conservative()
        assert net.width == 2
        # Every state starts populated, so every transition is enabled.
        assert len(net.enabled_transitions(protocol.initial_configuration(inputs))) == 40

    def test_reduced_sweep_cross_checks_engines(self):
        # A tiny sweep: the experiment raises internally if any engine
        # diverges from the compiled trajectory, so a clean table is itself
        # the equivalence assertion.  The numpy rows appear only when the
        # optional dependency is installed.
        table = experiment_e11_large_net_throughput(
            transition_counts=(20, 40), max_steps=300, reference_up_to=40
        )
        by_group = {}
        for row in table.rows:
            by_group.setdefault(row["transitions"], {})[row["engine"]] = row
        assert set(by_group) == {20, 40}
        for transitions, engines in by_group.items():
            assert {"reference", "compiled"} <= set(engines)
            assert engines["compiled"]["speedup"] == 1.0
            assert engines["compiled"]["baseline"] == "compiled"
            measured = {row["interactions"] for row in engines.values()}
            assert len(measured) == 1  # identical trajectories everywhere

    def test_fallback_baseline_labels_rows_when_codegen_is_unavailable(self):
        # Above compiled_up_to the compiled denominator does not exist; the
        # measured engines must still report a speedup, against a labeled
        # reference-engine baseline extrapolated from a short run, instead
        # of the empty cells this sweep point used to produce.
        table = experiment_e11_large_net_throughput(
            transition_counts=(30,),
            max_steps=200,
            reference_up_to=40,
            compiled_up_to=20,
            reference_fallback_steps=50,
        )
        rows = {row["engine"]: row for row in table.rows}
        assert rows["compiled"]["speedup"] is None
        assert rows["compiled"]["baseline"] is None
        reference_row = rows["reference"]
        assert reference_row["baseline"].startswith("reference (extrapolated")
        assert reference_row["speedup"] is not None
        assert reference_row["speedup"] > 0


class TestExperimentE14:
    def test_reduced_sweep_is_bit_identical_and_reports_speedups(self):
        pytest.importorskip("numpy", reason="E14 measures the ensemble engine")
        # The experiment raises internally unless every ensemble row is
        # bit-identical to its per-run NumPy counterpart, so a clean table
        # is itself the equivalence assertion.
        table = experiment_e14_ensemble_throughput(
            transition_counts=(60, 300),
            repetition_counts=(4,),
            max_steps=80,
        )
        assert len(table) == 4
        rows = {
            (row["transitions"], row["engine"]): row for row in table.rows
        }
        for transitions in (60, 300):
            assert rows[(transitions, "numpy")]["speedup"] == 1.0
            assert rows[(transitions, "ensemble")]["speedup"] > 0
            assert (
                rows[(transitions, "numpy")]["interactions"]
                == rows[(transitions, "ensemble")]["interactions"]
                == 4 * 80
            )


class TestExperimentE12:
    def test_reduced_sweep_agrees_across_engines_and_persists(self, tmp_path):
        # A tiny grid through the sweep harness: the experiment raises
        # internally if engine rows of one grid point report different
        # ensemble statistics, so a returned table is itself the agreement
        # assertion.  With store_path the table is also persisted on disk.
        store_path = tmp_path / "e12.sqlite"
        table = experiment_e12_parameter_sweep(
            populations=(12, 16), repetitions=2, max_steps=1500,
            stability_window=200, store_path=str(store_path),
        )
        assert len(table) == 2 * 2 * 2  # protocols x populations x engines
        assert set(table.column("status")) == {"done"}
        assert store_path.exists()
        # Resuming the same experiment against the persisted store skips
        # every cell and returns the identical table.
        with SqliteResultStore(store_path) as store:
            first_rows = store.rows()
        again = experiment_e12_parameter_sweep(
            populations=(12, 16), repetitions=2, max_steps=1500,
            stability_window=200, store_path=str(store_path),
        )
        with SqliteResultStore(store_path) as store:
            assert store.rows() == first_rows
        assert again.rows == table.rows

    def test_export_formats_are_refused_as_live_stores(self, tmp_path):
        with pytest.raises(ValueError, match="export"):
            experiment_e12_parameter_sweep(
                populations=(12,), repetitions=1, max_steps=200,
                store_path=str(tmp_path / "e12.csv"),
            )
        assert list(tmp_path.iterdir()) == []
