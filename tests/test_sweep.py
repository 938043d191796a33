"""Tests for the sweep harness: spec expansion, store, runner, CLI.

The load-bearing properties:

* spec expansion is deterministic and keyfield-ordered; cell seeds depend on
  the master seed and the cell's engine-free identity only,
* the sqlite store round-trips rows losslessly and refuses stores written
  by a different spec; CSV / JSON-lines exports keep one physical line per
  row and reproduce the committed golden files byte for byte,
* the runner exports **byte-identical** tables across backends and across
  kill-and-resume cycles, re-runs stale ``running`` cells, and records
  failures as ``error`` rows,
* the CLI drives the same machinery end to end, and its read-only commands
  never create a store.
"""

import sqlite3
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.simulation import Simulator, summarize_runs
from repro.sweep import (
    COLUMNS,
    CellExecutor,
    SqliteResultStore,
    StoreCorruptionError,
    SweepRunner,
    SweepSpec,
    build_protocol_and_inputs,
    export_rows,
    normalize_error_message,
    open_store,
    register_sweep_protocol,
    to_experiment_table,
)
from repro.sweep.cli import main as sweep_main
from repro.sweep.dbstore import Claim
from repro.sweep.spec import _PROTOCOL_BUILDERS
from repro.sweep.store import STATUS_DONE, STATUS_ERROR, STATUS_RUNNING

GOLDEN = Path(__file__).parent / "golden"


def _small_spec(**overrides):
    """A fast 2-protocol x 2-population x 2-engine grid (8 cells)."""
    options = dict(
        protocols=("majority", ("modulo", {"modulus": 2, "remainder": 0})),
        populations=(8, 12),
        schedulers=("uniform",),
        engines=("compiled", "reference"),
        repetitions=2,
        master_seed=42,
        max_steps=300,
        stability_window=50,
    )
    options.update(overrides)
    return SweepSpec(**options)


def _export(store_path, out_path):
    """Render a store file as CSV / JSON lines (by ``out_path``'s suffix)."""
    with SqliteResultStore(store_path) as store:
        export_rows(store.rows(), out_path)
    return Path(out_path).read_bytes()


def _run_to_export(tmp_path, spec, name, suffix=".csv", **run_options):
    """Run ``spec`` serially into a fresh store; return its export bytes."""
    store_path = tmp_path / (name + ".sqlite")
    with SqliteResultStore(store_path) as store:
        SweepRunner(spec, store, backend="serial").run(**run_options)
    return _export(store_path, tmp_path / (name + suffix))


class TestSweepSpec:
    def test_expansion_is_keyfield_ordered(self):
        spec = _small_spec()
        cells = spec.cells()
        assert len(cells) == len(spec) == 8
        # The engine axis varies fastest, then scheduler, population, protocol.
        assert [(c.protocol, c.population, c.engine) for c in cells] == [
            ("majority", 8, "compiled"), ("majority", 8, "reference"),
            ("majority", 12, "compiled"), ("majority", 12, "reference"),
            ("modulo", 8, "compiled"), ("modulo", 8, "reference"),
            ("modulo", 12, "compiled"), ("modulo", 12, "reference"),
        ]
        assert len({cell.cell_id for cell in cells}) == len(cells)

    def test_expansion_is_reproducible(self):
        assert _small_spec().cells() == _small_spec().cells()

    def test_cell_seeds_ignore_the_engine_axis(self):
        spec = _small_spec()
        seeds = {}
        for cell in spec.cells():
            seeds.setdefault(cell.seed_scope, set()).add(spec.cell_seed(cell))
        # Engine rows of one grid point share their seed; distinct grid
        # points get distinct seeds.
        assert all(len(values) == 1 for values in seeds.values())
        assert len({value for values in seeds.values() for value in values}) == 4

    def test_cell_seeds_are_position_independent(self):
        narrow = _small_spec(populations=(12,))
        wide = _small_spec(populations=(8, 12, 16))
        narrow_seeds = {c.cell_id: narrow.cell_seed(c) for c in narrow.cells()}
        wide_seeds = {c.cell_id: wide.cell_seed(c) for c in wide.cells()}
        for cell_id, seed in narrow_seeds.items():
            assert wide_seeds[cell_id] == seed

    def test_master_seed_changes_every_cell_seed(self):
        first = _small_spec(master_seed=1)
        second = _small_spec(master_seed=2)
        for one, two in zip(first.cells(), second.cells()):
            assert first.cell_seed(one) != second.cell_seed(two)

    def test_json_round_trip(self):
        spec = _small_spec()
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_validation_rejects_bad_axes(self):
        with pytest.raises(ValueError, match="unknown sweep protocol"):
            _small_spec(protocols=("no-such-protocol",))
        with pytest.raises(ValueError, match="does not accept parameters"):
            _small_spec(protocols=(("majority", {"threshold": 3}),))
        with pytest.raises(ValueError, match="unknown engine"):
            _small_spec(engines=("warp",))
        with pytest.raises(ValueError, match="unknown scheduler"):
            _small_spec(schedulers=("fifo",))
        with pytest.raises(ValueError, match="at least one protocol"):
            _small_spec(protocols=())
        with pytest.raises(ValueError, match="positive"):
            _small_spec(populations=(0,))
        with pytest.raises(ValueError, match="duplicate"):
            _small_spec(populations=(8, 8))
        with pytest.raises(ValueError, match="repetitions"):
            _small_spec(repetitions=0)
        with pytest.raises(ValueError, match="JSON-serializable"):
            _small_spec(protocols=(("majority", {"a_fraction": {1, 2}}),))

    def test_validation_rejects_non_integer_scalars(self):
        # Hand-written spec files: "4" and 2.5 must fail *here*, not as a
        # TypeError mid-validation or as eight identical error rows later.
        with pytest.raises(ValueError, match="repetitions must be an integer"):
            _small_spec(repetitions="4")
        with pytest.raises(ValueError, match="repetitions must be an integer"):
            _small_spec(repetitions=2.5)
        with pytest.raises(ValueError, match="population must be an integer"):
            _small_spec(populations=(20.5,))
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            _small_spec(max_steps=True)
        # Exact JSON floats are welcome (json has no integer type).
        assert _small_spec(repetitions=4.0).repetitions == 4

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown sweep spec fields"):
            SweepSpec.from_dict(
                {"protocols": ["majority"], "populations": [4], "workers": 2}
            )

    def test_build_protocol_and_inputs(self):
        protocol, inputs = build_protocol_and_inputs("majority", 9)
        assert inputs.size == 9
        assert protocol.petri_net is not None
        with pytest.raises(ValueError, match="unknown sweep protocol"):
            build_protocol_and_inputs("nope", 5)
        with pytest.raises(ValueError, match="population"):
            build_protocol_and_inputs("majority", 0)


class TestResultStore:
    def _populate(self, store):
        spec = _small_spec()
        cells = spec.cells()[:3]
        for cell in cells:
            store.ensure(cell.cell_id, cell.keyfields(), spec.cell_seed(cell))
        protocol, inputs = build_protocol_and_inputs("majority", 8)
        done = summarize_runs(
            Simulator(protocol, seed=1).run_many(inputs, 2, max_steps=200)
        )
        assert store.finish_claim(store.claim_next("t"), done)
        assert store.fail_claim(store.claim_next("t"), "ValueError: boom") == "parked"
        return cells

    def test_round_trip_preserves_types_and_order(self, tmp_path):
        path = tmp_path / "store.sqlite"
        store = SqliteResultStore(path, max_retries=0)
        cells = self._populate(store)
        rows = store.rows()
        store.close()
        with SqliteResultStore(path) as reloaded:
            assert reloaded.rows() == rows
            assert [row["cell"] for row in rows] == [c.cell_id for c in cells]
            done_row = reloaded.get(cells[0].cell_id)
            assert isinstance(done_row["mean_steps"], float)
            assert isinstance(done_row["runs"], int)
            assert done_row["error"] is None
            assert reloaded.status(cells[1].cell_id) == STATUS_ERROR
            assert reloaded.get(cells[1].cell_id)["error"] == "ValueError: boom"
            assert reloaded.status(cells[2].cell_id) == "created"

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_export_is_byte_stable_across_reopen_cycles(self, tmp_path, suffix):
        path = tmp_path / "store.sqlite"
        with SqliteResultStore(path, max_retries=0) as store:
            self._populate(store)
        first = _export(path, tmp_path / ("first" + suffix))
        # Reopen and export again, then copy the rows into a second store
        # and export that: done, error and created rows render identically.
        assert _export(path, tmp_path / ("second" + suffix)) == first
        with SqliteResultStore(path) as source:
            rows = source.rows()
        with SqliteResultStore(tmp_path / "copy.sqlite") as copy:
            copy.import_rows(rows)
        assert _export(tmp_path / "copy.sqlite", tmp_path / ("third" + suffix)) == first

    @pytest.mark.parametrize(
        "column, value, message",
        [("status", "bogus", "invalid status"), ("seed", "not-a-seed", "non-integer")],
        ids=["status", "seed"],
    )
    def test_corruption_in_a_stored_row_raises(
        self, tmp_path, column, value, message
    ):
        path = tmp_path / "store.sqlite"
        with SqliteResultStore(path, max_retries=0) as store:
            cells = self._populate(store)
        # Damage the first row behind the store's back: unrecoverable.
        connection = sqlite3.connect(str(path))
        with connection:
            connection.execute(
                f'UPDATE cells SET "{column}" = ? WHERE "cell" = ?',
                (value, cells[0].cell_id),
            )
        connection.close()
        with SqliteResultStore(path) as damaged:
            with pytest.raises(StoreCorruptionError, match=message):
                damaged.rows()

    def test_ensure_rejects_foreign_stores(self, tmp_path):
        with SqliteResultStore(tmp_path / "store.sqlite") as store:
            spec = _small_spec()
            cell = spec.cells()[0]
            store.ensure(cell.cell_id, cell.keyfields(), spec.cell_seed(cell))
            # Same cell again with the same identity: a no-op.
            assert not store.ensure(
                cell.cell_id, cell.keyfields(), spec.cell_seed(cell)
            )
            # A different master seed means a different table.
            with pytest.raises(StoreCorruptionError, match="master seed"):
                store.ensure(cell.cell_id, cell.keyfields(), spec.cell_seed(cell) + 1)
            mismatched = dict(cell.keyfields(), population=999)
            with pytest.raises(StoreCorruptionError, match="different sweep spec"):
                store.ensure(cell.cell_id, mismatched, spec.cell_seed(cell))

    def test_claims_on_unknown_cells_are_refused(self, tmp_path):
        with SqliteResultStore(tmp_path / "store.sqlite") as store:
            ghost = Claim(cell="nope", owner="t", attempt=0, seed=1, keyfields={})
            assert store.fail_claim(ghost, "boom") == "lost"
            assert store._park_claim(ghost, "boom") == "lost"
            assert store.release_claim(ghost) is False
            assert store.get("nope") is None and "nope" not in store
            with pytest.raises(KeyError):
                store.bookkeeping("nope")

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_multiline_error_messages_export_as_one_line(self, tmp_path, suffix):
        # A real traceback: newlines (all three flavors), commas, and
        # quotes — everything that can tear a CSV row or desync a reader.
        traceback_text = (
            'Traceback (most recent call last):\r\n'
            '  File "sim.py", line 3, in run\r'
            '    raise ValueError("bad input, truly")\n'
            'ValueError: bad input, truly'
        )
        path = tmp_path / "store.sqlite"
        spec = _small_spec()
        cells = spec.cells()[:2]
        with SqliteResultStore(path, max_retries=0) as store:
            for cell in cells:
                store.ensure(cell.cell_id, cell.keyfields(), spec.cell_seed(cell))
            assert store.fail_claim(store.claim_next("t"), traceback_text) == "parked"
        expected = normalize_error_message(traceback_text)
        assert "\n" not in expected and "\r" not in expected
        with SqliteResultStore(path) as reloaded:
            assert len(reloaded) == 2
            assert reloaded.get(cells[0].cell_id)["error"] == expected
            assert reloaded.status(cells[1].cell_id) == "created"
        first = _export(path, tmp_path / ("out" + suffix))
        # One physical line per row (plus the CSV header), and a re-export
        # renders byte-identically.
        assert first.count(b"\n") == 2 + (suffix == ".csv")
        assert b"\r" not in first
        assert _export(path, tmp_path / ("again" + suffix)) == first

    def test_export_rejects_unknown_formats(self, tmp_path):
        with pytest.raises(ValueError, match="cannot export"):
            export_rows([], tmp_path / "out.parquet")
        assert not (tmp_path / "out.parquet").exists()


class TestOpenStore:
    def test_opens_sqlite_and_points_file_formats_to_export(self, tmp_path):
        store = open_store(tmp_path / "a.sqlite")
        assert isinstance(store, SqliteResultStore)
        store.close()
        for name in ("a.csv", "a.jsonl"):
            with pytest.raises(ValueError, match="export"):
                open_store(tmp_path / name)
        with pytest.raises(ValueError, match="cannot open"):
            open_store(tmp_path / "a.parquet")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.sqlite"]


class TestGoldenExport:
    """``run`` then ``export`` reproduces tables written by the CSV / JSONL
    stores that were live before the sqlite store became the only one."""

    SPEC = dict(
        protocols=("majority", ("modulo", {"modulus": 3, "remainder": 1}),
                   "golden-boom"),
        populations=(8, 13),
        schedulers=("uniform", "transition"),
        engines=("compiled", "reference"),
        repetitions=3,
        master_seed=2022,
        max_steps=400,
        stability_window=60,
        analytics=True,
    )

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_run_then_export_matches_the_golden_file(self, tmp_path, suffix):
        def boom(population, params):
            raise RuntimeError(
                'deliberate failure\nsecond line, with a comma\r\n"quoted" third\rfourth'
            )

        register_sweep_protocol("golden-boom", boom)
        try:
            spec = SweepSpec(**self.SPEC)
            store = tmp_path / "golden.sqlite"
            with SqliteResultStore(store) as live:
                report = SweepRunner(spec, live, backend="serial").run(
                    on_error="continue"
                )
            assert report.failed == 8 and report.executed == 16
            out = tmp_path / ("sweep_export" + suffix)
            assert sweep_main(["export", "--store", str(store), "--to", str(out)]) == 0
            assert out.read_bytes() == (GOLDEN / out.name).read_bytes()
        finally:
            _PROTOCOL_BUILDERS.pop("golden-boom")


class TestSweepRunner:
    def test_serial_sweep_completes_and_matches_run_many(self):
        spec = _small_spec()
        store = SqliteResultStore(":memory:")
        report = SweepRunner(spec, store, backend="serial").run()
        assert report.complete
        assert report.executed == 8 and report.skipped == 0
        assert store.status_counts() == {STATUS_DONE: 8}
        # Seed discipline: a cell's ensemble is reproducible outside the
        # sweep as Simulator(seed=cell_seed).run_many.
        cell = spec.cells()[0]
        protocol, inputs = cell.build()
        simulator = Simulator(
            protocol, engine=cell.engine, seed=spec.cell_seed(cell)
        )
        expected = summarize_runs(
            simulator.run_many(
                inputs, spec.repetitions, max_steps=spec.max_steps,
                stability_window=spec.stability_window,
            )
        )
        row = store.get(cell.cell_id)
        assert row["runs"] == expected.runs
        assert row["converged"] == expected.converged
        assert row["mean_steps"] == expected.mean_steps
        assert row["median_steps"] == float(expected.median_steps)
        assert row["min_steps"] == expected.min_steps
        assert row["max_steps"] == expected.max_steps

    def test_engine_rows_report_identical_statistics(self):
        spec = _small_spec()
        store = SqliteResultStore(":memory:")
        SweepRunner(spec, store, backend="serial").run()
        statistic = lambda row: tuple(
            row[c] for c in ("runs", "converged", "mean_steps", "median_steps",
                             "min_steps", "max_steps", "mean_consensus_step")
        )
        by_scope = {}
        for row, cell in zip(store.rows(), spec.cells()):
            by_scope.setdefault(cell.seed_scope, []).append(statistic(row))
        assert all(len(set(values)) == 1 for values in by_scope.values())
        assert len(by_scope) == 4

    def test_serial_and_process_exports_are_byte_identical(self, tmp_path):
        spec = _small_spec()
        serial_path = tmp_path / "serial.sqlite"
        process_path = tmp_path / "process.sqlite"
        with SqliteResultStore(serial_path) as store:
            SweepRunner(spec, store, backend="serial").run()
        with SqliteResultStore(process_path) as store:
            SweepRunner(spec, store, backend="process", max_workers=2).run()
        assert (
            _export(serial_path, tmp_path / "serial.csv")
            == _export(process_path, tmp_path / "process.csv")
        )

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_kill_and_resume_matches_uninterrupted_run(self, tmp_path, suffix):
        spec = _small_spec()
        straight = _run_to_export(tmp_path, spec, "straight", suffix)

        interrupted = tmp_path / "interrupted.sqlite"
        with SqliteResultStore(interrupted) as store:
            first = SweepRunner(spec, store, backend="serial").run(max_cells=3)
        assert first.executed == 3 and first.remaining == 5
        assert _export(interrupted, tmp_path / ("half" + suffix)) != straight
        # Resume from a fresh runner over the half-finished store.
        with SqliteResultStore(interrupted) as store:
            second = SweepRunner(spec, store, backend="serial").run()
        assert second.skipped == 3 and second.executed == 5
        assert _export(interrupted, tmp_path / ("resumed" + suffix)) == straight

    def test_stale_running_rows_are_rerun_on_resume(self, tmp_path):
        spec = _small_spec()
        reference = _run_to_export(tmp_path, spec, "straight")
        # Simulate a kill mid-cell: a run that attempted four cells, then a
        # fifth claim that never committed (its lease is still live).
        path = tmp_path / "crashed.sqlite"
        with SqliteResultStore(path) as crashed:
            SweepRunner(spec, crashed, backend="serial").run(max_cells=4)
            victim = crashed.claim_next("killed-runner").cell
            assert crashed.status(victim) == STATUS_RUNNING
        assert _export(path, tmp_path / "crashed.csv") != reference
        with SqliteResultStore(path) as store:
            report = SweepRunner(spec, store, backend="serial").run()
            assert report.executed == 4 and report.skipped == 4
            assert store.status(victim) == STATUS_DONE
        assert _export(path, tmp_path / "resumed.csv") == reference

    def test_a_store_holding_a_different_grid_is_refused(self):
        wide = _small_spec()
        narrow = _small_spec(populations=(12,))
        with SqliteResultStore(":memory:") as store:
            for cell in wide.cells():
                store.ensure(cell.cell_id, cell.keyfields(), wide.cell_seed(cell))
            with pytest.raises(StoreCorruptionError, match="different grid"):
                SweepRunner(narrow, store, backend="serial").run()
            # The foreign claim was handed back, and nothing ran.
            assert store.status_counts() == {"created": len(wide.cells())}

    def test_failing_cells_become_error_rows(self, tmp_path):
        def boom(population, params):
            raise RuntimeError("deliberate failure")

        register_sweep_protocol("always-boom", boom)
        try:
            spec = _small_spec(
                protocols=("majority", "always-boom"), populations=(8,),
                engines=("compiled",),
            )
            store = SqliteResultStore(":memory:")
            report = SweepRunner(spec, store, backend="serial").run(
                on_error="continue"
            )
            assert report.failed == 1 and report.executed == 1
            assert not report.complete
            counts = store.status_counts()
            assert counts == {STATUS_DONE: 1, STATUS_ERROR: 1}
            error_row = [r for r in store.rows() if r["status"] == STATUS_ERROR][0]
            assert error_row["error"] == "RuntimeError: deliberate failure"

            # The default re-raises (after persisting the error row) ...
            raising = SqliteResultStore(":memory:")
            with pytest.raises(RuntimeError, match="deliberate failure"):
                SweepRunner(spec, raising, backend="serial").run()
            assert raising.status_counts() == {STATUS_DONE: 1, STATUS_ERROR: 1}
            # ... and resumption retries errors unless told not to.  Skipped
            # error rows are still failures: the report stays incomplete.
            skip = SweepRunner(
                spec, store, backend="serial", retry_errors=False
            ).run(on_error="continue")
            assert skip.skipped == 2 and skip.failed == 0
            assert skip.skipped_errors == 1
            assert not skip.complete
            retry = SweepRunner(spec, store, backend="serial").run(
                on_error="continue"
            )
            assert retry.skipped == 1 and retry.failed == 1
            assert store.rows() == raising.rows()
        finally:
            _PROTOCOL_BUILDERS.pop("always-boom")

    def test_max_cells_zero_attempts_nothing(self):
        spec = _small_spec()
        store = SqliteResultStore(":memory:")
        report = SweepRunner(spec, store, backend="serial").run(max_cells=0)
        assert report.executed == 0 and report.remaining == 8
        assert store.status_counts() == {"created": 8}

    def test_invalid_arguments_rejected(self):
        spec = _small_spec()
        with pytest.raises(ValueError, match="backend"):
            SweepRunner(spec, SqliteResultStore(":memory:"), backend="thread")
        with pytest.raises(ValueError, match="max_workers"):
            SweepRunner(spec, SqliteResultStore(":memory:"), max_workers=0)
        runner = SweepRunner(spec, SqliteResultStore(":memory:"), backend="serial")
        with pytest.raises(ValueError, match="on_error"):
            runner.run(on_error="ignore")
        with pytest.raises(ValueError, match="max_cells"):
            runner.run(max_cells=-1)

    def test_to_experiment_table_renders_all_rows(self):
        spec = _small_spec(populations=(8,), engines=("compiled",))
        store = SqliteResultStore(":memory:")
        SweepRunner(spec, store, backend="serial").run()
        table = to_experiment_table(store, experiment_id="T")
        assert len(table) == 2
        assert list(table.columns) == list(COLUMNS)
        rendered = table.render()
        assert "majority" in rendered and "modulo" in rendered


class TestCellExecutor:
    def test_concurrent_callers_share_builds_and_match_a_lone_caller(self):
        # Many threads, one executor, cold caches: every cache entry must be
        # built once (a check-then-act race builds it again), and every
        # thread must get the results a lone caller gets.
        builds = []

        def counting_builder(population, params):
            builds.append(population)
            time.sleep(0.002)  # widens any check-then-act window
            return build_protocol_and_inputs("majority", population, params)

        register_sweep_protocol("counting-majority", counting_builder)
        try:
            spec = _small_spec(
                protocols=("counting-majority",), populations=(8, 12, 16),
                engines=("compiled",),
            )
            cells = spec.cells()

            def run_all(executor):
                return [
                    executor.run(
                        cell, [spec.cell_seed(cell) + rep for rep in range(3)],
                        300, 50, analytics=True,
                    )
                    for cell in cells
                ]

            expected = run_all(CellExecutor())
            lone_builds = len(builds)
            builds.clear()
            shared = CellExecutor()
            outcomes = {}

            def worker(index):
                outcomes[index] = run_all(shared)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=worker, args=(index,))
                    for index in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(builds) == lone_builds
            assert len(outcomes) == 8
            for results in outcomes.values():
                assert results == expected
        finally:
            _PROTOCOL_BUILDERS.pop("counting-majority")


class TestSweepCli:
    def _write_spec(self, tmp_path):
        spec = _small_spec()
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        return path, spec

    def test_template_round_trips(self, capsys):
        assert sweep_main(["template"]) == 0
        SweepSpec.from_json(capsys.readouterr().out)  # must parse and validate

    def test_run_show_and_resume(self, tmp_path, capsys):
        spec_path, spec = self._write_spec(tmp_path)
        store_path = tmp_path / "results.sqlite"
        assert sweep_main([
            "run", "--spec", str(spec_path), "--store", str(store_path),
            "--backend", "serial", "--quiet",
        ]) == 0
        first = _export(store_path, tmp_path / "first.csv")
        output = capsys.readouterr().out
        assert "8 executed" in output
        # A second run resumes: everything is already done.
        assert sweep_main([
            "run", "--spec", str(spec_path), "--store", str(store_path),
            "--backend", "serial", "--quiet",
        ]) == 0
        assert "8 skipped" in capsys.readouterr().out
        assert _export(store_path, tmp_path / "second.csv") == first
        assert sweep_main(["show", "--store", str(store_path)]) == 0
        assert "majority" in capsys.readouterr().out

    def test_cli_interrupt_and_resume_is_bit_identical(self, tmp_path, capsys):
        # The acceptance scenario: >= 2 protocols x >= 2 populations x >= 2
        # engines through the CLI, killed mid-sweep (--max-cells), resumed
        # from a copy, exported byte-identically to the uninterrupted table.
        spec_path, spec = self._write_spec(tmp_path)
        full = tmp_path / "full.sqlite"
        assert sweep_main([
            "run", "--spec", str(spec_path), "--store", str(full),
            "--backend", "serial", "--quiet",
        ]) == 0
        half = tmp_path / "half.sqlite"
        assert sweep_main([
            "run", "--spec", str(spec_path), "--store", str(half),
            "--backend", "serial", "--max-cells", "4", "--quiet",
        ]) == 0
        assert "4 remaining" in capsys.readouterr().out
        full_csv = _export(full, tmp_path / "full.csv")
        assert _export(half, tmp_path / "half.csv") != full_csv
        resumed = tmp_path / "resumed.sqlite"
        resumed.write_bytes(half.read_bytes())
        assert sweep_main([
            "run", "--spec", str(spec_path), "--store", str(resumed),
            "--backend", "serial", "--quiet",
        ]) == 0
        assert sweep_main([
            "export", "--store", str(resumed), "--to", str(tmp_path / "resumed.csv"),
        ]) == 0
        assert (tmp_path / "resumed.csv").read_bytes() == full_csv

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert sweep_main([
            "run", "--spec", str(tmp_path / "none.json"),
            "--store", str(tmp_path / "out.sqlite"),
        ]) == 2
        assert "not found" in capsys.readouterr().err

    def test_mismatched_store_fails_cleanly(self, tmp_path, capsys):
        # Editing the spec (here: the master seed) after a store was written
        # must be a clean one-line refusal, not a traceback.
        spec_path, spec = self._write_spec(tmp_path)
        store_path = tmp_path / "results.sqlite"
        assert sweep_main([
            "run", "--spec", str(spec_path), "--store", str(store_path),
            "--backend", "serial", "--max-cells", "1", "--quiet",
        ]) == 0
        spec_path.write_text(_small_spec(master_seed=777).to_json())
        assert sweep_main([
            "run", "--spec", str(spec_path), "--store", str(store_path),
            "--backend", "serial", "--quiet",
        ]) == 2
        assert "does not match this spec" in capsys.readouterr().err

    def test_unknown_store_suffix_fails_cleanly(self, tmp_path, capsys):
        spec_path, _ = self._write_spec(tmp_path)
        assert sweep_main([
            "run", "--spec", str(spec_path),
            "--store", str(tmp_path / "out.parquet"),
        ]) == 2
        assert "cannot open store" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["out.csv", "out.jsonl"])
    def test_live_file_store_points_to_export(self, tmp_path, capsys, name):
        spec_path, _ = self._write_spec(tmp_path)
        assert sweep_main([
            "run", "--spec", str(spec_path), "--store", str(tmp_path / name),
        ]) == 2
        assert "python -m repro.sweep export" in capsys.readouterr().err
        assert not (tmp_path / name).exists()

    def test_show_refuses_a_missing_store(self, tmp_path, capsys):
        missing = tmp_path / "typo.sqlite"
        assert sweep_main(["show", "--store", str(missing)]) == 2
        assert "no such store" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_export_refuses_a_missing_store(self, tmp_path, capsys):
        missing = tmp_path / "typo.sqlite"
        out = tmp_path / "out.csv"
        assert sweep_main(["export", "--store", str(missing), "--to", str(out)]) == 2
        assert "no such store" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
