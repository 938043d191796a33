"""Tests for batched sweep cells: claim, execute and commit k cells at once.

The claim loop takes a batch of cells in one claim transaction, runs them in
one pool round trip and commits them in one transaction.  The properties
pinned here:

* the claim scan searches the ``(status, position)`` index on every branch
  and never scans the table (its cost stays flat as the grid grows),
* registration and store-to-store imports run one transaction each, with
  positions assigned once per transaction,
* every fault point keeps its per-cell meaning inside a batch: a cell that
  raises fails alone, a dropped commit loses one row, a killed worker is
  pinned on the cell that killed it, and ``max_cells`` bounds the attempts
  exactly even when it is not a multiple of the batch size,
* a ``cell_timeout`` bounds each cell, never a batch, and a cell of a whole
  step budget runs alone,
* the loop keeps a second batch queued on the pool behind the executing
  one: the queued batch survives a crash or timeout of the one before it
  without a retry, is not charged its time in the queue, keeps its leases,
  and is committed on a stop request and handed back on a raise; a crash
  of the queued batch on a second worker is not pinned on the executing
  one,
* each cell's trace span contains its own worker spans.
"""

import multiprocessing
import os
import signal
import sqlite3
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.protocol import Protocol
from repro.obs import trace as obs_trace
from repro.simulation import WorkerPool, repetition_seeds
from repro.simulation.batch import (
    Ensemble,
    EnsembleOutcome,
    WorkerCrashError,
    run_ensemble,
)
from repro.sweep import (
    SqliteResultStore,
    StoreCorruptionError,
    SweepRunner,
    SweepSpec,
    export_rows,
    install_fault_plan,
    register_sweep_protocol,
)
from repro.sweep.dbstore import _CLAIM_SQL, _claim_parameters
from repro.sweep.faults import InjectedFault
from repro.sweep.runner import BATCH_STEP_BUDGET
from repro.sweep.spec import _PROTOCOL_BUILDERS, build_protocol_and_inputs
from repro.sweep.store import (
    STATUS_CREATED,
    STATUS_DONE,
    STATUS_ERROR,
    STATUS_RUNNING,
)


@pytest.fixture(autouse=True)
def _pristine_fault_state():
    install_fault_plan(None)
    yield
    install_fault_plan(None)


@pytest.fixture
def register():
    """Register sweep protocols of majority protocols of a given class, and
    drop them again after the test."""
    names = []

    def add(name, protocol_class):
        register_sweep_protocol(name, _majority_as(protocol_class), allowed_params=())
        names.append(name)

    yield add
    for name in names:
        _PROTOCOL_BUILDERS.pop(name, None)


def _spec(**overrides):
    """8 cells; on a 1-worker pool the whole grid is one batch."""
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
    with SqliteResultStore(store_path) as store:
        export_rows(store.rows(), out_path)
    return Path(out_path).read_bytes()


def _serial_reference(tmp_path, spec):
    path = tmp_path / "reference.sqlite"
    with SqliteResultStore(path) as store:
        SweepRunner(spec, store, backend="serial").run(on_error="continue")
    return _export(path, tmp_path / "reference.csv")


def _registered(tmp_path, spec, **options):
    store = SqliteResultStore(tmp_path / "grid.sqlite", **options)
    store.ensure_batch(
        (cell.cell_id, cell.keyfields(), spec.cell_seed(cell))
        for cell in spec.cells()
    )
    return store


# ----------------------------------------------------------------------
# The store's batched entry points
# ----------------------------------------------------------------------
class TestBatchedStore:
    def test_claim_plan_searches_the_status_index_and_never_scans(self, tmp_path):
        store = _registered(tmp_path, _spec(populations=tuple(range(8, 208))))
        plan = [
            row[-1]
            for row in store._connection.execute(
                "EXPLAIN QUERY PLAN " + _CLAIM_SQL, _claim_parameters(0.0, 16)
            )
        ]
        store.close()
        searches = [step for step in plan if step.startswith("SEARCH cells")]
        assert len(searches) == 3  # one per eligible status
        assert all("USING INDEX cells_by_status (status=?)" in s for s in searches)
        assert not [step for step in plan if step.startswith("SCAN cells")]

    def test_claim_work_does_not_grow_with_the_grid(self):
        # sqlite's virtual-machine steps for one claim scan: deterministic,
        # unlike a timing.  Each branch stops after its LIMIT, so a grid 50
        # times larger costs the same steps.
        def claim_steps(cells):
            spec = _spec(populations=tuple(range(8, 8 + cells)), engines=("compiled",))
            with SqliteResultStore(":memory:") as store:
                store.ensure_batch(
                    (cell.cell_id, cell.keyfields(), spec.cell_seed(cell))
                    for cell in spec.cells()
                )
                steps = []
                store._connection.set_progress_handler(lambda: steps.append(1), 1)
                store._connection.execute(
                    _CLAIM_SQL, _claim_parameters(0.0, 16)
                ).fetchall()
            return len(steps)

        assert claim_steps(5000) == claim_steps(100)

    def test_claim_batch_takes_cells_in_grid_order(self, tmp_path):
        spec = _spec()
        store = _registered(tmp_path, spec)
        cells = [cell.cell_id for cell in spec.cells()]
        first = store.claim_batch("a", 3)
        second = store.claim_batch("b", 10)
        assert [claim.cell for claim in first] == cells[:3]
        assert [claim.cell for claim in second] == cells[3:]
        assert store.claim_batch("c", 10) == []
        store.close()

    def test_finish_batch_commits_each_owner_guarded_row(self, tmp_path):
        spec = _spec()
        store = _registered(tmp_path, spec)
        claims = store.claim_batch("a", 3)
        assert store.release_claim(claims[1])  # no longer held by "a"
        statistics = SimpleNamespace(
            runs=2, converged=2, convergence_rate=1.0, mean_steps=3.0,
            median_steps=3.0, min_steps=3, max_steps=3, mean_consensus_step=1.0,
        )
        assert store.finish_batch(
            [(claim, statistics, {}) for claim in claims]
        ) == [True, False, True]
        assert [store.status(claim.cell) for claim in claims] == [
            STATUS_DONE, STATUS_CREATED, STATUS_DONE,
        ]
        store.close()

    def test_a_foreign_row_rolls_back_the_whole_registration(self, tmp_path):
        spec = _spec()
        cells = spec.cells()
        store = SqliteResultStore(tmp_path / "grid.sqlite")
        store.ensure(cells[3].cell_id, cells[3].keyfields(), 1)  # a wrong seed
        entries = [
            (cell.cell_id, cell.keyfields(), spec.cell_seed(cell)) for cell in cells
        ]
        with pytest.raises(StoreCorruptionError, match="master seed"):
            store.ensure_batch(entries)
        assert len(store) == 1
        store.close()

    def test_registration_positions_follow_the_grid(self, tmp_path):
        spec = _spec()
        cells = spec.cells()
        store = SqliteResultStore(tmp_path / "grid.sqlite")
        # Cell 5 registered alone first: it keeps its place, the rest follow
        # in grid order.
        store.ensure(cells[5].cell_id, cells[5].keyfields(), spec.cell_seed(cells[5]))
        entries = [
            (cell.cell_id, cell.keyfields(), spec.cell_seed(cell)) for cell in cells
        ]
        assert store.ensure_batch(entries) == len(cells) - 1
        assert store.ensure_batch(entries) == 0
        order = [row["cell"] for row in store.rows()]
        assert order == [cells[5].cell_id] + [
            cell.cell_id for index, cell in enumerate(cells) if index != 5
        ]
        store.close()

    def test_finished_cells_lists_done_and_error_rows_in_grid_order(self, tmp_path):
        spec = _spec()
        cells = [cell.cell_id for cell in spec.cells()]
        store = _registered(tmp_path, spec, max_retries=0)
        claims = store.claim_batch("a", 4)
        statistics = SimpleNamespace(
            runs=2, converged=2, convergence_rate=1.0, mean_steps=3.0,
            median_steps=3.0, min_steps=3, max_steps=3, mean_consensus_step=1.0,
        )
        store.finish_batch([(claims[2], statistics, {}), (claims[0], statistics, {})])
        assert store.fail_claim(claims[1], "boom") == "parked"
        plan = [
            row[-1]
            for row in store._connection.execute(
                'EXPLAIN QUERY PLAN SELECT "cell" FROM cells '
                'WHERE "status" IN (?, ?) ORDER BY position',
                (STATUS_DONE, STATUS_ERROR),
            )
        ]
        finished = store.finished_cells()
        store.close()
        assert finished == [
            (cells[0], STATUS_DONE), (cells[1], STATUS_ERROR), (cells[2], STATUS_DONE),
        ]
        assert "SEARCH cells USING INDEX cells_by_status (status=?)" in plan

    def test_import_rows_replaces_in_place_and_appends_in_order(self, tmp_path):
        spec = _spec()
        reference = _serial_reference(tmp_path, spec)
        with SqliteResultStore(tmp_path / "reference.sqlite") as source:
            rows = source.rows()
        target = SqliteResultStore(tmp_path / "target.sqlite")
        target.import_rows(rows[2:5])
        target.import_rows(rows)
        assert [row["cell"] for row in target.rows()] == [
            row["cell"] for row in rows[2:5] + rows[:2] + rows[5:]
        ]
        assert sorted(map(str, target.rows())) == sorted(map(str, rows))
        target.close()
        fresh = SqliteResultStore(tmp_path / "fresh.sqlite")
        fresh.import_rows(rows)
        fresh.close()
        assert _export(tmp_path / "fresh.sqlite", tmp_path / "fresh.csv") == reference


# ----------------------------------------------------------------------
# One pool round trip for several ensembles
# ----------------------------------------------------------------------
class TestBatchedPool:
    def test_a_failing_ensemble_fails_alone_and_the_rest_match_run_seeds(self):
        majority, majority_inputs = build_protocol_and_inputs("majority", 10, {})
        modulo, modulo_inputs = build_protocol_and_inputs(
            "modulo", 12, {"modulus": 3, "remainder": 1}
        )
        ensembles = [
            Ensemble(majority, majority_inputs, repetition_seeds(1, 3),
                     max_steps=500, stability_window=50),
            Ensemble(majority, majority_inputs, repetition_seeds(2, 2),
                     engine="no-such-engine"),
            Ensemble(modulo, modulo_inputs, repetition_seeds(3, 5),
                     max_steps=500, stability_window=50),
            Ensemble(modulo, modulo_inputs, []),
        ]
        with WorkerPool(max_workers=2) as pool:
            outcomes = pool.resolve(pool.dispatch(ensembles))
            alone = [
                pool.run_seeds(e.protocol, e.inputs, e.seeds,
                               max_steps=e.max_steps,
                               stability_window=e.stability_window)
                for e in (ensembles[0], ensembles[2])
            ]
        assert [outcome.error is None for outcome in outcomes] == [
            True, False, True, True,
        ]
        assert "no-such-engine" in str(outcomes[1].error)
        assert [outcomes[0].results, outcomes[2].results] == alone
        assert outcomes[3].results == []


    def test_a_batch_queued_behind_a_crash_is_sent_again(self):
        # One worker: the doomed batch kills it on every chunk, and the
        # queued batch naps 1 s as a worker loads it, longer than the crash
        # grace, so it is still queued when the pool goes down.
        majority, inputs = build_protocol_and_inputs("majority", 10, {})
        killer, _ = _majority_as(_KillsItsWorker)(10, {})
        napper, _ = _majority_as(_NapsInItsWorker)(10, {})
        seeds = repetition_seeds(1, 3)
        options = dict(max_steps=500, stability_window=50)
        with WorkerPool(max_workers=1) as pool:
            doomed = pool.dispatch([Ensemble(killer, inputs, seeds, **options)])
            queued = pool.dispatch([Ensemble(napper, inputs, seeds, **options)])
            first_sent = queued.sent
            with pytest.raises(WorkerCrashError):
                pool.resolve(doomed)
            (outcome,) = pool.resolve(queued)
        assert queued.sent > first_sent
        assert outcome.results == run_ensemble(majority, inputs, seeds, **options)


# ----------------------------------------------------------------------
# Fault points inside one batch (process backend)
# ----------------------------------------------------------------------
class _BatchLog(SqliteResultStore):
    """A store that records the size of every non-empty claim batch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def claim_batch(self, owner, limit):
        claims = super().claim_batch(owner, limit)
        if claims:
            self.batches.append(len(claims))
        return claims


def _lines(progress_lines, word):
    return [line for line in progress_lines if word in line]


class TestBatchFaults:
    def test_mid_cell_raise_fails_only_its_cell(self, tmp_path):
        spec = _spec()
        cells = [cell.cell_id for cell in spec.cells()]
        reference = _serial_reference(tmp_path, spec)
        store = _BatchLog(
            tmp_path / "grid.sqlite", lease_seconds=30, backoff_base=0.05
        )
        install_fault_plan("mid-cell@2:raise")
        lines = []
        report = SweepRunner(
            spec, store, backend="process", max_workers=1
        ).run_claims("r0", idle_wait=0.05, progress=lines.append)
        retries = {cell: store.bookkeeping(cell)["retry_count"] for cell in cells}
        store.close()
        # One batch of all eight cells: cell 2 failed, its seven neighbours
        # committed on their first attempt, and cell 2's retry finished it.
        assert store.batches == [len(cells), 1]
        first_batch = lines[: len(cells)]
        assert len(_lines(first_batch, " done ")) == len(cells) - 1
        (failed,) = _lines(first_batch, "FAILED (retry)")
        assert cells[1] in failed and "InjectedFault" in failed
        assert report.retried == 1 and report.executed == len(cells)
        assert retries == {cell: int(cell == cells[1]) for cell in cells}
        assert _export(tmp_path / "grid.sqlite", tmp_path / "grid.csv") == reference

    def test_dropped_result_write_loses_only_its_cell(self, tmp_path):
        spec = _spec()
        cells = [cell.cell_id for cell in spec.cells()]
        reference = _serial_reference(tmp_path, spec)
        store = _BatchLog(
            tmp_path / "grid.sqlite", lease_seconds=0.3, backoff_base=0.05
        )
        install_fault_plan("before-result-write@2:drop")
        lines = []
        report = SweepRunner(
            spec, store, backend="process", max_workers=1
        ).run_claims(
            "r0", idle_wait=0.05, heartbeat_interval=10, progress=lines.append
        )
        retries = {cell: store.bookkeeping(cell)["retry_count"] for cell in cells}
        store.close()
        assert store.batches == [len(cells), 1]
        (lost,) = _lines(lines[: len(cells)], " lost ")
        assert cells[1] in lost
        assert report.lost == 1 and report.executed == len(cells)
        # Only the dropped cell was recomputed, after its lease expired.
        assert retries == {cell: int(cell == cells[1]) for cell in cells}
        assert _export(tmp_path / "grid.sqlite", tmp_path / "grid.csv") == reference

    def test_killed_worker_is_pinned_on_its_cell(self, tmp_path):
        register_sweep_protocol(
            "kills-its-worker", _majority_as(_KillsItsWorker), allowed_params=()
        )
        try:
            spec = _spec(
                protocols=(
                    "majority",
                    "kills-its-worker",
                    ("modulo", {"modulus": 2, "remainder": 0}),
                ),
                populations=(8,),
                engines=("compiled",),
            )
            store = _BatchLog(tmp_path / "grid.sqlite", max_retries=0)
            report = SweepRunner(
                spec, store, backend="process", max_workers=1
            ).run_claims("r0", idle_wait=0.05)
            rows = {row["protocol"]: row for row in store.rows()}
            store.close()
        finally:
            _PROTOCOL_BUILDERS.pop("kills-its-worker", None)
        assert store.batches == [3]
        assert report.parked == 1 and report.executed == 2 and report.drained
        assert rows["kills-its-worker"]["status"] == STATUS_ERROR
        assert rows["kills-its-worker"]["error"].startswith("WorkerCrashError: ")
        # The neighbours' rows are exactly what a serial sweep without the
        # culprit writes.
        clean = _spec(
            protocols=("majority", ("modulo", {"modulus": 2, "remainder": 0})),
            populations=(8,),
            engines=("compiled",),
        )
        with SqliteResultStore(":memory:") as serial:
            SweepRunner(clean, serial, backend="serial").run()
            expected = {row["protocol"]: row for row in serial.rows()}
        assert rows["majority"] == expected["majority"]
        assert rows["modulo"] == expected["modulo"]

    def test_a_cell_timeout_bounds_each_cell_not_the_batch(self, tmp_path):
        # The middle cell sleeps 2 s in its worker: more than its 1 s budget,
        # less than three cells' budgets together.  A runner with a timeout
        # claims one cell per batch, so the budget expires on that cell.
        register_sweep_protocol(
            "sleeps-in-its-worker", _majority_as(_SleepsInItsWorker),
            allowed_params=(),
        )
        try:
            spec = _spec(
                protocols=(
                    "majority",
                    "sleeps-in-its-worker",
                    ("modulo", {"modulus": 2, "remainder": 0}),
                ),
                populations=(8,),
                engines=("compiled",),
            )
            store = _BatchLog(tmp_path / "grid.sqlite", max_retries=0)
            report = SweepRunner(
                spec, store, backend="process", max_workers=1
            ).run_claims("r0", cell_timeout=1.0, idle_wait=0.05)
            rows = {row["protocol"]: row for row in store.rows()}
            store.close()
        finally:
            _PROTOCOL_BUILDERS.pop("sleeps-in-its-worker", None)
        assert store.batches == [1, 1, 1]
        assert report.parked == 1 and report.executed == 2 and report.drained
        assert rows["sleeps-in-its-worker"]["status"] == STATUS_ERROR
        assert rows["sleeps-in-its-worker"]["error"].startswith("WorkerTimeoutError: ")
        assert rows["majority"]["status"] == rows["modulo"]["status"] == STATUS_DONE

    @pytest.mark.parametrize("mode", ["run", "run_claims"])
    @pytest.mark.parametrize(
        "max_steps, batches", [(120_000, [4, 2]), (BATCH_STEP_BUDGET // 2, [1] * 6)]
    )
    def test_max_cells_attempts_exactly_n_across_batches(
        self, tmp_path, mode, max_steps, batches
    ):
        # Two repetitions of up to 120,000 steps put a cell at 240,000
        # worst-case steps, so the step budget takes four cells per batch;
        # cells of a whole budget run one per batch.
        spec = _spec(max_steps=max_steps)
        runner = SweepRunner(
            spec, _BatchLog(tmp_path / "grid.sqlite"),
            backend="process", max_workers=1,
        )
        if mode == "run":
            report = runner.run(max_cells=6)
            assert report.executed == 6 and report.remaining == 2
        else:
            report = runner.run_claims("r0", max_cells=6)
            assert report.executed == 6 and not report.drained
        assert runner.store.batches == batches
        assert runner.store.status_counts() == {STATUS_DONE: 6, STATUS_CREATED: 2}
        runner.store.close()


# ----------------------------------------------------------------------
# Two batches on the pool: the executing one and the one queued behind it
# ----------------------------------------------------------------------
class _StopsAfter(_BatchLog):
    """A store that sets :attr:`stop` once ``batches`` batches are claimed."""

    def __init__(self, *args, batches, **kwargs):
        super().__init__(*args, **kwargs)
        self.stop = threading.Event()
        self._stop_after = batches

    def claim_batch(self, owner, limit):
        claims = super().claim_batch(owner, limit)
        if len(self.batches) == self._stop_after:
            self.stop.set()
        return claims


class _LeaseLog(_BatchLog):
    """A store that notes, at every commit, the ``running`` rows whose lease
    has already expired."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.expired = []

    def finish_batch(self, finished):
        now = self._clock()
        self.expired.extend(
            row["cell"] for row in self.rows()
            if row["status"] == STATUS_RUNNING
            and self.bookkeeping(row["cell"])["lease_expires"] < now
        )
        return super().finish_batch(finished)


#: Two cells of a whole step budget each run one per batch; four cells of a
#: quarter of it, two per batch.
_ALONE = BATCH_STEP_BUDGET // 2
_IN_PAIRS = BATCH_STEP_BUDGET // 4


def _napping_spec(**overrides):
    """Two cells of the ``naps`` protocol, one per batch.  The two
    schedulers give them two worker specs, so each naps 1 s as its worker
    loads it."""
    options = dict(
        protocols=("naps",), populations=(8,), schedulers=("uniform", "transition"),
        engines=("compiled",), max_steps=_ALONE,
    )
    options.update(overrides)
    return _spec(**options)


class TestQueuedBatch:
    def test_a_crash_spares_the_batch_queued_behind_it(self, tmp_path, register):
        register("kills-its-worker", _KillsItsWorker)
        good = ("majority", ("modulo", {"modulus": 2, "remainder": 0}),
                ("modulo", {"modulus": 3, "remainder": 1}))
        spec = _spec(
            protocols=(good[0], "kills-its-worker") + good[1:],
            populations=(8,), engines=("compiled",), max_steps=_IN_PAIRS,
        )
        store = _BatchLog(tmp_path / "grid.sqlite", max_retries=0)
        report = SweepRunner(
            spec, store, backend="process", max_workers=1
        ).run_claims("r0", idle_wait=0.05)
        rows = {row["cell"]: row for row in store.rows()}
        retries = {cell: store.bookkeeping(cell)["retry_count"] for cell in rows}
        store.close()
        # The culprit's batch ran while the second batch waited behind it.
        assert store.batches == [2, 2]
        assert report.parked == 1 and report.executed == 3 and report.drained
        culprit = spec.cells()[1].cell_id
        assert rows[culprit]["error"].startswith("WorkerCrashError: ")
        with SqliteResultStore(":memory:") as serial:
            SweepRunner(
                _spec(protocols=good, populations=(8,), engines=("compiled",),
                      max_steps=_IN_PAIRS),
                serial, backend="serial",
            ).run()
            expected = {row["cell"]: row for row in serial.rows()}
        assert {cell: rows[cell] for cell in expected} == expected
        assert retries == {cell: int(cell == culprit) for cell in rows}

    def test_a_crash_beside_the_executing_batch_is_not_pinned_on_it(
        self, tmp_path, register
    ):
        # Two workers, one seed per cell, one cell per batch: the napping
        # cell holds one worker for 1 s, longer than the crash grace, while
        # the killer, queued behind it, kills the other worker at once.
        register("naps", _NapsInItsWorker)
        register("kills-its-worker", _KillsItsWorker)
        spec = _spec(
            protocols=("naps", "kills-its-worker"), populations=(8,),
            engines=("compiled",), repetitions=1, max_steps=BATCH_STEP_BUDGET,
        )
        store = _BatchLog(tmp_path / "grid.sqlite", max_retries=0)
        report = SweepRunner(
            spec, store, backend="process", max_workers=2
        ).run_claims("r0", idle_wait=0.05)
        rows = {row["protocol"]: row for row in store.rows()}
        retries = {
            row["protocol"]: store.bookkeeping(row["cell"])["retry_count"]
            for row in rows.values()
        }
        store.close()
        assert store.batches == [1, 1]
        assert report.parked == 1 and report.executed == 1 and report.drained
        assert rows["naps"]["status"] == STATUS_DONE
        assert rows["kills-its-worker"]["error"].startswith("WorkerCrashError: ")
        assert retries == {"naps": 0, "kills-its-worker": 1}

    def test_a_store_failure_is_raised_over_the_hand_back(
        self, tmp_path, monkeypatch
    ):
        # The first commit fails, and so does handing back the batch queued
        # behind it: the commit's error propagates, and the pool still
        # closes.
        class _Broken(_BatchLog):
            def finish_batch(self, finished):
                raise sqlite3.OperationalError("disk I/O error")

            def release_claim(self, claim):
                raise sqlite3.OperationalError("database is locked")

        closed = []
        close = WorkerPool.close
        monkeypatch.setattr(
            WorkerPool, "close", lambda pool: (closed.append(pool), close(pool))
        )
        store = _Broken(tmp_path / "grid.sqlite")
        with pytest.raises(sqlite3.OperationalError, match="disk I/O error"):
            SweepRunner(
                _spec(max_steps=_IN_PAIRS), store, backend="process", max_workers=1
            ).run()
        store.close()
        assert store.batches == [2, 2]
        assert len(closed) == 1

    def test_a_queued_cell_is_not_charged_its_wait(self, tmp_path, register):
        # The second cell waits behind the first from the start.  Each
        # naps 1 s, within the 1.5 s budget; counted from its dispatch, the
        # second cell's budget would run out half a second into its nap.
        register("naps", _NapsInItsWorker)
        store = _BatchLog(tmp_path / "grid.sqlite", max_retries=0)
        report = SweepRunner(
            _napping_spec(), store, backend="process", max_workers=1
        ).run_claims("r0", cell_timeout=1.5, idle_wait=0.05)
        statuses = [row["status"] for row in store.rows()]
        store.close()
        assert store.batches == [1, 1]
        assert report.executed == 2 and report.parked == 0
        assert statuses == [STATUS_DONE, STATUS_DONE]

    def test_a_stop_request_commits_both_dispatched_batches(self, tmp_path):
        spec = _spec(max_steps=_IN_PAIRS)
        reference = _serial_reference(tmp_path, spec)
        store = _StopsAfter(tmp_path / "grid.sqlite", batches=2)
        report = SweepRunner(
            spec, store, backend="process", max_workers=1
        ).run_claims("r0", idle_wait=0.05, stop_event=store.stop)
        counts = store.status_counts()
        store.close()
        assert report.stopped and report.executed == 4 and not report.drained
        assert store.batches == [2, 2]
        assert counts == {STATUS_DONE: 4, STATUS_CREATED: 4}
        # Resumed, the grid exports the serial bytes.
        with SqliteResultStore(tmp_path / "grid.sqlite") as resumed:
            SweepRunner(spec, resumed, backend="process", max_workers=1).run()
        assert _export(tmp_path / "grid.sqlite", tmp_path / "grid.csv") == reference

    def test_a_raise_hands_the_queued_batch_back(self, tmp_path):
        spec = _spec(max_steps=_IN_PAIRS)
        cells = [cell.cell_id for cell in spec.cells()]
        reference = _serial_reference(tmp_path, spec)
        store = _BatchLog(tmp_path / "grid.sqlite")
        install_fault_plan("mid-cell@2:raise")
        with pytest.raises(InjectedFault):
            SweepRunner(spec, store, backend="process", max_workers=1).run()
        install_fault_plan(None)
        statuses = [store.status(cell) for cell in cells]
        queued = [store.bookkeeping(cell) for cell in cells[2:4]]
        store.close()
        # The failing batch committed; the batch queued behind it went back
        # untouched, as if it had never been claimed.
        assert store.batches == [2, 2]
        assert STATUS_RUNNING not in statuses
        assert statuses == [STATUS_DONE, STATUS_ERROR] + [STATUS_CREATED] * 6
        assert [(b["owner"], b["retry_count"]) for b in queued] == [(None, 0)] * 2
        with SqliteResultStore(tmp_path / "grid.sqlite") as resumed:
            SweepRunner(spec, resumed, backend="process", max_workers=1).run()
        assert _export(tmp_path / "grid.sqlite", tmp_path / "grid.csv") == reference

    def test_the_queued_batch_keeps_its_leases(self, tmp_path, register):
        # Two 1 s naps outlast a 0.6 s lease three times over.  The pump
        # beats both cells, the executing one and the one queued behind it,
        # so no lease runs out before its commit, and the runner's own next
        # claim never takes a queued cell again.
        register("naps", _NapsInItsWorker)
        spec = _napping_spec()
        store = _LeaseLog(tmp_path / "grid.sqlite", lease_seconds=0.6)
        lines = []
        report = SweepRunner(
            spec, store, backend="process", max_workers=1
        ).run_claims("r0", idle_wait=0.05, progress=lines.append)
        retries = [store.bookkeeping(cell.cell_id)["retry_count"] for cell in spec.cells()]
        store.close()
        assert store.batches == [1, 1]
        assert store.expired == []
        assert report.lost == 0 and report.executed == 2 and report.drained
        assert not _lines(lines, " lost")
        assert retries == [0, 0]


# ----------------------------------------------------------------------
# Trace shape of a batch
# ----------------------------------------------------------------------
class TestBatchTrace:
    def test_each_cell_span_contains_its_own_runs_in_grid_order(self):
        spec = _spec(engines=("compiled",))
        with obs_trace.capture_events() as events:
            SweepRunner(
                spec, SqliteResultStore(":memory:"), backend="process",
                max_workers=2,
            ).run()
        spans = [event for event in events if event["ev"] == "span"]
        by_id = {span["id"]: span for span in spans}
        # Two workers ship chunks with colliding ids; adoption keeps them
        # apart.
        assert len(by_id) == len(spans)

        def cell_of(span):
            while span["kind"] != "sweep-cell":
                span = by_id[span["parent"]]
            return span

        cells = [span for span in spans if span["kind"] == "sweep-cell"]
        assert [span["attrs"]["cell"] for span in cells] == [
            cell.cell_id for cell in spec.cells()
        ]
        for cell in spec.cells():
            seeds = [
                span["attrs"]["seed"] for span in spans
                if span["kind"] == "run"
                and cell_of(span)["attrs"]["cell"] == cell.cell_id
            ]
            assert seeds == repetition_seeds(spec.cell_seed(cell), spec.repetitions)
        # Every worker span lies inside its cell's span, though the two
        # workers step neighbouring cells at the same time.
        for span in spans:
            if span["pid"] != os.getpid():
                cell = cell_of(span)
                assert cell["t0"] <= span["t0"]
                assert span["t0"] + span["dur"] <= cell["t0"] + cell["dur"] + 1e-9
        # One batch: its cell spans start in grid order and leave no gap.
        for before, after in zip(cells, cells[1:]):
            assert before["t0"] <= after["t0"] <= before["t0"] + before["dur"] + 1e-9


    def test_a_queued_batch_spans_from_the_return_of_the_one_before(self, register):
        # Both cells are dispatched at once and nap 1 s each in the worker:
        # the second cell's span starts where the first cell's ends, when
        # the first came back, not at its own dispatch, and contains its
        # own runs.
        register("naps", _NapsInItsWorker)
        spec = _napping_spec()
        with obs_trace.capture_events() as events:
            SweepRunner(
                spec, SqliteResultStore(":memory:"), backend="process",
                max_workers=1,
            ).run()
        spans = [event for event in events if event["ev"] == "span"]
        first, second = [span for span in spans if span["kind"] == "sweep-cell"]
        assert second["t0"] == pytest.approx(first["t0"] + first["dur"], abs=1e-9)
        assert second["t0"] - first["t0"] > 0.9
        by_id = {span["id"]: span for span in spans}

        def cell_of(span):
            while span["kind"] != "sweep-cell":
                span = by_id[span["parent"]]
            return span

        runs = [span for span in spans if span["kind"] == "run"]
        assert [cell_of(run) for run in runs] == [first, first, second, second]
        for run in runs:
            assert cell_of(run)["t0"] <= run["t0"]
            assert run["t0"] + run["dur"] <= cell_of(run)["t0"] + cell_of(run)["dur"]


    def test_a_batch_spans_end_at_its_last_shipped_span(self):
        # Two cells whose chunks ran over [10, 11] and [11, 12]: the tiles
        # run from the batch's start to the end of its last chunk, however
        # much later the runner takes the outcomes in and emits the spans.
        def chunk(t0):
            return {"ev": "span", "kind": "chunk", "name": "chunk", "id": 1,
                    "pid": -1, "parent": None, "t0": t0, "dur": 1.0, "attrs": {}}

        claims = [SimpleNamespace(cell=f"c{i}", attempt=0, owner="run") for i in (1, 2)]
        outcomes = [EnsembleOutcome(results=[], events=[chunk(t0)]) for t0 in (10.0, 11.0)]
        statistics = [SimpleNamespace(runs=2, converged=2)] * 2
        with obs_trace.capture_events() as events:
            ended = SweepRunner._emit_cell_spans(claims, outcomes, statistics, 9.5, True)
        cells = [event for event in events if event["kind"] == "sweep-cell"]
        assert ended == 12.0
        assert [(cell["t0"], cell["t0"] + cell["dur"]) for cell in cells] == [
            (9.5, 11.0), (11.0, 12.0),
        ]


class _KillsItsWorker(Protocol):
    """A majority protocol whose unpickling SIGKILLs any pool worker."""

    def __reduce__(self):
        return (_load_in_worker, (_kill_this_process, dict(self.__dict__)))


class _SleepsInItsWorker(Protocol):
    """A majority protocol whose unpickling takes 2 s in any pool worker."""

    def __reduce__(self):
        return (_load_in_worker, (_sleep_two_seconds, dict(self.__dict__)))


class _NapsInItsWorker(Protocol):
    """A majority protocol whose unpickling takes 1 s in any pool worker."""

    def __reduce__(self):
        return (_load_in_worker, (_sleep_one_second, dict(self.__dict__)))


def _kill_this_process():
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_two_seconds():
    time.sleep(2.0)


def _sleep_one_second():
    time.sleep(1.0)


def _load_in_worker(misbehave, state):
    if multiprocessing.parent_process() is not None:
        misbehave()
    protocol = Protocol.__new__(Protocol)
    protocol.__dict__.update(state)
    return protocol


def _majority_as(protocol_class):
    """A sweep builder of majority protocols of ``protocol_class``."""

    def build(population, params):
        protocol, inputs = build_protocol_and_inputs("majority", population, {})
        protocol.__class__ = protocol_class
        return protocol, inputs

    return build
