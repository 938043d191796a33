"""Tests for the fault-tolerant distributed sweep layer.

The load-bearing properties:

* the sqlite store honors the store contract (register / commit /
  round-trip / foreign-spec rejection) on top of its claim semantics,
* claims are **atomic and exclusive**: concurrent claimants never receive the
  same cell, expired leases are recoverable, and commits are owner-guarded so
  a reclaimed cell can never be double-committed,
* failures retry with exponential backoff and park as terminal ``error``
  rows when retries are exhausted,
* every fault-injection point (`before-claim-commit`, `mid-cell`,
  `before-result-write`, `heartbeat-loss`) provably loses no cell and
  double-commits none,
* a drained claim store — single-runner, multi-runner, or killed-and-resumed
  — exports **byte-identically** to a single-process serial sweep's export.
"""

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.sweep import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    SqliteResultStore,
    StoreCorruptionError,
    SweepRunner,
    SweepSpec,
    claim_worker,
    export_rows,
    fault_point,
    install_fault_plan,
    open_store,
)
from repro.sweep.cli import main as sweep_main
from repro.sweep.dbstore import BOOKKEEPING_COLUMNS
from repro.sweep.runner import CellExecutionError
from repro.sweep.store import COLUMNS, STATUS_DONE, STATUS_ERROR, STATUS_RUNNING


@pytest.fixture(autouse=True)
def _pristine_fault_state():
    """Every test starts and ends with no fault plan installed."""
    install_fault_plan(None)
    yield
    install_fault_plan(None)


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


def _tiny_spec(**overrides):
    """A 2-cell grid for subprocess chaos tests."""
    options = dict(
        protocols=("majority",),
        populations=(8, 12),
        engines=("reference",),
        repetitions=2,
        master_seed=7,
        max_steps=300,
        stability_window=50,
    )
    options.update(overrides)
    return SweepSpec(**options)


class _FakeClock:
    """An injectable wall clock for lease/backoff tests."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class _Stats:
    """A minimal ConvergenceStatistics stand-in for store-level tests."""

    runs = 2
    converged = 2
    convergence_rate = 1.0
    mean_steps = 3.0
    median_steps = 3.0
    min_steps = 3
    max_steps = 3
    mean_consensus_step = 1.0


def _registered_store(tmp_path, spec, name="grid.sqlite", **options):
    store = SqliteResultStore(tmp_path / name, **options)
    for cell in spec.cells():
        store.ensure(cell.cell_id, cell.keyfields(), spec.cell_seed(cell))
    return store


def _serial_reference(tmp_path, spec, name="ref.csv"):
    """The byte-identity baseline: a single-process serial sweep's export."""
    store_path = tmp_path / (Path(name).stem + ".sqlite")
    with SqliteResultStore(store_path) as store:
        SweepRunner(spec, store, backend="serial").run(on_error="continue")
    return _export_csv(store_path, tmp_path / name)


def _export_csv(sqlite_path, csv_path):
    with SqliteResultStore(sqlite_path) as source:
        export_rows(source.rows(), csv_path)
    return csv_path


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_render_round_trip(self):
        text = "mid-cell@1:kill;heartbeat-loss@2:drop;before-claim-commit@3:raise"
        plan = FaultPlan.parse(text)
        assert plan.render() == text
        assert FaultPlan.parse(plan.render()) == plan
        assert plan.action_for("mid-cell", 1) == "kill"
        assert plan.action_for("mid-cell", 2) is None

    def test_empty_and_whitespace_plans(self):
        assert FaultPlan.parse("").empty
        assert FaultPlan.parse(" ; ; ").empty
        assert FaultPlan.parse(" mid-cell@1:raise ; ").rules == (
            FaultRule("mid-cell", 1, "raise"),
        )

    def test_malformed_plans_fail_loudly(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.parse("mid-cell:raise")
        with pytest.raises(ValueError, match="not an integer"):
            FaultPlan.parse("mid-cell@one:raise")
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultPlan.parse("nowhere@1:raise")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan.parse("mid-cell@1:explode")
        with pytest.raises(ValueError, match="positive"):
            FaultRule("mid-cell", 0, "raise")
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([FaultRule("mid-cell", 1, "raise"),
                       FaultRule("mid-cell", 1, "drop")])

    def test_fault_point_counts_hits_and_raises_on_schedule(self):
        install_fault_plan("mid-cell@2:raise")
        assert fault_point("mid-cell") is True
        with pytest.raises(InjectedFault) as caught:
            fault_point("mid-cell")
        assert caught.value.point == "mid-cell"
        assert caught.value.hit == 2
        assert fault_point("mid-cell") is True
        # Clearing restores the empty plan with fresh counters: no hit raises.
        install_fault_plan("mid-cell@2:raise")
        install_fault_plan(None)
        assert all(fault_point("mid-cell") for _ in range(3))

    def test_drop_is_one_shot_except_heartbeat_loss(self):
        install_fault_plan("before-result-write@1:drop;heartbeat-loss@1:drop")
        assert fault_point("before-result-write") is False
        assert fault_point("before-result-write") is True
        assert fault_point("heartbeat-loss") is False
        assert fault_point("heartbeat-loss") is False

    def test_unknown_point_is_rejected_at_evaluation(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            fault_point("everywhere")


# ----------------------------------------------------------------------
# The ResultStore contract on sqlite
# ----------------------------------------------------------------------
class TestSqliteStoreContract:
    def test_open_store_dispatches_sqlite_suffixes(self, tmp_path):
        for name in ("a.sqlite", "b.sqlite3", "c.db"):
            store = open_store(tmp_path / name)
            assert isinstance(store, SqliteResultStore)
            store.close()

    def test_rows_round_trip_including_unsigned_64bit_seeds(self, tmp_path):
        spec = _small_spec()
        store = _registered_store(tmp_path, spec)
        cells = spec.cells()
        seeds = [spec.cell_seed(cell) for cell in cells]
        # The sha256-derived seeds overflow sqlite's signed INTEGER; at
        # least one must exercise the TEXT round trip to prove it.
        assert any(seed > 2**63 - 1 for seed in seeds)
        assert store.finish_claim(store.claim_next("a"), _Stats())
        assert store._park_claim(
            store.claim_next("a"), "ValueError: bad,\r\nline two"
        ) == "parked"
        store.close()

        reopened = SqliteResultStore(tmp_path / "grid.sqlite")
        rows = reopened.rows()
        assert [row["cell"] for row in rows] == [cell.cell_id for cell in cells]
        assert [row["seed"] for row in rows] == seeds
        done = reopened.get(cells[0].cell_id)
        assert done["status"] == STATUS_DONE
        assert done["mean_steps"] == 3.0 and done["runs"] == 2
        error = reopened.get(cells[1].cell_id)
        assert error["status"] == STATUS_ERROR
        assert error["error"] == "ValueError: bad,\\nline two"
        assert len(reopened) == len(cells)
        assert cells[0].cell_id in reopened
        reopened.close()

    def test_foreign_spec_is_rejected(self, tmp_path):
        spec = _small_spec()
        store = _registered_store(tmp_path, spec)
        store.close()
        other = _small_spec(master_seed=43)
        reopened = SqliteResultStore(tmp_path / "grid.sqlite")
        cell = other.cells()[0]
        with pytest.raises(StoreCorruptionError, match="different master seed"):
            reopened.ensure(cell.cell_id, cell.keyfields(), other.cell_seed(cell))
        reopened.close()

    def test_concurrent_registration_is_idempotent(self, tmp_path):
        spec = _small_spec()
        first = _registered_store(tmp_path, spec)
        second = SqliteResultStore(tmp_path / "grid.sqlite")
        for cell in spec.cells():
            assert not second.ensure(
                cell.cell_id, cell.keyfields(), spec.cell_seed(cell)
            )
        assert len(second) == len(spec.cells())
        first.close()
        second.close()

    def test_import_rows_copies_a_store_to_identical_bytes(self, tmp_path):
        spec = _small_spec()
        reference = _serial_reference(tmp_path, spec)
        with SqliteResultStore(tmp_path / "ref.sqlite") as source:
            rows = source.rows()
        db = SqliteResultStore(tmp_path / "grid.sqlite")
        db.import_rows(rows)
        exported = _export_csv(tmp_path / "grid.sqlite", tmp_path / "out.csv")
        db.close()
        assert exported.read_bytes() == reference.read_bytes()


# ----------------------------------------------------------------------
# Claim semantics
# ----------------------------------------------------------------------
class TestClaimLifecycle:
    def test_claims_are_exclusive_and_grid_ordered(self, tmp_path):
        spec = _small_spec()
        store = _registered_store(tmp_path, spec)
        cells = [cell.cell_id for cell in spec.cells()]
        first = store.claim_next("a")
        second = store.claim_next("b")
        assert first.cell == cells[0]
        assert second.cell == cells[1]
        assert first.owner == "a" and second.owner == "b"
        assert first.seed == spec.cell_seed(spec.cells()[0])
        assert first.keyfields == spec.cells()[0].keyfields()
        assert store.status(first.cell) == STATUS_RUNNING
        store.close()

    def test_concurrent_claimants_never_double_claim(self, tmp_path):
        spec = _small_spec()
        store = _registered_store(tmp_path, spec)
        store.close()
        claimed = {}

        def drain(owner):
            mine = []
            connection = SqliteResultStore(tmp_path / "grid.sqlite")
            try:
                while True:
                    claim = connection.claim_next(owner)
                    if claim is None:
                        break
                    mine.append(claim.cell)
            finally:
                connection.close()
            claimed[owner] = mine

        threads = [
            threading.Thread(target=drain, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cells = [claim for claims in claimed.values() for claim in claims]
        assert len(cells) == len(spec.cells())
        assert len(set(cells)) == len(cells)

    def test_expired_lease_is_reclaimable_and_late_commit_refused(self, tmp_path):
        clock = _FakeClock()
        spec = _tiny_spec()
        store = _registered_store(
            tmp_path, spec, lease_seconds=10, clock=clock
        )
        stale = store.claim_next("dead-runner")
        assert store.claim_next("live-runner") .cell != stale.cell
        clock.advance(11)
        reclaimed = store.claim_next("live-runner")
        assert reclaimed.cell == stale.cell
        assert reclaimed.attempt == stale.attempt + 1
        # The dead runner wakes up and tries to commit: refused, no
        # double-commit possible.
        assert store.finish_claim(stale, _Stats()) is False
        assert store.finish_claim(reclaimed, _Stats()) is True
        assert store.status(stale.cell) == STATUS_DONE
        done_rows = [r for r in store.rows() if r["status"] == STATUS_DONE]
        assert len(done_rows) == 1
        store.close()

    def test_heartbeat_extends_lease(self, tmp_path):
        clock = _FakeClock()
        spec = _tiny_spec()
        store = _registered_store(tmp_path, spec, lease_seconds=10, clock=clock)
        claim = store.claim_next("a")
        clock.advance(8)
        assert store.heartbeat(claim) is True
        clock.advance(8)  # 16s total: dead without the heartbeat at t+8
        assert store.claim_next("b").cell != claim.cell
        assert store.finish_claim(claim, _Stats()) is True
        store.close()

    def test_heartbeat_loss_partitions_the_owner(self, tmp_path):
        clock = _FakeClock()
        spec = _tiny_spec()
        store = _registered_store(tmp_path, spec, lease_seconds=10, clock=clock)
        claim = store.claim_next("partitioned")
        install_fault_plan("heartbeat-loss@1:drop")
        clock.advance(8)
        assert store.heartbeat(claim) is True  # the beat silently vanished
        clock.advance(4)
        reclaimed = store.claim_next("healthy")
        assert reclaimed.cell == claim.cell
        # The partitioned owner finishes its (now orphaned) work: refused.
        assert store.finish_claim(claim, _Stats()) is False
        assert store.finish_claim(reclaimed, _Stats()) is True
        store.close()

    def test_failures_back_off_exponentially_then_park(self, tmp_path):
        clock = _FakeClock()
        spec = _tiny_spec(populations=(8,))
        store = _registered_store(
            tmp_path, spec, lease_seconds=10, max_retries=2, backoff_base=5,
            clock=clock,
        )
        claim = store.claim_next("a")
        assert store.fail_claim(claim, "boom") == "retry"
        bookkeeping = store.bookkeeping(claim.cell)
        assert bookkeeping["retry_count"] == 1
        assert bookkeeping["next_attempt"] == clock.now + 5
        assert store.claim_next("a") is None  # backoff not yet elapsed
        clock.advance(6)
        claim = store.claim_next("a")
        assert claim.attempt == 1
        assert store.fail_claim(claim, "boom") == "retry"
        assert store.bookkeeping(claim.cell)["next_attempt"] == clock.now + 10
        clock.advance(11)
        claim = store.claim_next("a")
        assert store.fail_claim(claim, "boom") == "parked"
        row = store.get(claim.cell)
        assert row["status"] == STATUS_ERROR and row["error"] == "boom"
        assert store.bookkeeping(claim.cell)["next_attempt"] is None
        clock.advance(10**6)
        assert store.claim_next("a") is None  # parked rows stay parked
        assert store.unresolved_count() == 0
        store.close()

    def test_repeated_lease_expiry_parks_poison_cells(self, tmp_path):
        clock = _FakeClock()
        spec = _tiny_spec(populations=(8,))
        store = _registered_store(
            tmp_path, spec, lease_seconds=5, max_retries=1, clock=clock
        )
        claim = store.claim_next("crashy")
        clock.advance(6)
        claim = store.claim_next("crashy")  # reclaim #1
        assert claim.attempt == 1
        clock.advance(6)
        # Reclaim #2 would exceed max_retries: parked at claim time.
        assert store.claim_next("crashy") is None
        row = store.get(claim.cell)
        assert row["status"] == STATUS_ERROR
        assert "lease expired" in row["error"]
        assert store.unresolved_count() == 0
        store.close()

    def test_release_claim_hands_back_cleanly(self, tmp_path):
        spec = _tiny_spec(populations=(8,))
        store = _registered_store(tmp_path, spec)
        claim = store.claim_next("a")
        assert store.release_claim(claim) is True
        assert store.status(claim.cell) == "created"
        assert store.bookkeeping(claim.cell)["retry_count"] == 0
        again = store.claim_next("b")
        assert again.cell == claim.cell and again.attempt == 0
        assert store.release_claim(claim) is False  # no longer held
        store.close()

    def test_fail_claim_after_reclaim_is_lost(self, tmp_path):
        clock = _FakeClock()
        spec = _tiny_spec(populations=(8,))
        store = _registered_store(tmp_path, spec, lease_seconds=5, clock=clock)
        stale = store.claim_next("dead")
        clock.advance(6)
        live = store.claim_next("live")
        assert store.fail_claim(stale, "late failure") == "lost"
        assert store.finish_claim(live, _Stats()) is True
        store.close()

    def test_bookkeeping_stays_out_of_rows(self, tmp_path):
        spec = _tiny_spec(populations=(8,))
        store = _registered_store(tmp_path, spec)
        claim = store.claim_next("a")
        store.finish_claim(claim, _Stats())
        (row,) = store.rows()
        assert set(row) == set(COLUMNS)
        assert not set(BOOKKEEPING_COLUMNS) & set(row)
        store.close()

    def test_store_clock_is_clamped_to_a_monotonic_floor(self, tmp_path):
        # Regression: lease/backoff arithmetic used to read the wall clock
        # raw; a backwards NTP step retreated every timestamp.  The store
        # now clamps any clock source (injected fakes included) with
        # max(last_returned, now).
        clock = _FakeClock()
        spec = _tiny_spec(populations=(8,))
        store = _registered_store(tmp_path, spec, clock=clock)
        assert store._clock() == 1000.0
        clock.advance(-250)  # the wall steps backwards
        assert store._clock() == 1000.0  # held at the floor
        clock.advance(300)  # raw 1050: the wall caught back up
        assert store._clock() == 1050.0
        store.close()

    def test_backwards_clock_step_cannot_break_a_live_lease(self, tmp_path):
        # Claim at t=1000, wall steps back to t=900, the owner heartbeats.
        # Unclamped, the renewal would set lease_expires = 910 — so when the
        # wall recovers to 1005 the lease looks expired and a second runner
        # reclaims a cell that is actively being computed.  The clamp renews
        # from the floor: the lease holds to 1010.
        clock = _FakeClock()
        spec = _tiny_spec()
        store = _registered_store(tmp_path, spec, lease_seconds=10, clock=clock)
        claim = store.claim_next("owner")
        clock.advance(-100)
        assert store.heartbeat(claim) is True
        clock.now = 1005.0  # the wall recovers, 5s after the claim
        other = store.claim_next("thief")
        assert other is not None and other.cell != claim.cell
        assert store.claim_next("thief") is None  # nothing expired
        assert store.finish_claim(claim, _Stats()) is True
        store.close()

    def test_backoff_survives_a_backwards_clock_step(self, tmp_path):
        clock = _FakeClock()
        spec = _tiny_spec(populations=(8,))
        store = _registered_store(
            tmp_path, spec, lease_seconds=10, max_retries=2, backoff_base=5,
            clock=clock,
        )
        claim = store.claim_next("a")
        assert store.fail_claim(claim, "boom") == "retry"  # next_attempt 1005
        clock.advance(-500)
        assert store.claim_next("a") is None  # clamped to 1000: still backing off
        clock.now = 1006.0  # past the backoff deadline
        retried = store.claim_next("a")
        assert retried is not None and retried.attempt == 1
        store.close()


# ----------------------------------------------------------------------
# Claim-commit fault points
# ----------------------------------------------------------------------
class TestClaimFaultPoints:
    def test_fault_before_claim_commit_loses_nothing(self, tmp_path):
        spec = _tiny_spec(populations=(8,))
        store = _registered_store(tmp_path, spec)
        install_fault_plan("before-claim-commit@1:raise")
        with pytest.raises(InjectedFault):
            store.claim_next("a")
        # The transaction rolled back: the cell is still claimable, by
        # anyone, with no retry consumed.
        assert store.status(spec.cells()[0].cell_id) == "created"
        claim = store.claim_next("b")
        assert claim is not None and claim.attempt == 0
        assert store.finish_claim(claim, _Stats()) is True
        store.close()

    def test_fault_before_result_write_recovers_by_recompute(self, tmp_path):
        clock = _FakeClock()
        spec = _tiny_spec(populations=(8,))
        store = _registered_store(tmp_path, spec, lease_seconds=5, clock=clock)
        install_fault_plan("before-result-write@1:drop")
        claim = store.claim_next("a")
        assert store.finish_claim(claim, _Stats()) is False  # commit lost
        assert store.status(claim.cell) == STATUS_RUNNING
        clock.advance(6)  # lease expires, the cell is recomputed
        again = store.claim_next("a")
        assert again.cell == claim.cell
        assert store.finish_claim(again, _Stats()) is True
        done = [r for r in store.rows() if r["status"] == STATUS_DONE]
        assert len(done) == 1
        store.close()


# ----------------------------------------------------------------------
# The claim loop
# ----------------------------------------------------------------------
class TestRunClaims:
    def test_single_claim_runner_matches_serial_sweep_bytes(self, tmp_path):
        spec = _small_spec()
        reference = _serial_reference(tmp_path, spec)
        store = SqliteResultStore(tmp_path / "grid.sqlite")
        report = SweepRunner(spec, store, backend="serial").run_claims("r0")
        store.close()
        assert report.executed == len(spec.cells())
        assert report.drained and report.lost == 0 and report.parked == 0
        exported = _export_csv(tmp_path / "grid.sqlite", tmp_path / "dist.csv")
        assert exported.read_bytes() == reference.read_bytes()

    def test_requires_a_claim_capable_store(self, tmp_path):
        spec = _tiny_spec()
        rows_only = type("RowsOnly", (), {"rows": lambda self: []})()
        with pytest.raises(TypeError, match="claim-capable"):
            SweepRunner(spec, rows_only, backend="serial").run_claims("r0")
        with pytest.raises(TypeError, match="claim-capable"):
            SweepRunner(spec, rows_only, backend="serial").run()

    def test_mid_cell_fault_retries_and_still_matches_bytes(self, tmp_path):
        spec = _small_spec()
        reference = _serial_reference(tmp_path, spec)
        store = SqliteResultStore(
            tmp_path / "grid.sqlite", lease_seconds=30, backoff_base=0.05
        )
        install_fault_plan("mid-cell@2:raise;mid-cell@5:raise")
        report = SweepRunner(spec, store, backend="serial").run_claims(
            "r0", idle_wait=0.05
        )
        store.close()
        assert report.retried == 2
        assert report.executed == len(spec.cells())
        assert report.drained
        exported = _export_csv(tmp_path / "grid.sqlite", tmp_path / "dist.csv")
        assert exported.read_bytes() == reference.read_bytes()

    def test_lost_commit_recomputes_to_identical_bytes(self, tmp_path):
        spec = _small_spec()
        reference = _serial_reference(tmp_path, spec)
        store = SqliteResultStore(
            tmp_path / "grid.sqlite", lease_seconds=0.3, backoff_base=0.05
        )
        install_fault_plan("before-result-write@1:drop")
        report = SweepRunner(spec, store, backend="serial").run_claims(
            "r0", idle_wait=0.05, heartbeat_interval=10,
        )
        store.close()
        assert report.lost == 1
        assert report.executed == len(spec.cells())
        exported = _export_csv(tmp_path / "grid.sqlite", tmp_path / "dist.csv")
        assert exported.read_bytes() == reference.read_bytes()

    def test_failing_cells_park_and_report(self, tmp_path):
        from repro.sweep import register_sweep_protocol
        from repro.sweep.spec import _PROTOCOL_BUILDERS

        def exploding_builder(population, params):
            raise RuntimeError("cell deliberately broken")

        register_sweep_protocol(
            "always-boom-distributed",
            exploding_builder,
            allowed_params=(),
        )
        try:
            spec = SweepSpec(
                protocols=("always-boom-distributed",),
                populations=(8,),
                engines=("reference",),
                repetitions=2,
                master_seed=3,
                max_steps=100,
                stability_window=20,
            )
            store = SqliteResultStore(
                tmp_path / "grid.sqlite", max_retries=1, backoff_base=0.02
            )
            report = SweepRunner(spec, store, backend="serial").run_claims(
                "r0", idle_wait=0.02
            )
            (row,) = store.rows()
            store.close()
            assert report.parked == 1 and report.retried == 1
            assert report.executed == 0 and report.drained
            assert row["status"] == STATUS_ERROR
            assert row["error"].startswith("RuntimeError: cell deliberately")
        finally:
            _PROTOCOL_BUILDERS.pop("always-boom-distributed", None)

    def test_stop_event_drains_gracefully(self, tmp_path):
        spec = _small_spec()
        store = _registered_store(tmp_path, spec)
        stop = threading.Event()
        stop.set()
        report = SweepRunner(spec, store, backend="serial").run_claims(
            "r0", stop_event=stop
        )
        store.close()
        assert report.stopped and report.executed == 0
        # Nothing was claimed: every cell is still open for other runners.
        reopened = SqliteResultStore(tmp_path / "grid.sqlite")
        assert reopened.status_counts() == {"created": len(spec.cells())}
        reopened.close()

    def test_max_cells_bounds_the_loop(self, tmp_path):
        spec = _small_spec()
        store = _registered_store(tmp_path, spec)
        report = SweepRunner(spec, store, backend="serial").run_claims(
            "r0", max_cells=3
        )
        store.close()
        assert report.executed == 3 and not report.drained

    def test_serial_runner_rejects_a_cell_timeout_before_registering(self, tmp_path):
        # An in-process ensemble cannot be interrupted; a budget the serial
        # backend would silently ignore is refused before any cell exists.
        store = SqliteResultStore(tmp_path / "grid.sqlite")
        with pytest.raises(ValueError, match="cell_timeout.*backend='process'"):
            SweepRunner(_tiny_spec(), store, backend="serial").run_claims(
                "r0", cell_timeout=0.05
            )
        assert store.rows() == []
        store.close()

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_a_non_positive_cell_timeout_is_rejected_before_registering(
        self, tmp_path, timeout
    ):
        # A zero budget used to park every cell as "ValueError: timeout must
        # be positive" at its first pool dispatch.
        store = SqliteResultStore(tmp_path / "grid.sqlite")
        with pytest.raises(ValueError, match="cell_timeout must be positive"):
            SweepRunner(_tiny_spec(), store, backend="process").run_claims(
                "r0", cell_timeout=timeout
            )
        assert store.rows() == []
        store.close()

    def test_timed_out_cell_is_parked_and_the_loop_drains(self, tmp_path):
        # modulo never reaches a terminal configuration, so with
        # stability_window == max_steps each of its runs fires the whole
        # budget: its 4 repetitions take ~10.5 s on 2 workers (2-core x86
        # host), 21x the 0.5 s cell budget.  majority at population 8
        # terminates within a few hundred steps (~14 ms) on the pool rebuilt
        # after the timeout.
        spec = SweepSpec(
            protocols=("modulo", "majority"),
            populations=(8,),
            engines=("compiled",),
            repetitions=4,
            master_seed=7,
            max_steps=4_000_000,
            stability_window=4_000_000,
        )
        store = SqliteResultStore(tmp_path / "grid.sqlite", max_retries=0)
        report = SweepRunner(
            spec, store, backend="process", max_workers=2
        ).run_claims("r0", cell_timeout=0.5, idle_wait=0.05)
        rows = {row["protocol"]: row for row in store.rows()}
        store.close()
        assert report.parked == 1 and report.executed == 1 and report.drained
        assert rows["modulo"]["status"] == STATUS_ERROR
        assert rows["modulo"]["error"].startswith("WorkerTimeoutError: ")
        assert rows["majority"]["status"] == STATUS_DONE
        assert rows["majority"]["runs"] == 4

    def test_cell_execution_error_carries_context(self):
        cause = ValueError("engine exploded")
        error = CellExecutionError("cell-1", cause)
        assert error.cell_id == "cell-1"
        assert error.cause is cause
        assert str(error) == "ValueError: engine exploded"


# ----------------------------------------------------------------------
# Kill-anywhere / resume-anywhere (real processes, real SIGKILL)
# ----------------------------------------------------------------------
def _run_claim_worker(spec_json, store_path, owner, fault_plan):
    claim_worker(
        spec_json,
        store_path,
        owner,
        backend="serial",
        lease_seconds=1.0,
        backoff_base=0.05,
        idle_wait=0.05,
        fault_plan=fault_plan,
    )


def _wait_for_a_claim(store_path, timeout=60.0):
    """Block until some runner holds (or died holding) a claim in the store."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(store_path):
            with SqliteResultStore(store_path) as store:
                if store.status_counts().get(STATUS_RUNNING):
                    return
        time.sleep(0.01)
    pytest.fail(f"no runner claimed a cell of {store_path} within {timeout}s")


class TestKillAndResume:
    def test_sigkilled_runner_resumes_to_identical_bytes(self, tmp_path):
        spec = _tiny_spec()
        reference = _serial_reference(tmp_path, spec)
        store_path = str(tmp_path / "grid.sqlite")
        # Runner 1 SIGKILLs itself mid-cell (claim held, nothing written).
        victim = multiprocessing.Process(
            target=_run_claim_worker,
            args=(spec.to_json(), store_path, "victim", "mid-cell@1:kill"),
        )
        victim.start()
        victim.join(60)
        assert victim.exitcode == -signal.SIGKILL
        # Its claim is stranded as a leased `running` row.
        stranded = SqliteResultStore(store_path)
        assert stranded.status_counts().get(STATUS_RUNNING) == 1
        assert stranded.unresolved_count() == len(spec.cells())
        stranded.close()
        # Restart: the fresh runner waits out the lease, adopts the cell,
        # and drains the grid.
        claim_worker(
            spec.to_json(), store_path, "revived",
            backend="serial", lease_seconds=1.0, idle_wait=0.05,
        )
        exported = _export_csv(Path(store_path), tmp_path / "dist.csv")
        assert exported.read_bytes() == reference.read_bytes()

    def test_surviving_runner_adopts_killed_peers_cells(self, tmp_path):
        spec = _tiny_spec()
        reference = _serial_reference(tmp_path, spec)
        store_path = str(tmp_path / "grid.sqlite")
        victim = multiprocessing.Process(
            target=_run_claim_worker,
            args=(spec.to_json(), store_path, "victim", "mid-cell@1:kill"),
        )
        survivor = multiprocessing.Process(
            target=_run_claim_worker,
            args=(spec.to_json(), store_path, "survivor", None),
        )
        victim.start()
        # The survivor starts once the victim holds its claim: started
        # together, the survivor can drain both cells before the victim
        # claims any, and the victim then exits cleanly instead of dying.
        _wait_for_a_claim(store_path)
        survivor.start()
        victim.join(60)
        survivor.join(60)
        assert victim.exitcode == -signal.SIGKILL
        assert survivor.exitcode == 0
        exported = _export_csv(Path(store_path), tmp_path / "dist.csv")
        assert exported.read_bytes() == reference.read_bytes()

    def test_sigterm_drains_gracefully(self, tmp_path):
        # A large grid so the runner is mid-drain when the signal lands.
        spec = _small_spec(repetitions=4)
        store_path = str(tmp_path / "grid.sqlite")
        process = multiprocessing.Process(
            target=_run_claim_worker,
            args=(spec.to_json(), store_path, "drainer", None),
        )
        process.start()
        time.sleep(0.5)
        process.terminate()  # SIGTERM
        process.join(60)
        assert process.exitcode == 0  # graceful exit, not a signal death
        store = SqliteResultStore(store_path)
        counts = store.status_counts()
        store.close()
        # Whatever completed is committed; nothing is stranded running.
        assert counts.get(STATUS_RUNNING) is None


# ----------------------------------------------------------------------
# CLI: workers launcher and export
# ----------------------------------------------------------------------
class TestWorkersCli:
    def _write_spec(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        return str(path)

    def test_two_launched_runners_match_serial_bytes(self, tmp_path, capsys):
        spec = _tiny_spec()
        reference = _serial_reference(tmp_path, spec)
        spec_file = self._write_spec(tmp_path, spec)
        store = str(tmp_path / "grid.sqlite")
        rc = sweep_main([
            "workers", "--spec", spec_file, "--store", store,
            "--runners", "2", "--backend", "serial", "--lease", "5",
            "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 unresolved" in out
        rc = sweep_main(["export", "--store", store, "--to",
                         str(tmp_path / "dist.csv")])
        assert rc == 0
        assert (tmp_path / "dist.csv").read_bytes() == reference.read_bytes()

    def test_workers_rejects_non_sqlite_stores(self, tmp_path, capsys):
        spec_file = self._write_spec(tmp_path, _tiny_spec())
        rc = sweep_main([
            "workers", "--spec", spec_file,
            "--store", str(tmp_path / "grid.csv"),
        ])
        assert rc == 2
        assert "claim-capable" in capsys.readouterr().err

    def test_workers_rejects_a_serial_cell_timeout_before_spawning(
        self, tmp_path, capsys
    ):
        spec_file = self._write_spec(tmp_path, _tiny_spec())
        store = tmp_path / "grid.sqlite"
        rc = sweep_main([
            "workers", "--spec", spec_file, "--store", str(store),
            "--runners", "2", "--backend", "serial", "--cell-timeout", "0.05",
        ])
        assert rc == 2
        assert "cell_timeout" in capsys.readouterr().err
        # No runner started: nothing opened, let alone registered, the store.
        assert not store.exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("run", ["--workers", "0"], "max_workers must be at least 1"),
            ("run", ["--max-cells", "-1"], "max_cells must be non-negative"),
            ("workers", ["--workers", "0"], "max_workers must be at least 1"),
            ("workers", ["--lease", "0"], "lease_seconds must be positive"),
            ("workers", ["--lease", "nan"], "lease_seconds must be positive"),
            ("workers", ["--max-retries", "-1"], "max_retries must be non-negative"),
            ("workers", ["--backoff", "-1"], "backoff_base must be non-negative"),
            ("workers", ["--backoff", "nan"], "backoff_base must be non-negative"),
            ("workers", ["--idle-wait", "0"], "idle_wait must be positive"),
            ("workers", ["--idle-wait", "nan"], "idle_wait must be positive"),
            ("workers", ["--cell-timeout", "0"], "cell_timeout must be positive"),
            ("workers", ["--cell-timeout", "nan"], "cell_timeout must be positive"),
            ("workers", ["--heartbeat", "0"], "heartbeat_interval must be positive"),
            ("workers", ["--heartbeat", "-5"], "heartbeat_interval must be positive"),
            ("workers", ["--heartbeat", "nan"], "heartbeat_interval must be positive"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_bad_numeric_flags_exit_2_before_a_store_exists(
        self, tmp_path, capsys, command, flags, message
    ):
        spec_file = self._write_spec(tmp_path, _tiny_spec())
        store = tmp_path / "grid.sqlite"
        rc = sweep_main(
            [command, "--spec", spec_file, "--store", str(store), *flags]
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not store.exists()

    def test_workers_reports_missing_spec(self, tmp_path, capsys):
        rc = sweep_main([
            "workers", "--spec", str(tmp_path / "nope.json"),
            "--store", str(tmp_path / "grid.sqlite"),
        ])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_export_round_trips_between_formats(self, tmp_path):
        spec = _tiny_spec()
        reference = _serial_reference(tmp_path, spec)
        rc = sweep_main(["export", "--store", str(tmp_path / "ref.sqlite"),
                         "--to", str(tmp_path / "grid.sqlite")])
        assert rc == 0
        rc = sweep_main(["export", "--store", str(tmp_path / "grid.sqlite"),
                         "--to", str(tmp_path / "back.csv")])
        assert rc == 0
        assert (tmp_path / "back.csv").read_bytes() == reference.read_bytes()

    def test_run_subcommand_accepts_sqlite_stores(self, tmp_path, capsys):
        spec = _tiny_spec()
        reference = _serial_reference(tmp_path, spec)
        spec_file = self._write_spec(tmp_path, spec)
        store = str(tmp_path / "grid.sqlite")
        rc = sweep_main([
            "run", "--spec", spec_file, "--store", store,
            "--backend", "serial", "--quiet",
        ])
        assert rc == 0
        exported = _export_csv(Path(store), tmp_path / "dist.csv")
        assert exported.read_bytes() == reference.read_bytes()
