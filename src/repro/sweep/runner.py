"""Resumable execution of sweep grids: one claim loop, two owners.

The :class:`SweepRunner` runs one seeded ensemble per cell of a
:class:`~repro.sweep.spec.SweepSpec` against a
:class:`~repro.sweep.dbstore.SqliteResultStore`, through one loop body:
claim the next batch of open cells in grid order (one transaction), submit
them to a shared :class:`~repro.sweep.executor.CellExecutor` (one pool round
trip), commit their rows (one transaction), repeat.  How many cells a batch
takes is derived, not configured: see :data:`BATCH_STEP_BUDGET`.  On a pool
the loop is a two-stage pipeline: while one batch executes, the runner
claims the next and queues it on the pool behind it, then commits the first
while the second executes, so neither the workers nor the runner wait for
the other (see :data:`_PIPELINE_DEPTH`).

* :meth:`SweepRunner.run` is the single-owner case: every cell is registered
  up front (status ``created``), **resume is the default** — ``done`` cells
  are skipped, everything else (``created``, a stale ``running`` from a
  killed run, and — unless ``retry_errors=False`` — ``error``) is (re)run —
  and a failing cell gets its terminal ``error`` row at once;
* :meth:`SweepRunner.run_claims` is the multi-runner case: any number of
  processes drain one store, heartbeating their leases, retrying failed
  cells with backoff and adopting the cells of killed peers;
* under ``backend="process"`` every batch fans its cells' repetitions over
  **one shared persistent** :class:`~repro.simulation.batch.WorkerPool`:
  worker processes are created once per loop and cache one initialized
  simulator per (protocol, scheduler, engine) spec, so the grid pays
  protocol pickling and stepper compilation once per spec per worker, not
  once per cell;
* failures stay with their cell: a cell that raises inside a batch gets its
  own ``error`` row while its neighbours commit, and a batch that fails as a
  whole (a worker crash) reruns one cell per round trip, so the failure
  lands on the cell that caused it, while the batch queued behind it is
  sent again to fresh workers without a retry; a runner with a
  ``cell_timeout`` claims one cell per batch, and a queued cell's budget
  starts when the cell before it returns, so the timeout bounds each cell;
* results are backend-independent **by construction**: each cell's ensemble
  seeds derive from the spec's master seed and the cell identity alone
  (see :meth:`~repro.sweep.spec.SweepSpec.cell_seed`), and the batch layer
  guarantees serial/process bit-identity for a fixed seed list — so the same
  spec exports byte-identical tables serially, in parallel, straight
  through, across any kill-and-resume cycle, and from any number of runners.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import (
    Callable,
    Counter as CounterType,
    Deque,
    Dict,
    List,
    Optional,
    Set,
)

from ..config import monotonic_time
from ..obs import trace as _obs_trace
from ..simulation.batch import EnsembleOutcome, WorkerPool, repetition_seeds
from ..simulation.simulator import SimulationResult
from ..simulation.statistics import (
    ConvergenceStatistics,
    accuracy_against_predicate,
    summarize_runs,
)
from .dbstore import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_RETRIES,
    Claim,
    SqliteResultStore,
)
from .executor import CellExecutor, SubmittedCells
from .faults import fault_point, install_fault_plan
from .spec import SweepCell, SweepSpec
from .store import COLUMNS, STATUS_ERROR, StoreCorruptionError

__all__ = [
    "BATCH_STEP_BUDGET",
    "CellExecutionError",
    "ClaimReport",
    "SweepReport",
    "SweepRunner",
    "check_runner_settings",
    "claim_worker",
    "to_experiment_table",
]

_BACKENDS = ("serial", "process")

#: The claim owner of :meth:`SweepRunner.run`, the store's only runner.
_RUN_OWNER = "run"

#: The worst-case steps of one batch, ``k × repetitions × max_steps``, from
#: which the claim loop sizes its batches of k cells.  A batch holds its
#: leases until it commits, and a SIGTERM drain waits for the batches on
#: the pool, the executing one and the one queued behind it, so a batch's
#: stepping stays within one heavy cell's and a drain's within two: 2^20
#: steps took 18–85 ms on the native engine and 1.0–1.6 s on the compiled
#: one (one core of a shared 2-core Xeon; modulo and majority at 8–200
#: agents).  A cell of 2^20 worst-case steps or more runs alone.  k is at
#: most :data:`_MAX_BATCH_CELLS` (320 cells of 2 × 300 steps on one worker
#: ran about 500 cells/s one per batch, 1,900–2,300 at 16 per batch, 2,500
#: at 64 and at 128, and 2,100–2,200 as one batch of 320, which leaves the
#: pipeline nothing to overlap) and never more than the cells left under
#: ``max_cells``.  Without a pool there is no round trip to amortize, and
#: with a ``cell_timeout`` the pool's timeout must bound a single cell, so
#: those runners claim one cell per batch.
BATCH_STEP_BUDGET = 1 << 20
_MAX_BATCH_CELLS = 64
#: How many claimed batches a loop with a pool keeps submitted: one
#: executing and one queued on the pool behind it, so the workers take up
#: the next batch the moment the last one returns while the runner commits
#: it.  Sent only once the batch before returns, even with the commit on a
#: helper thread, the next batch left the worker idle at every boundary:
#: sweep-grid ran 0.91x as fast (2-core Xeon, Python 3.11).  Without a pool
#: nothing runs while the runner commits, so a serial loop claims one batch
#: at a time.
_PIPELINE_DEPTH = 2


def check_runner_settings(
    backend: str = "process",
    max_workers: Optional[int] = None,
    max_cells: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    idle_wait: Optional[float] = None,
    heartbeat_interval: Optional[float] = None,
) -> None:
    """Raise :class:`ValueError` for a setting :class:`SweepRunner` refuses.

    A setting left at ``None`` is not checked.  The runner checks its
    settings here when it is built and before a run registers any cell;
    ``python -m repro.sweep`` checks its flags here before it opens a store,
    so a bad flag leaves nothing behind.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (expected one of {_BACKENDS})")
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be at least 1, got {max_workers}")
    if max_cells is not None and max_cells < 0:
        raise ValueError(f"max_cells must be non-negative, got {max_cells}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
    if cell_timeout is not None and backend == "serial":
        raise ValueError(
            "cell_timeout needs backend='process': a serial runner cannot "
            "interrupt a cell's ensemble"
        )
    if idle_wait is not None and idle_wait <= 0:
        raise ValueError(f"idle_wait must be positive, got {idle_wait}")
    if heartbeat_interval is not None and heartbeat_interval <= 0:
        raise ValueError(f"heartbeat_interval must be positive, got {heartbeat_interval}")


class CellExecutionError(RuntimeError):
    """A grid cell's ensemble failed (crash, timeout, or protocol error).

    The claim loop's unit of containment: every failure of a cell in
    :meth:`SweepRunner._resolve_batch` — a raising protocol builder, a worker
    process crash (:class:`~repro.simulation.batch.WorkerCrashError`), an
    ensemble timeout (:class:`~repro.simulation.batch.WorkerTimeoutError`) —
    is wrapped in this typed error carrying the cell id and the original
    cause, and converted into an ``error`` row (parked at once by
    :meth:`SweepRunner.run`, retried with backoff by
    :meth:`SweepRunner.run_claims`) instead of killing the runner process.
    """

    def __init__(self, cell_id: str, cause: BaseException):
        self.cell_id = cell_id
        self.cause = cause
        super().__init__(f"{type(cause).__name__}: {cause}")


@dataclass(frozen=True)
class SweepReport:
    """What one :meth:`SweepRunner.run` call did to the grid."""

    #: Cells in the grid.
    total: int
    #: Cells that completed successfully during this call.
    executed: int
    #: Cells skipped because the store already had them ``done`` (or
    #: ``error`` with ``retry_errors=False`` — counted separately below).
    skipped: int
    #: Cells that raised during this call (recorded as ``error`` rows).
    failed: int
    #: The subset of ``skipped`` that was skipped as a *previous* ``error``
    #: (``retry_errors=False``) — still failures, just not this call's.
    skipped_errors: int = 0

    @property
    def remaining(self) -> int:
        """Cells not reached (an interrupted run, e.g. via ``max_cells``)."""
        return self.total - self.executed - self.skipped - self.failed

    @property
    def complete(self) -> bool:
        """True when every cell of the grid is actually ``done``.

        False while cells remain, and also when any cell failed — in this
        call or in the run a ``retry_errors=False`` resume skipped over.
        """
        return self.failed == 0 and self.skipped_errors == 0 and self.remaining == 0


@dataclass(frozen=True)
class ClaimReport:
    """What one :meth:`SweepRunner.run_claims` loop did to a shared grid.

    Unlike :class:`SweepReport`, the counters are *this runner's* view: other
    runners may have executed the rest of the grid concurrently.  ``drained``
    is the global statement — on exit, every row of the store was ``done`` or
    a terminal (parked) ``error`` row.
    """

    #: This runner's owner id.
    owner: str
    #: Cells in the grid.
    total: int
    #: Claims this runner executed and committed.
    executed: int
    #: Claims that failed and were recorded for retry (backoff pending).
    retried: int
    #: Claims that failed with retries exhausted (terminal ``error`` rows).
    parked: int
    #: Commits refused because the lease had been reclaimed meanwhile (the
    #: reclaimant recomputes the identical row, so nothing is damaged).
    lost: int
    #: Whether the store was fully drained when the loop exited.
    drained: bool
    #: Whether the loop exited on a stop request (SIGTERM drain) rather than
    #: an empty store or an exhausted ``max_cells`` budget.
    stopped: bool = False


@dataclass
class _Batch:
    """A claimed batch on its way through the claim loop: its claims and
    cells, the outcome of each cell the ``mid-cell`` fault point failed
    (``None`` for the rest), and the submitted round trip of the rest."""

    claims: List[Claim]
    cells: List[SweepCell]
    faulted: List[Optional[EnsembleOutcome]]
    group: List[SweepCell]
    submitted: SubmittedCells


class _HeartbeatPump:
    """A daemon thread extending every claim its loop currently holds.

    One pump serves a whole claim loop: :meth:`hold` hands it a batch of
    claims once they are claimed, :meth:`release` takes them back before the
    batch's results are committed or its failures recorded.  It holds the
    claims of every batch the loop has dispatched, so a batch queued behind
    the executing one keeps its leases too.  Both swap the claims under the
    lock a beat holds while it runs, so no beat can extend (or misreport) a
    claim that has already been committed or failed.

    While claims are held the pump beats every ``interval`` seconds
    (default: a third of the store's lease); each beat extends every held
    claim through the store's ``heartbeat`` — and therefore through the
    ``heartbeat-loss`` fault point, which is how the partition chaos tests
    starve a lease under a live runner.  A claim whose beat returns False is
    gone: the pump stops beating it and adds its cell to :attr:`lost`, and
    :meth:`release` reports it, so the claim loop can report the eventual
    lost commit with a cause.

    Lease trouble is never silent: a beat that lands late (more than two
    intervals since the previous one — a starved thread or a blocked store),
    a gap that eats into the final beat of the lease window, and a beat
    whose claim is already gone each emit a ``heartbeat-<reason>``
    ``warning`` event through :mod:`repro.obs.trace` (``python -m repro.obs
    summary`` counts them under point events), and the reasons are kept on
    :attr:`warnings`.
    """

    def __init__(self, store: SqliteResultStore, interval: float):
        self._store = store
        self._interval = max(0.05, interval)
        self._lock = threading.Lock()
        self._claims: List[Claim] = []
        self._last = 0.0
        self._stop = threading.Event()
        self.lost: Set[str] = set()
        self.warnings: List[str] = []
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def __enter__(self) -> "_HeartbeatPump":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def hold(self, *claims: Claim) -> None:
        """Start extending the leases of ``claims``, beside those held."""
        with self._lock:
            if not self._claims:
                self._last = monotonic_time()
            self._claims.extend(claims)

    def release(self, *claims: Claim) -> Set[str]:
        """Stop extending ``claims``; returns the cells among them whose
        lease was lost while they were held."""
        released = {id(claim) for claim in claims}
        cells = {claim.cell for claim in claims}
        with self._lock:
            self._claims = [c for c in self._claims if id(c) not in released]
            lost = self.lost & cells
            self.lost -= cells
            return lost

    def _warn(self, reason: str, claim: Claim, **attrs: object) -> None:
        self.warnings.append(reason)
        _obs_trace.event(
            f"heartbeat-{reason}",
            kind="warning",
            reason=reason,
            cell=claim.cell,
            owner=claim.owner,
            interval=self._interval,
            **attrs,
        )

    def _beat(self) -> None:
        lease = getattr(self._store, "lease_seconds", None)
        while not self._stop.wait(self._interval):
            with self._lock:
                if not self._claims:
                    continue
                gap = monotonic_time() - self._last
                if gap > 2.0 * self._interval:
                    # At least one beat went missing (a starved thread, a
                    # store call that blocked) — the leases burned down
                    # unattended.
                    self._warn("skipped", self._claims[0], gap=gap)
                if lease is not None and gap > lease - self._interval:
                    # Within one beat of expiry: the next hiccup loses the
                    # claims.
                    self._warn(
                        "lease-at-risk", self._claims[0], gap=gap, lease=lease
                    )
                held = []
                for claim in self._claims:
                    if self._store.heartbeat(claim):
                        held.append(claim)
                        continue
                    self._warn("lost", claim)
                    self.lost.add(claim.cell)
                self._claims = held
                if held:
                    self._last = monotonic_time()


class SweepRunner:
    """Run a sweep spec against a result store, resumably.

    Parameters
    ----------
    spec:
        The grid to run.
    store:
        The :class:`~repro.sweep.dbstore.SqliteResultStore` rows live in.
        Reusing a store from an earlier (possibly interrupted) run of the
        **same** spec resumes it; a store written by a different spec or
        master seed is rejected at registration time.
    backend:
        ``"process"`` (default) runs each batch of cells in one round trip
        of a shared persistent :class:`~repro.simulation.batch.WorkerPool`;
        ``"serial"`` runs everything in-process, reusing one simulator per
        (protocol, scheduler, engine) spec across cells.
    max_workers, start_method:
        Pool knobs, as for :class:`~repro.simulation.batch.WorkerPool`.
        Ignored under ``backend="serial"``.
    retry_errors:
        Whether :meth:`run` re-runs cells recorded as ``error`` (default)
        or skips them.
    """

    def __init__(
        self,
        spec: SweepSpec,
        store: SqliteResultStore,
        backend: str = "process",
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        retry_errors: bool = True,
    ):
        check_runner_settings(backend, max_workers)
        self.spec = spec
        self.store = store
        self.backend = backend
        self.max_workers = max_workers
        self.start_method = start_method
        self.retry_errors = retry_errors

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        max_cells: Optional[int] = None,
        on_error: str = "raise",
        progress: Optional[Callable[[str], None]] = None,
    ) -> SweepReport:
        """Execute the grid (or what remains of it) and return a report.

        The single-owner case of the claim loop (:meth:`run_claims`): the
        caller is assumed to be the store's only runner, so every
        ``running`` row is a stale claim of a killed run and is re-run, as
        is every ``error`` row unless ``retry_errors=False``.  A failing
        cell gets its terminal ``error`` row at once — no backoff, no retry
        within the call.

        Parameters
        ----------
        max_cells:
            Stop after attempting this many cells (completed or failed) —
            the controlled-interruption knob used by the resume tests and
            the CI smoke job.  Skipped ``done`` cells do not count.
        on_error:
            ``"raise"`` (default) persists the ``error`` row, then re-raises
            the cell's exception; ``"continue"`` records it and moves on —
            the failure stays visible in the table and the report.
        progress:
            Optional callback receiving one human-readable line per cell;
            a batch's lines arrive together, once its rows are committed.
        """
        if on_error not in ("raise", "continue"):
            raise ValueError(
                f"on_error must be 'raise' or 'continue', got {on_error!r}"
            )
        check_runner_settings(self.backend, max_cells=max_cells)
        cells = self._register()
        index_of = {cell.cell_id: index for index, cell in enumerate(cells)}
        skipped = skipped_errors = 0
        for cell_id, status in self.store.finished_cells():
            index = index_of.get(cell_id)
            if index is None or (status == STATUS_ERROR and self.retry_errors):
                continue
            skipped += 1
            if status == STATUS_ERROR:
                skipped_errors += 1
            if progress is not None:
                progress(f"[{index + 1}/{len(cells)}] {cell_id} skipped ({status})")
        self.store._reopen(self.retry_errors)
        tally = self._claim_loop(
            _RUN_OWNER, cells, max_cells, progress, single_owner=True,
            raise_errors=on_error == "raise",
        )
        return SweepReport(
            total=len(cells), executed=tally["executed"], skipped=skipped,
            failed=tally["parked"], skipped_errors=skipped_errors,
        )

    def run_claims(
        self,
        owner: str,
        max_cells: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        wait_for_stragglers: bool = True,
        idle_wait: float = 0.2,
        stop_event: Optional[threading.Event] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> ClaimReport:
        """Drain the grid cooperatively: claim, execute, commit, repeat.

        The multi-runner mode: any number of processes (one host or many
        sharing a filesystem) point :meth:`run_claims` at the same sqlite
        store and the grid drains concurrently.

        Each iteration atomically claims the next batch of open cells,
        executes their ensembles (under a heartbeat pump extending every
        lease), and commits the results through the owner-guarded
        ``finish_batch``; under ``backend="process"`` the next batch is
        claimed and queued on the pool while one executes, so the runner
        holds the claims of up to two batches.  A failing cell — including
        worker crashes and ensemble timeouts, both wrapped in
        :class:`CellExecutionError` — is recorded for retry with
        exponential backoff, or parked as a terminal ``error`` row once the
        store's ``max_retries`` is exhausted; the runner itself survives and
        moves on.  Because every cell's seeds derive from the spec's master
        seed and the cell identity alone, the drained table's ``done`` rows
        are byte-identical to a single-process :meth:`run` of the same spec,
        no matter how many runners participated or how often they crashed.

        Parameters
        ----------
        owner:
            This runner's claim-owner id; must be unique across concurrently
            live runners (the launcher derives it from host and index).
        max_cells:
            Stop after processing this many claims (the controlled-
            interruption knob; ``None`` = run until the grid drains).
        cell_timeout:
            Wall-clock budget per cell ensemble — expiry raises through the
            crash containment and counts as a cell failure.  A runner with a
            budget claims one cell per batch, so the budget bounds each
            cell, never a batch.  It must be positive, and only the process
            backend can interrupt an ensemble, so a serial runner rejects it;
            both raise :class:`ValueError` before any cell is registered.
        heartbeat_interval:
            Seconds between lease extensions (default: a third of the
            store's ``lease_seconds``).  It must be positive; beats come at
            most every 0.05 s.
        wait_for_stragglers:
            When no cell is claimable but unresolved rows remain (live
            claims of other runners, rows in backoff), keep polling every
            ``idle_wait`` seconds until the grid drains (default) instead of
            returning.  Waiting runners also adopt expired leases, so a
            SIGKILLed peer's cells are re-executed without any restart.
        stop_event:
            Optional external stop flag: the loop claims nothing further,
            finishes and commits the batches in flight (up to two: the one
            executing and the one queued behind it), then exits — the
            graceful SIGTERM drain of :func:`claim_worker`.
        progress:
            Optional callback receiving one line per processed claim.
        """
        check_runner_settings(
            self.backend, max_cells=max_cells, cell_timeout=cell_timeout,
            idle_wait=idle_wait, heartbeat_interval=heartbeat_interval,
        )
        cells = self._register()
        tally = self._claim_loop(
            owner, cells, max_cells, progress,
            cell_timeout=cell_timeout,
            heartbeat_interval=heartbeat_interval,
            idle_wait=idle_wait if wait_for_stragglers else None,
            stop_event=stop_event,
        )
        return ClaimReport(
            owner=owner,
            total=len(cells),
            executed=tally["executed"],
            retried=tally["retry"],
            parked=tally["parked"],
            lost=tally["lost"],
            drained=self.store.unresolved_count() == 0,
            stopped=bool(tally["stopped"]),
        )

    def _register(self) -> List[SweepCell]:
        """Check the store, then register the whole grid."""
        claim_api = (
            "ensure_batch", "claim_batch", "finish_batch", "fail_claim", "heartbeat",
        )
        if not all(hasattr(self.store, name) for name in claim_api):
            raise TypeError(
                "the sweep runner requires a claim-capable store (a .sqlite "
                f"path / SqliteResultStore), got {type(self.store).__name__}"
            )
        cells = self.spec.cells()
        self.store.ensure_batch(
            (cell.cell_id, cell.keyfields(), self.spec.cell_seed(cell))
            for cell in cells
        )
        return cells

    def _batch_cells(
        self, pool: Optional[WorkerPool], cell_timeout: Optional[float]
    ) -> int:
        """How many cells one claim takes (see :data:`BATCH_STEP_BUDGET`)."""
        if pool is None or cell_timeout is not None:
            return 1
        steps = self.spec.repetitions * self.spec.max_steps
        return max(1, min(_MAX_BATCH_CELLS, BATCH_STEP_BUDGET // steps))

    def _claim_loop(
        self,
        owner: str,
        cells: List[SweepCell],
        max_cells: Optional[int],
        progress: Optional[Callable[[str], None]],
        single_owner: bool = False,
        raise_errors: bool = False,
        cell_timeout: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        idle_wait: Optional[float] = None,
        stop_event: Optional[threading.Event] = None,
    ) -> CounterType[str]:
        """Claim, execute and commit batches until no cell is left for ``owner``.

        The one loop body behind :meth:`run` (``single_owner``: failures
        park at once, ``raise_errors`` re-raises the batch's first failure
        once its rows are written, spans are ``sweep-cell``) and
        :meth:`run_claims` (failures retry with backoff, spans are
        ``claim``).  The loop is a pipeline: with a pool it keeps up to
        :data:`_PIPELINE_DEPTH` claimed batches submitted, so while one
        executes it claims, builds and queues the next, and it summarizes
        and commits each batch while the one after it executes.  A stop
        request or the ``max_cells`` budget only stops the claiming: every
        submitted batch still executes and commits.  A loop that exits on
        an error cancels the batches still queued and hands their claims
        back.  With ``idle_wait`` set, a loop that finds no claimable cell
        and has nothing queued polls until the grid drains.  Returns counts
        of ``executed`` cells, failure fates (``retry`` / ``parked`` /
        ``lost``) and whether a ``stopped`` request ended the loop.
        """
        index_of = {cell.cell_id: index for index, cell in enumerate(cells)}
        tally: CounterType[str] = Counter()
        processed = 0
        pool = None
        if self.backend == "process":
            pool = WorkerPool(
                max_workers=self.max_workers, start_method=self.start_method
            )
        executor = CellExecutor(pool, cell_timeout)
        batch_cells = self._batch_cells(pool, cell_timeout)
        depth = 1 if pool is None else _PIPELINE_DEPTH
        if heartbeat_interval is None:
            heartbeat_interval = self.store.lease_seconds / 3.0
        record = self.store._park_claim if single_owner else self.store.fail_claim
        queue: Deque[_Batch] = deque()
        claiming = True
        # When tracing, where the cell spans of the batch resolved last
        # ended: the next batch's spans run on from there.
        last_end = 0.0
        try:
            with _HeartbeatPump(self.store, heartbeat_interval) as pump:
                while True:
                    while claiming and len(queue) < depth:
                        if stop_event is not None and stop_event.is_set():
                            tally["stopped"] = 1
                            claiming = False
                            break
                        if max_cells is not None and processed >= max_cells:
                            claiming = False
                            break
                        limit = batch_cells
                        if max_cells is not None:
                            limit = min(limit, max_cells - processed)
                        claims = self.store.claim_batch(owner, limit)
                        if not claims:
                            if queue:
                                break
                            if idle_wait is None or self.store.unresolved_count() == 0:
                                claiming = False
                                break
                            # Rows remain but none is eligible right now:
                            # another runner's live claim, or a backoff
                            # window.  Poll — an expired lease or due retry
                            # becomes claimable here, which is how surviving
                            # runners adopt a killed peer's cells without any
                            # restart.
                            time.sleep(idle_wait)
                            continue
                        foreign = [c.cell for c in claims if c.cell not in index_of]
                        if foreign:
                            # Not this spec's cells: the store holds a
                            # different (or larger) grid.  Hand the claims
                            # back and refuse to mix.
                            for claim in claims:
                                self.store.release_claim(claim)
                            raise StoreCorruptionError(
                                f"claimed cell {foreign[0]!r} is not part of this "
                                "sweep spec; the store holds a different grid"
                            )
                        processed += len(claims)
                        pump.hold(*claims)
                        queue.append(self._submit_batch(
                            claims, [cells[index_of[claim.cell]] for claim in claims],
                            executor,
                        ))
                    if not queue:
                        break
                    batch = queue[0]
                    outcomes = self._resolve_batch(batch, executor)
                    lost = pump.release(*batch.claims)
                    statistics = [
                        None if outcome.error is not None
                        else summarize_runs(outcome.results)
                        for outcome in outcomes
                    ]
                    if _obs_trace.tracing_active():
                        last_end = max(last_end, self._emit_cell_spans(
                            batch.claims, outcomes, statistics,
                            max(batch.submitted.sent, last_end), single_owner,
                        ))
                    committed = iter(self.store.finish_batch([
                        (claim, stats, self._result_extras(cell, executor, outcome.results))
                        for claim, cell, outcome, stats in zip(
                            batch.claims, batch.cells, outcomes, statistics
                        )
                        if stats is not None
                    ]))
                    queue.popleft()
                    first_failure: Optional[CellExecutionError] = None
                    for claim, cell, outcome, stats in zip(
                        batch.claims, batch.cells, outcomes, statistics
                    ):
                        alive = claim.cell not in lost
                        if single_owner:
                            prefix = (
                                f"[{index_of[claim.cell] + 1}/{len(cells)}] "
                                f"{claim.cell}"
                            )
                        else:
                            prefix = f"[{owner}] {claim.cell} attempt {claim.attempt}"
                        if stats is None:
                            error = CellExecutionError(cell.cell_id, outcome.error)
                            first_failure = first_failure or error
                            fate = record(claim, str(error))
                            tally[fate] += 1
                            if progress is not None:
                                progress(
                                    f"{prefix} FAILED ({_lost(fate, alive)}): "
                                    f"{error}"
                                )
                            continue
                        won = next(committed)
                        tally["executed" if won else "lost"] += 1
                        if progress is not None:
                            progress(
                                f"{prefix} "
                                f"{'done' if won else _lost('lost', alive)} "
                                f"(converged {stats.converged}/{stats.runs}, "
                                f"mean steps {stats.mean_steps:.1f})"
                            )
                    if raise_errors and first_failure is not None:
                        raise first_failure.cause from None
        finally:
            try:
                # Batches are left only when the loop is leaving on an
                # exception; a store that fails to take their claims back
                # must not raise over it (their leases run out instead).
                for batch in queue:
                    try:
                        executor.cancel(batch.submitted)
                        for claim in batch.claims:
                            self.store.release_claim(claim)
                    except Exception as error:
                        _obs_trace.event(
                            "claim-release-failed", kind="warning",
                            cells=[claim.cell for claim in batch.claims],
                            error=f"{type(error).__name__}: {error}",
                        )
            finally:
                if pool is not None:
                    pool.close()
        return tally

    def _submit_batch(
        self, claims: List[Claim], batch: List[SweepCell], executor: CellExecutor
    ) -> _Batch:
        """Submit a claimed batch to the executor; see :meth:`_resolve_batch`.

        The ``mid-cell`` fault point fires once per cell before the batch is
        submitted; it models a runner dying (or erroring) between claiming
        and executing: the claims are held, no result exists.
        """
        faulted: List[Optional[EnsembleOutcome]] = []
        for cell in batch:
            try:
                fault_point("mid-cell")
                faulted.append(None)
            except Exception as error:
                faulted.append(EnsembleOutcome(error=error))
        group = [cell for cell, outcome in zip(batch, faulted) if outcome is None]
        return _Batch(claims, batch, faulted, group, self._submit(group, executor))

    def _resolve_batch(
        self, batch: _Batch, executor: CellExecutor
    ) -> List[EnsembleOutcome]:
        """A submitted batch's outcomes; every cell gets one, failures included.

        A batch that fails as a whole — a worker crash, a timeout — reruns
        one cell per round trip, recomputing the results its other cells
        had, so the failure lands on the cell that caused it.
        """
        ran = iter(self._attempt(batch.group, executor, batch.submitted))
        return [next(ran) if outcome is None else outcome for outcome in batch.faulted]

    def _attempt(
        self,
        group: List[SweepCell],
        executor: CellExecutor,
        submitted: Optional[SubmittedCells] = None,
    ) -> List[EnsembleOutcome]:
        """Resolve ``group``'s round trip (``submitted``, or submitted now),
        or run one cell per round trip if the group fails as a whole."""
        try:
            return executor.resolve(
                self._submit(group, executor) if submitted is None else submitted
            )
        except Exception as error:
            if len(group) == 1:
                return [EnsembleOutcome(error=error)]
            return [
                outcome for cell in group for outcome in self._attempt([cell], executor)
            ]

    def _submit(self, group: List[SweepCell], executor: CellExecutor) -> SubmittedCells:
        """Submit one round trip of ``group``'s ensembles."""
        return executor.submit(
            [
                (cell, repetition_seeds(
                    self.spec.cell_seed(cell), self.spec.repetitions
                ))
                for cell in group
            ],
            self.spec.max_steps,
            self.spec.stability_window,
            self.spec.analytics,
        )

    @staticmethod
    def _emit_cell_spans(
        claims: List[Claim],
        outcomes: List[EnsembleOutcome],
        statistics: List[Optional[ConvergenceStatistics]],
        started: float,
        single_owner: bool,
    ) -> float:
        """One span per cell of a batch, its run spans adopted beneath it;
        returns where the batch's spans end.

        The spans tile the batch's time on the executor, so a traced sweep
        still splits into stepping and overhead.  The tiles start at
        ``started`` (when the batch was sent, or where the batch before it
        ended, whichever is later) and end when the batch returned: at the
        end of its last shipped span, or now if it shipped none.  The
        runner learns of a return only once its result thread has taken the
        outcomes in, which can lag the workers by milliseconds while they
        already run the next batch, so the shipped spans mark the return
        where they exist.  Cell i's tile runs from its first shipped span
        (``started``, for the first cell) to the next cell's start, and the
        last cell's tile runs on to the batch's end.  Each span is its tile
        widened to contain all of its cell's shipped spans, so on a pool of
        several workers, where neighbouring cells step at the same time,
        their spans overlap.  Cells are emitted in grid order, each after
        its runs, exactly as a serial sweep emits them.
        """
        shipped = [
            [
                (event["t0"], event["t0"] + event["dur"])
                for event in outcome.events
                if event.get("ev") == "span"
            ]
            for outcome in outcomes
        ]
        ended = max(
            (high for spans in shipped for _, high in spans),
            default=monotonic_time(),
        )
        starts = [min(started, ended)]
        for spans in shipped[1:]:
            first = min((low for low, _ in spans), default=starts[-1])
            starts.append(max(starts[-1], first))
        for index, (claim, outcome, stats) in enumerate(
            zip(claims, outcomes, statistics)
        ):
            end = starts[index + 1] if index + 1 < len(starts) else ended
            low = min([starts[index]] + [low for low, _ in shipped[index]])
            high = max([end] + [high for _, high in shipped[index]])
            if single_owner:
                name, attrs = "sweep-cell", {}
            else:
                name, attrs = "claim", {"attempt": claim.attempt, "owner": claim.owner}
            if stats is None:
                attrs["status"] = "error"
            else:
                attrs.update(
                    status="done", runs=stats.runs, converged=stats.converged
                )
            _obs_trace.span_event(
                name, name, low, high - low,
                children=outcome.events, cell=claim.cell, **attrs,
            )
        return ended

    def _result_extras(
        self,
        cell: SweepCell,
        executor: CellExecutor,
        results: List[SimulationResult],
    ) -> Dict[str, object]:
        """The analytics columns of a completed cell.

        Predicate accuracy is scored from the consensus values the results
        carry whenever the protocol registers a predicate — analytics on or
        off.  The trajectory-derived columns (convergence-time quantiles,
        top transitions) come from the in-worker metric dicts and are
        therefore only present under ``spec.analytics=True``.  Everything
        here is a deterministic pure function of the results, so the
        persisted columns inherit the store's byte-stability across backends
        and resume cycles.
        """
        predicate = executor.predicate(cell)
        extras: Dict[str, object] = {
            "accuracy": (
                accuracy_against_predicate(results, predicate, executor.inputs(cell))
                if predicate is not None
                else None
            )
        }
        if self.spec.analytics:
            # Imported lazily: repro.analytics imports this package for its
            # report CLI, so a module-level import would be circular.
            from ..analytics.ensemble import aggregate_run_metrics, top_transitions

            aggregated = aggregate_run_metrics(
                [result.analytics for result in results],
                quantile_points=(0.1, 0.5, 0.9),
            )
            rendered = None
            if aggregated.histogram is not None:
                names = [
                    transition.name
                    for transition in executor.protocol(cell).petri_net.transitions
                ]
                top = top_transitions(aggregated.histogram, names, k=3)
                # None (not "") when nothing fired: the CSV export cannot
                # distinguish an empty string from an absent value.
                rendered = (
                    "; ".join(f"{name}:{count}" for name, count in top)
                    if top else None
                )
            extras["consensus_quantiles"] = aggregated.stable_consensus_quantiles
            extras["top_transitions"] = rendered
        return extras

    def __repr__(self) -> str:
        return (
            f"SweepRunner({len(self.spec)} cells, backend={self.backend!r}, "
            f"store={self.store!r})"
        )


def _lost(fate: str, alive: bool) -> str:
    """A progress-line fate, naming a reclaimed lease as the cause of a loss."""
    return "lost (lease reclaimed)" if fate == "lost" and not alive else fate


def claim_worker(
    spec_json: str,
    store_path: str,
    owner: str,
    lease_seconds: Optional[float] = None,
    max_retries: Optional[int] = None,
    backoff_base: Optional[float] = None,
    backend: str = "process",
    max_workers: Optional[int] = None,
    start_method: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    heartbeat_interval: Optional[float] = None,
    fault_plan: Optional[str] = None,
    wait_for_stragglers: bool = True,
    idle_wait: float = 0.2,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ClaimReport:
    """One complete claim-loop runner: the ``workers`` launcher's unit.

    Designed to be a process entry point (``multiprocessing.Process`` target
    or a per-host shell invocation): opens its own
    :class:`~repro.sweep.dbstore.SqliteResultStore` connection on
    ``store_path``, registers the grid (idempotent and cross-process safe),
    drains it via :meth:`SweepRunner.run_claims`, and finishes with a store
    consistency check.

    **SIGTERM drains gracefully**: the first signal sets a stop flag — the
    loop claims nothing further, the batches in flight (up to two under
    ``backend="process"``: the executing one and the one queued behind it)
    complete and commit, then the loop exits (its report says
    ``stopped=True``).  Only SIGKILL loses a claim, and that is exactly the
    case the lease-expiry recovery covers.

    ``fault_plan`` optionally installs a per-runner deterministic fault plan
    (see :mod:`repro.sweep.faults`), so a launcher can aim chaos at one
    runner of a fleet.
    """
    import signal

    if fault_plan is not None:
        install_fault_plan(fault_plan)

    # Launcher-spawned runner processes honour REPRO_TRACE themselves: the
    # parent's installed tracer does not survive a spawn, and each runner
    # appends whole lines to the shared trace file under its own pid.
    _obs_trace.tracer_from_env()

    stop_event = threading.Event()

    def _drain(signum: int, frame: object) -> None:
        stop_event.set()

    try:
        previous = signal.signal(signal.SIGTERM, _drain)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        previous = None

    spec = SweepSpec.from_json(spec_json)
    store = SqliteResultStore(
        store_path,
        lease_seconds=(
            DEFAULT_LEASE_SECONDS if lease_seconds is None else lease_seconds
        ),
        max_retries=DEFAULT_MAX_RETRIES if max_retries is None else max_retries,
        backoff_base=(
            DEFAULT_BACKOFF_BASE if backoff_base is None else backoff_base
        ),
    )
    try:
        runner = SweepRunner(
            spec,
            store,
            backend=backend,
            max_workers=max_workers,
            start_method=start_method,
        )
        report = runner.run_claims(
            owner,
            max_cells=max_cells,
            cell_timeout=cell_timeout,
            heartbeat_interval=heartbeat_interval,
            wait_for_stragglers=wait_for_stragglers,
            idle_wait=idle_wait,
            stop_event=stop_event,
            progress=progress,
        )
        _verify_claim_consistency(store, owner)
        return report
    finally:
        store.close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _verify_claim_consistency(store: SqliteResultStore, owner: str) -> None:
    """The runner's exit invariant: it left nothing of its own behind.

    After a drain (graceful or straggler-waited), no row may still be
    ``running`` under this owner's id — a leftover would mean a claim was
    neither committed, failed, nor released, i.e. a bookkeeping bug, which
    must fail the runner loudly rather than leave a row to time out.
    """
    leftovers = [
        row["cell"]
        for row in store.rows()
        if row["status"] == "running"
        and store.bookkeeping(str(row["cell"])).get("owner") == owner
    ]
    if leftovers:
        raise StoreCorruptionError(
            f"runner {owner!r} exited holding live claims: {leftovers!r}"
        )


def to_experiment_table(
    store: SqliteResultStore,
    experiment_id: str = "SWEEP",
    title: Optional[str] = None,
):
    """Render a store as an :class:`~repro.experiments.harness.ExperimentTable`.

    The bridge between the sweep subsystem and the experiment harness: E12
    returns one, and the CLI's ``show`` command renders one.
    """
    from ..experiments.harness import ExperimentTable

    table = ExperimentTable(
        experiment_id=experiment_id,
        title=title or "sweep results",
        columns=list(COLUMNS),
    )
    for row in store.rows():
        table.add_row(**row)
    return table
