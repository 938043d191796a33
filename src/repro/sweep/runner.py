"""Resumable execution of sweep grids: one claim loop, two owners.

The :class:`SweepRunner` runs one seeded ensemble per cell of a
:class:`~repro.sweep.spec.SweepSpec` against a
:class:`~repro.sweep.dbstore.SqliteResultStore`, through one loop body:
claim the next open cell in grid order, execute it on a shared
:class:`~repro.sweep.executor.CellExecutor`, commit the row, repeat.

* :meth:`SweepRunner.run` is the single-owner case: every cell is registered
  up front (status ``created``), **resume is the default** — ``done`` cells
  are skipped, everything else (``created``, a stale ``running`` from a
  killed run, and — unless ``retry_errors=False`` — ``error``) is (re)run —
  and a failing cell gets its terminal ``error`` row at once;
* :meth:`SweepRunner.run_claims` is the multi-runner case: any number of
  processes drain one store, heartbeating their leases, retrying failed
  cells with backoff and adopting the cells of killed peers;
* under ``backend="process"`` every cell fans its repetitions over **one
  shared persistent** :class:`~repro.simulation.batch.WorkerPool`: worker
  processes are created once per loop and cache one initialized simulator
  per (protocol, scheduler, engine) spec, so the grid pays protocol
  pickling and stepper compilation once per spec per worker, not once per
  cell;
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
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Counter as CounterType, Dict, List, Optional

from ..config import monotonic_time
from ..obs import trace as _obs_trace
from ..obs.registry import get_registry
from ..simulation.batch import WorkerPool, repetition_seeds
from ..simulation.simulator import SimulationResult
from ..simulation.statistics import accuracy_against_predicate, summarize_runs
from .dbstore import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_RETRIES,
    Claim,
    SqliteResultStore,
)
from .executor import CellExecutor
from .faults import fault_point, install_fault_plan
from .spec import SweepCell, SweepSpec
from .store import COLUMNS, STATUS_DONE, STATUS_ERROR, StoreCorruptionError

__all__ = [
    "CellExecutionError",
    "ClaimReport",
    "SweepReport",
    "SweepRunner",
    "claim_worker",
    "to_experiment_table",
]

_BACKENDS = ("serial", "process")

#: The claim owner of :meth:`SweepRunner.run`, the store's only runner.
_RUN_OWNER = "run"


class CellExecutionError(RuntimeError):
    """A grid cell's ensemble failed (crash, timeout, or protocol error).

    The claim loop's unit of containment: every failure inside
    :meth:`SweepRunner._execute` — a raising protocol builder, a worker
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


class _HeartbeatPump:
    """A daemon thread extending the claim its loop currently holds.

    One pump serves a whole claim loop: :meth:`hold` hands it the claim
    being executed, :meth:`release` takes it back before the result is
    committed or the failure recorded.  Both swap the claim under the lock
    a beat holds while it runs, so no beat can extend (or misreport) a
    claim that has already been committed or failed.

    While a claim is held the pump beats every ``interval`` seconds
    (default: a third of the store's lease); each beat goes through the
    store's ``heartbeat`` — and therefore through the ``heartbeat-loss``
    fault point, which is how the partition chaos tests starve a lease under
    a live runner.  A beat returning False (the claim is gone) clears
    :attr:`claim_alive` and stops beating for that claim, so the claim loop
    can report the eventual lost commit with a cause.

    Lease trouble is never silent: a beat that lands late (more than two
    intervals since the previous one — a starved thread or a blocked store),
    a gap that eats into the final beat of the lease window, and a beat
    whose claim is already gone each emit a structured ``warning`` event
    through :mod:`repro.obs.trace` and bump the
    ``repro_sweep_heartbeat_warnings_total{reason=...}`` counter; the
    reasons are also kept on :attr:`warnings`.
    """

    def __init__(self, store: SqliteResultStore, interval: float):
        self._store = store
        self._interval = max(0.05, interval)
        self._lock = threading.Lock()
        self._claim: Optional[Claim] = None
        self._last = 0.0
        self._stop = threading.Event()
        self.claim_alive = True
        self.warnings: List[str] = []
        self._warn_counter = get_registry().counter(
            "repro_sweep_heartbeat_warnings_total",
            "Heartbeat-pump lease warnings by reason.",
            labelnames=("reason",),
        )
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def __enter__(self) -> "_HeartbeatPump":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def hold(self, claim: Claim) -> None:
        """Start extending ``claim``'s lease."""
        with self._lock:
            self._claim = claim
            self._last = monotonic_time()
            self.claim_alive = True

    def release(self) -> bool:
        """Stop extending the held claim; returns whether it stayed alive."""
        with self._lock:
            self._claim = None
            return self.claim_alive

    def _warn(self, reason: str, claim: Claim, **attrs: object) -> None:
        self.warnings.append(reason)
        self._warn_counter.inc(reason=reason)
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
                claim = self._claim
                if claim is None:
                    continue
                gap = monotonic_time() - self._last
                if gap > 2.0 * self._interval:
                    # At least one beat went missing (a starved thread, a
                    # store call that blocked) — the lease burned down
                    # unattended.
                    self._warn("skipped", claim, gap=gap)
                if lease is not None and gap > lease - self._interval:
                    # Within one beat of expiry: the next hiccup loses the
                    # claim.
                    self._warn("lease-at-risk", claim, gap=gap, lease=lease)
                if not self._store.heartbeat(claim):
                    self._warn("lost", claim)
                    self.claim_alive = False
                    self._claim = None
                    continue
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
        ``"process"`` (default) fans each cell's repetitions over a shared
        persistent :class:`~repro.simulation.batch.WorkerPool`;
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
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (expected one of {_BACKENDS})"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
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
            Optional callback receiving one human-readable line per cell.
        """
        if on_error not in ("raise", "continue"):
            raise ValueError(
                f"on_error must be 'raise' or 'continue', got {on_error!r}"
            )
        cells = self._register(max_cells)
        index_of = {cell.cell_id: index for index, cell in enumerate(cells)}
        skipped = skipped_errors = 0
        for row in self.store.rows():
            status = row["status"]
            index = index_of.get(str(row["cell"]))
            if index is None or not (
                status == STATUS_DONE
                or (status == STATUS_ERROR and not self.retry_errors)
            ):
                continue
            skipped += 1
            if status == STATUS_ERROR:
                skipped_errors += 1
            if progress is not None:
                progress(
                    f"[{index + 1}/{len(cells)}] {row['cell']} skipped ({status})"
                )
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

        Each iteration atomically claims the next open cell, executes its
        ensemble (under a heartbeat pump extending the lease), and commits
        the result through the owner-guarded ``finish_claim``.  A failing
        cell — including worker crashes and ensemble timeouts, both wrapped
        in :class:`CellExecutionError` — is recorded for retry with
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
            crash containment and counts as a cell failure.  Only the
            process backend can interrupt an ensemble, so a serial runner
            rejects it with :class:`ValueError` before registering any cell.
        heartbeat_interval:
            Seconds between lease extensions (default: a third of the
            store's ``lease_seconds``).
        wait_for_stragglers:
            When no cell is claimable but unresolved rows remain (live
            claims of other runners, rows in backoff), keep polling every
            ``idle_wait`` seconds until the grid drains (default) instead of
            returning.  Waiting runners also adopt expired leases, so a
            SIGKILLed peer's cells are re-executed without any restart.
        stop_event:
            Optional external stop flag: the loop finishes the cell in
            flight, then exits without claiming further — the graceful
            SIGTERM drain of :func:`claim_worker`.
        progress:
            Optional callback receiving one line per processed claim.
        """
        if idle_wait <= 0:
            raise ValueError(f"idle_wait must be positive, got {idle_wait}")
        if cell_timeout is not None and self.backend == "serial":
            raise ValueError(
                "cell_timeout needs backend='process': a serial runner cannot "
                "interrupt a cell's ensemble"
            )
        cells = self._register(max_cells)
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

    def _register(self, max_cells: Optional[int]) -> List[SweepCell]:
        """Check the store and ``max_cells``, then register every grid cell."""
        claim_api = ("claim_next", "finish_claim", "fail_claim", "heartbeat")
        if not all(hasattr(self.store, name) for name in claim_api):
            raise TypeError(
                "the sweep runner requires a claim-capable store (a .sqlite "
                f"path / SqliteResultStore), got {type(self.store).__name__}"
            )
        if max_cells is not None and max_cells < 0:
            raise ValueError(f"max_cells must be non-negative, got {max_cells}")
        cells = self.spec.cells()
        for cell in cells:
            self.store.ensure(
                cell.cell_id, cell.keyfields(), self.spec.cell_seed(cell)
            )
        return cells

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
        """Claim, execute and commit cells until none is left for ``owner``.

        The one loop body behind :meth:`run` (``single_owner``: failures
        park at once, ``raise_errors`` re-raises them, spans are
        ``sweep-cell``) and :meth:`run_claims` (failures retry with backoff,
        spans are ``claim``).  With ``idle_wait`` set, a loop that finds no
        claimable cell polls until the grid drains.  Returns counts of
        ``executed`` cells, failure fates (``retry`` / ``parked`` /
        ``lost``) and whether a ``stopped`` request ended the loop.
        """
        index_of = {cell.cell_id: index for index, cell in enumerate(cells)}
        tally: CounterType[str] = Counter()
        processed = 0
        executor: Optional[CellExecutor] = None
        if heartbeat_interval is None:
            heartbeat_interval = self.store.lease_seconds / 3.0
        # The registry mirror of the loop's counters: cumulative across
        # claim loops in the process, scrapeable while the loop runs.
        claim_counter = get_registry().counter(
            "repro_sweep_claims_total",
            "Claim outcomes processed by the sweep claim loop.",
            labelnames=("outcome",),
        )
        try:
            with _HeartbeatPump(self.store, heartbeat_interval) as pump:
                while max_cells is None or processed < max_cells:
                    if stop_event is not None and stop_event.is_set():
                        tally["stopped"] = 1
                        break
                    claim = self.store.claim_next(owner)
                    if claim is None:
                        if idle_wait is None or self.store.unresolved_count() == 0:
                            break
                        # Rows remain but none is eligible right now: another
                        # runner's live claim, or a backoff window.  Poll —
                        # an expired lease or due retry becomes claimable
                        # here, which is how surviving runners adopt a killed
                        # peer's cells without any restart.
                        time.sleep(idle_wait)
                        continue
                    index = index_of.get(claim.cell)
                    if index is None:
                        # Not this spec's cell: the store holds a different
                        # (or larger) grid.  Hand the claim back and refuse
                        # to mix.
                        self.store.release_claim(claim)
                        raise StoreCorruptionError(
                            f"claimed cell {claim.cell!r} is not part of this "
                            "sweep spec; the store holds a different grid"
                        )
                    cell = cells[index]
                    processed += 1
                    if executor is None:
                        pool = None
                        if self.backend == "process":
                            pool = WorkerPool(
                                max_workers=self.max_workers,
                                start_method=self.start_method,
                            )
                        executor = CellExecutor(pool, cell_timeout)
                    if single_owner:
                        prefix = f"[{index + 1}/{len(cells)}] {claim.cell}"
                        span = _obs_trace.span(
                            "sweep-cell", kind="sweep-cell", cell=claim.cell
                        )
                    else:
                        prefix = f"[{owner}] {claim.cell} attempt {claim.attempt}"
                        span = _obs_trace.span(
                            "claim", kind="claim", cell=claim.cell,
                            attempt=claim.attempt, owner=owner,
                        )
                    with span as cell_span:
                        pump.hold(claim)
                        try:
                            results = self._execute(cell, executor)
                        except CellExecutionError as error:
                            alive = pump.release()
                            cell_span.set(status="error")
                            record = (
                                self.store._park_claim if single_owner
                                else self.store.fail_claim
                            )
                            fate = record(claim, str(error))
                            tally[fate] += 1
                            claim_counter.inc(
                                outcome="retried" if fate == "retry" else fate
                            )
                            if progress is not None:
                                progress(
                                    f"{prefix} FAILED ({_lost(fate, alive)}): "
                                    f"{error}"
                                )
                            if raise_errors:
                                raise error.cause from None
                            continue
                        alive = pump.release()
                        statistics = summarize_runs(results)
                        cell_span.set(
                            status="done",
                            runs=statistics.runs,
                            converged=statistics.converged,
                        )
                        committed = self.store.finish_claim(
                            claim, statistics,
                            **self._result_extras(cell, executor, results),
                        )
                    outcome = "executed" if committed else "lost"
                    tally[outcome] += 1
                    claim_counter.inc(outcome=outcome)
                    if progress is not None:
                        progress(
                            f"{prefix} "
                            f"{'done' if committed else _lost('lost', alive)} "
                            f"(converged {statistics.converged}/{statistics.runs}, "
                            f"mean steps {statistics.mean_steps:.1f})"
                        )
        finally:
            if executor is not None and executor.pool is not None:
                executor.pool.close()
        return tally

    def _execute(
        self, cell: SweepCell, executor: CellExecutor
    ) -> List[SimulationResult]:
        """Run a claimed cell, wrapping any failure in the typed cell error.

        The wrapped message renders as ``TypeName: text``, which is what the
        cell's ``error`` row records.  The ``mid-cell`` fault point models a
        runner dying (or erroring) between claiming and executing: the claim
        is held, no result exists.
        """
        try:
            fault_point("mid-cell")
            return executor.run(
                cell,
                repetition_seeds(self.spec.cell_seed(cell), self.spec.repetitions),
                self.spec.max_steps,
                self.spec.stability_window,
                self.spec.analytics,
            )
        except Exception as error:
            raise CellExecutionError(cell.cell_id, error) from error

    def _result_extras(
        self,
        cell: SweepCell,
        executor: CellExecutor,
        results: List[SimulationResult],
    ) -> Dict[str, object]:
        """The analytics columns of a completed cell.

        Predicate accuracy is scored whenever the protocol registers a
        predicate — analytics on or off.  With analytics enabled the workers
        already scored each run against the expected predicate value (the
        spec's ``expected_output``), so the aggregated accuracy is reused;
        without analytics it is recomputed here from the consensus values
        the results carry.  The trajectory-derived columns (convergence-time
        quantiles, top transitions) come from the in-worker metric dicts and
        are therefore only present under ``spec.analytics=True``.
        Everything here is a deterministic pure function of the results, so
        the persisted columns inherit the store's byte-stability across
        backends and resume cycles.
        """
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
            return {
                "accuracy": aggregated.accuracy,
                "consensus_quantiles": aggregated.stable_consensus_quantiles,
                "top_transitions": rendered,
            }
        predicate = executor.predicate(cell)
        return {
            "accuracy": (
                accuracy_against_predicate(results, predicate, executor.inputs(cell))
                if predicate is not None
                else None
            )
        }

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
    cell in flight completes and commits, then the loop exits without
    claiming further (its report says ``stopped=True``).  Only SIGKILL loses
    a claim, and that is exactly the case the lease-expiry recovery covers.

    ``fault_plan`` optionally installs a per-runner deterministic fault plan
    (see :mod:`repro.sweep.faults`) — passed explicitly rather than through
    the environment so a launcher can aim chaos at one runner of a fleet.
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
