"""Batch execution of simulation ensembles, in-process or on worker processes.

The convergence experiments rest on ensembles of independent stochastic runs
(:meth:`Simulator.run_many <repro.simulation.simulator.Simulator.run_many>`).
Each repetition is seeded from a master generator and runs independently, so
the ensemble is embarrassingly parallel — a :class:`WorkerPool` fans it out
over ``multiprocessing`` worker processes while keeping the results
**bit-identical to the in-process order**:

* the per-repetition seeds are derived from the master seed up front, before
  any scheduling decision, so neither the pool nor its worker count can
  change which seed a repetition receives,
* repetitions are dispatched to workers in contiguous, index-ordered chunks
  (about four per worker) through ``Pool.map_async``, which returns the
  chunks' results in submission order, so the flattened result list is in
  repetition order,
* each worker process unpickles a protocol once (steppers and dense-net
  caches are dropped on pickling and regenerated in the worker — see
  ``CompiledNet.__getstate__``), builds one
  :class:`~repro.simulation.simulator.Simulator` for it on first use, and
  reuses one dense counts buffer across its whole share of the ensemble.

Entry points:

* :func:`repetition_seeds` — the per-repetition seeds of an ensemble with a
  given master seed, the same ones ``Simulator(protocol,
  seed=master_seed).run_many`` draws,
* :func:`run_ensemble` — functional core: run a list of seeds in-process,
* :class:`WorkerPool` — the one route to worker processes, a persistent
  pool decoupled from any one protocol: worker processes are created once
  and **cache one initialized simulator per distinct (protocol, scheduler,
  engine) spec**, so a single pool serves ensembles of many different
  protocols back to back and repeated ensembles stop paying pool startup
  and stepper compilation.
  :meth:`WorkerPool.dispatch` sends several :class:`Ensemble` values, of
  any specs, in one round trip without waiting for them, and
  :meth:`WorkerPool.resolve` waits for their outcomes;
  :meth:`WorkerPool.run_seeds` is the two in one call for one ensemble.
  The sweep harness (:mod:`repro.sweep`) runs its cells in batches on one,
  dispatching the next while the last executes, and the job server
  (:mod:`repro.serve`) its jobs.

:func:`run_ensemble` and ``Simulator.run_many`` run the same code path
without processes and are the reference ordering; ``WorkerPool.run_seeds``
must agree with them exactly on the same seeds, regardless of pool reuse
(the test suite and the E10 experiment both assert this).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import monotonic_time
from ..core.configuration import Configuration
from ..core.protocol import Protocol
from ..obs import trace as _obs_trace
from .scheduler import Scheduler
from .simulator import SimulationResult, Simulator, _check_max_steps, _check_seeds

__all__ = [
    "Dispatch",
    "Ensemble",
    "EnsembleOutcome",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerTimeoutError",
    "repetition_seeds",
    "run_ensemble",
]

#: How often the dispatch loop checks a pending ensemble for completion,
#: worker death, or timeout (seconds; uses the monotonic clock).
_POLL_INTERVAL = 0.05
#: After noticing a dead worker, how long to keep waiting for the map to
#: complete anyway — the death may belong to a worker whose tasks already
#: finished (or to pool shutdown races), in which case the results arrive
#: and no error is raised.
_CRASH_GRACE = 0.5


class WorkerCrashError(RuntimeError):
    """A pool worker process died mid-ensemble (its task is unrecoverable).

    ``multiprocessing.Pool`` has no broken-pool detection: a worker killed by
    the OS (OOM, SIGKILL, a segfaulting extension) silently loses its
    in-flight chunk and the ``map`` blocks forever.  The pool dispatch loop
    watches the worker processes instead and raises this typed error, carrying
    the spec and seed context (``protocol_name``, ``seeds``, ``exitcodes``) so
    the sweep claim loop can convert it into a retry-or-park decision for the
    affected cell instead of hanging — or killing — the whole runner.
    """

    def __init__(
        self, protocol_name: str, seeds: Sequence[int], exitcodes: Sequence[int]
    ) -> None:
        self.protocol_name = protocol_name
        self.seeds: Tuple[int, ...] = tuple(seeds)
        self.exitcodes: Tuple[int, ...] = tuple(exitcodes)
        super().__init__(
            f"worker process died (exitcodes {self.exitcodes}) while running "
            f"a {len(self.seeds)}-seed ensemble of protocol "
            f"{protocol_name!r}; the pool was torn down and will be rebuilt "
            "on next use"
        )


class WorkerTimeoutError(RuntimeError):
    """An ensemble exceeded its wall-clock budget and the pool was torn down.

    Hung cells (a livelocked scheduler, a pathological parameter corner)
    would otherwise stall a sweep runner forever; the claim loop treats this
    exactly like a crash: retry the cell with backoff, park it when retries
    are exhausted.  Carries the same ``protocol_name`` / ``seeds`` context as
    :class:`WorkerCrashError` plus the exceeded ``timeout``.
    """

    def __init__(
        self, protocol_name: str, seeds: Sequence[int], timeout: float
    ) -> None:
        self.protocol_name = protocol_name
        self.seeds: Tuple[int, ...] = tuple(seeds)
        self.timeout = float(timeout)
        super().__init__(
            f"ensemble of protocol {protocol_name!r} ({len(self.seeds)} seeds) "
            f"did not finish within {timeout} s; the pool was torn down and "
            "will be rebuilt on next use"
        )


def repetition_seeds(master_seed: Optional[int], n: int) -> List[int]:
    """The ``n`` per-repetition seeds of an ensemble with ``master_seed``.

    Drawn exactly like ``Simulator(protocol, seed=master_seed).run_many``
    draws them on its first call, so ``WorkerPool.run_seeds(protocol,
    inputs, repetition_seeds(s, n))`` and ``Simulator(protocol,
    seed=s).run_many(inputs, n)`` return the same ensemble.  Sweep cells and
    served jobs derive their seeds here from the cell seed.
    """
    if n < 0:
        raise ValueError(f"repetitions must be non-negative, got {n}")
    master = random.Random(master_seed)
    return [master.getrandbits(64) for _ in range(n)]


# ----------------------------------------------------------------------
# Shared option validation and pickling
# ----------------------------------------------------------------------
def _dumps_for_workers(payload: object, what: str = "protocol and scheduler") -> bytes:
    """Pickle ``payload`` (``what`` names it) for transport to worker
    processes, with a clear error."""
    try:
        return pickle.dumps(payload)
    except (pickle.PicklingError, TypeError, AttributeError) as error:
        raise ValueError(
            f"worker processes need a picklable {what} ({error}); "
            "run_ensemble and Simulator.run_many run it in-process instead"
        ) from error


def _validate_analytics(analytics: Any) -> None:
    """Reject an analytics spec without ``extract(result, protocol)``
    (canonically an :class:`~repro.analytics.metrics.AnalyticsSpec`) at the
    call site, before any run."""
    if analytics is not None and not callable(getattr(analytics, "extract", None)):
        raise ValueError(
            "analytics must provide an extract(result, protocol) method "
            "(use repro.analytics.AnalyticsSpec), got "
            f"{type(analytics).__name__}"
        )


#: Per-process simulator cache keyed by the (protocol, scheduler, engine)
#: spec pickle.  Each worker builds a simulator the first time it sees a spec
#: and reuses it for every later chunk of that spec — persistent pools keep
#: this cache alive across ensembles (and, in a sweep, across grid cells of
#: different protocols), which is the whole point of keeping the pool up.
_WORKER_SIMULATORS: dict = {}


def _worker_simulator(spec_bytes: bytes) -> Simulator:
    """The worker's cached simulator for a spec, built on first sight.

    The spec travels as an explicit pickle blob (not fork-inherited memory) so
    the pickling path is exercised under every multiprocessing start method,
    and each worker compiles the steppers of a given spec exactly once.  A
    spec whose :class:`Simulator` constructor raises fails its task, and the
    error surfaces from ``Pool.map`` in the caller; the worker lives on.
    """
    simulator = _WORKER_SIMULATORS.get(spec_bytes)
    if simulator is None:
        protocol, scheduler, engine = pickle.loads(spec_bytes)
        simulator = Simulator(protocol, scheduler=scheduler, engine=engine)
        _WORKER_SIMULATORS[spec_bytes] = simulator
    return simulator


def _run_worker_task(
    task: Tuple[Any, ...]
) -> Tuple[List[SimulationResult], Optional[List[dict]], Optional[BaseException]]:
    """Run one chunk of seeds on the worker's cached simulator for the spec.

    ``task`` carries the spec alongside the per-ensemble parameters (initial
    configuration, step budget, recording and analytics knobs), the chunk,
    and a tracing flag, so one pool can serve ensembles of different
    protocols and parameters.  With an analytics spec the metric extraction
    happens *here*, in the worker: full trajectories are recorded,
    consumed and dropped locally, and only the compact metric dicts travel
    back through the pool.

    Returns ``(results, events, error)``.  A chunk that raises returns its
    exception as ``error`` instead of failing the map, so one bad ensemble
    of a batch cannot take its neighbours' results down with it.  When the
    dispatching process had tracing active it sets the task's trace flag,
    and the worker buffers its span events (one ``chunk`` span wrapping
    per-run ``run`` events) and ships them back for the parent to
    :func:`repro.obs.trace.adopt` — the flag travels in the task rather than
    the environment so programmatic tracing propagates under every start
    method.  ``events`` is ``None`` otherwise.
    """
    (spec_bytes, configuration, seeds, max_steps, stability_window,
     record, analytics, trace) = task
    events: Optional[List[dict]] = None
    try:
        simulator = _worker_simulator(spec_bytes)
        if not trace:
            return (
                simulator._run_seeds(
                    configuration, list(seeds), max_steps, stability_window,
                    record, analytics,
                ),
                None,
                None,
            )
        with _obs_trace.capture_events() as events:
            with _obs_trace.span("chunk", kind="chunk", seeds=len(seeds)):
                results = simulator._run_seeds(
                    configuration, list(seeds), max_steps, stability_window,
                    record, analytics,
                )
        return results, events, None
    except Exception as error:
        # Pickled with its traceback text, which the parent gets back as the
        # error's ``__cause__`` — what ``Pool.map`` does for a raising task.
        # (A pool worker has the module loaded already; importing it at the
        # top would load the pool machinery into every in-process user.)
        from multiprocessing.pool import ExceptionWithTraceback

        return [], events, ExceptionWithTraceback(error, error.__traceback__)


@dataclass(frozen=True)
class Ensemble:
    """One ensemble of a :meth:`WorkerPool.dispatch` round trip.

    The fields are the arguments of :meth:`WorkerPool.run_seeds`, which
    documents them; ``seeds`` are pre-derived (see :func:`repetition_seeds`).
    """

    protocol: Protocol
    inputs: Configuration
    seeds: Sequence[int]
    scheduler: Optional[Scheduler] = None
    engine: str = "auto"
    max_steps: int = 100000
    stability_window: int = 200
    record_trajectory: bool = False
    analytics: Any = None
    spec_bytes: Optional[bytes] = None


@dataclass
class EnsembleOutcome:
    """What one ensemble of a batch came back with.

    Exactly one of ``results`` (index-aligned with the ensemble's seeds) and
    ``error`` (what validating, building or running the ensemble raised) is
    set.  ``events`` are the worker spans shipped with the ensemble's chunks,
    in seed order, not yet adopted into this process's trace (empty unless
    tracing was active).
    """

    results: Optional[List[SimulationResult]] = None
    error: Optional[BaseException] = None
    events: List[Dict[str, Any]] = field(default_factory=list)

    def unwrap(self) -> List[SimulationResult]:
        """The results, or the ensemble's error raised."""
        if self.error is not None:
            raise self.error
        assert self.results is not None
        return self.results


class Dispatch:
    """A batch of ensembles on a :class:`WorkerPool`, not yet resolved.

    :meth:`WorkerPool.dispatch` returns one; :meth:`WorkerPool.resolve`
    waits for its outcomes and :meth:`WorkerPool.cancel` drops it.  Until
    then its tasks execute, or wait behind an earlier dispatch's, on the
    pool's workers.  ``sent`` is when its tasks last went to the workers,
    by :func:`repro.config.monotonic_time`.
    """

    def __init__(
        self,
        outcomes: List[EnsembleOutcome],
        tasks: List[tuple],
        owners: List[EnsembleOutcome],
        names: str,
        seeds: List[int],
        timeout: Optional[float],
    ) -> None:
        self.outcomes = outcomes
        self.chunks = len(tasks)
        #: Seconds spent waiting for the dispatch lock (concurrent callers).
        self.lock_wait = 0.0
        self.sent = 0.0
        self._returned: Optional[float] = None
        self._tasks = tasks
        self._owners = owners
        self._names = names
        self._seeds = seeds
        self._timeout = timeout
        self._held = False
        self._pool: Any = None
        self._workers: List[Any] = []
        self._pending: Any = None
        self._ahead: Optional["Dispatch"] = None

    def _came_back(self, _: object) -> None:
        # The map's callback, run before its result is marked ready.
        self._returned = monotonic_time()

    def _deadline(self) -> Optional[float]:
        """When its ``timeout`` runs out: counted from ``sent`` or from the
        return of the dispatch its tasks wait behind, whichever is later,
        so time spent queued is never charged to it; ``None`` while it
        still waits or has no timeout."""
        if self._timeout is None:
            return None
        start = self.sent
        if self._ahead is not None:
            if self._ahead._returned is None:
                return None
            start = max(start, self._ahead._returned)
        return start + self._timeout


# ----------------------------------------------------------------------
# The shared persistent pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A persistent worker pool shared across protocols and ensembles.

    The one pool API for repeated ensembles: one set of worker processes
    serves ensembles of *many* different protocols — one protocol's
    ensembles back to back (``run_seeds`` with :func:`repetition_seeds`),
    every cell of a sweep grid (:mod:`repro.sweep`), or every job of the
    server (:mod:`repro.serve`).  Each worker process caches one initialized
    :class:`~repro.simulation.simulator.Simulator` per distinct
    ``(protocol, scheduler, engine)`` spec, keyed by the spec's pickle: the
    first chunk of a spec pays protocol unpickling and stepper compilation,
    every later chunk of that spec — whichever ensemble or grid cell it
    belongs to — reuses the cached simulator::

        with WorkerPool(max_workers=4) as pool:
            first = pool.run_seeds(protocol, inputs, repetition_seeds(1, 64))
            second = pool.run_seeds(protocol, inputs, repetition_seeds(2, 64))

    Results are bit-identical to :func:`run_ensemble` on the same seed
    list: the pool only transports pre-derived seeds and returns chunks in
    submission order.

    Parameters
    ----------
    max_workers:
        Process count (default: the CPU count).
    start_method:
        Optional ``multiprocessing`` start method; ``None`` uses the
        platform default.

    The worker processes are created lazily, on the first dispatch, and
    build their simulators lazily too, per spec on first sight; release
    them with :meth:`close` or a ``with`` block.  A closed pool raises
    :class:`RuntimeError` on further use.

    **Dispatch and resolve.**  :meth:`dispatch` sends a batch of ensembles
    to the workers and returns at once; :meth:`resolve` waits for its
    outcomes.  A caller may dispatch a batch while an earlier one still
    runs, and the workers take it up as soon as they are free; the sweep
    claim loop keeps two batches on its pool this way.  :meth:`run_seeds`
    is the blocking one-ensemble case.  A worker crash or an expired
    timeout tears the worker processes down under the batch being
    resolved; a batch that was waiting behind it is sent again to fresh
    workers when it is resolved.  Only a crash with no other batch on the
    workers is pinned on the batch being resolved: while another shares
    them, its chunks may have run on the dead worker, so the batch is sent
    again alone first.

    **Thread safety.**  The pool is safe for concurrent callers (the
    ``repro.serve`` job server dispatches blocking :meth:`run_seeds` calls
    from several executor threads at once).  Two locks, always acquired in
    the order *dispatch → lifecycle*:

    * a re-entrant *dispatch* lock is held from each :meth:`dispatch` until
      its :meth:`resolve` or :meth:`cancel`, so the batches of one thread
      may queue on the workers, and another thread's :meth:`run_seeds`
      waits until they are all resolved rather than interleave with them
      (interleaving was the original race: one caller's crash recovery
      could tear down the pool while another caller's map was in flight on
      it).  Dispatch and resolve a batch on the same thread,
    * a *lifecycle* lock serializes pool creation and teardown
      (:meth:`_ensure_pool` / :meth:`_abandon_pool` / :meth:`close` /
      :meth:`terminate`), so a lazily-building caller can never observe a
      half-built or half-torn-down ``multiprocessing`` pool.

    :meth:`close` takes the dispatch lock first and therefore *waits* for
    other threads' batches to be resolved (a graceful drain);
    :meth:`terminate` deliberately does not — it is the kill switch and
    only takes the lifecycle lock.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        self.workers = max_workers if max_workers is not None else os.cpu_count() or 1
        self.start_method = start_method
        self._pool = None
        self._closed = False
        # Lock order: dispatch before lifecycle (see the class docstring).
        self._dispatch_lock = threading.RLock()
        self._lifecycle_lock = threading.RLock()
        #: The unresolved dispatches, in dispatch order.
        self._queued: List[Dispatch] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called (the pool is spent)."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "WorkerPool is closed; construct a new pool for further ensembles"
            )

    def _ensure_pool(self) -> Any:
        with self._lifecycle_lock:
            if self._pool is None:
                context = multiprocessing.get_context(self.start_method)
                self._pool = context.Pool(processes=self.workers)
            return self._pool

    def close(self) -> None:
        """Shut down the worker processes and mark the pool spent (idempotent).

        Waits until other threads' batches are resolved (the dispatch lock)
        before tearing down — a concurrent :meth:`run_seeds` completes
        normally rather than losing its workers mid-map.
        """
        with self._dispatch_lock:
            with self._lifecycle_lock:
                if self._pool is not None:
                    self._pool.close()
                    self._pool.join()
                    self._pool = None
                self._closed = True

    def terminate(self) -> None:
        """Kill the worker processes without waiting for in-flight tasks."""
        with self._lifecycle_lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
            self._closed = True

    def _abandon_pool(self) -> None:
        """Tear down a compromised pool but keep this :class:`WorkerPool` open.

        Called when a worker died or an ensemble timed out: the underlying
        ``multiprocessing`` pool (whose result queues may reference lost
        tasks) is terminated, and the *next* :meth:`run_seeds` lazily builds
        a fresh one — the containment contract the sweep claim loop relies
        on, where one crashed cell must not spend the runner's pool.
        """
        with self._lifecycle_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:  # pragma: no cover - platform-dependent teardown
                pass

    def __enter__(self) -> "WorkerPool":
        self._check_open()
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        pool = getattr(self, "_pool", None)
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Ensembles
    # ------------------------------------------------------------------
    def run_seeds(
        self,
        protocol: Protocol,
        inputs: Configuration,
        seeds: Sequence[int],
        scheduler: Optional[Scheduler] = None,
        engine: str = "auto",
        max_steps: int = 100000,
        stability_window: int = 200,
        record_trajectory: bool = False,
        analytics: Any = None,
        spec_bytes: Optional[bytes] = None,
        timeout: Optional[float] = None,
    ) -> List[SimulationResult]:
        """Run one repetition per seed over the pool (index-aligned results).

        The one-ensemble case of :meth:`dispatch` and :meth:`resolve`,
        traced as one ``dispatch`` span with the worker spans adopted
        beneath it.

        ``analytics`` optionally ships a metric-extraction spec (see
        :class:`~repro.analytics.metrics.AnalyticsSpec`) to the workers:
        each result comes back with a compact ``result.analytics`` dict,
        extracted in the worker so the full trajectories never cross the
        pool.  ``spec_bytes`` optionally supplies the pre-pickled
        ``(protocol, scheduler, engine)`` spec, letting repeat callers (the
        cell executor's per-spec cache) skip re-pickling — and guaranteeing
        the worker-side cache key is byte-stable across calls.  An invalid
        spec (say, a scheduler without a compiled path under
        ``engine="compiled"``) raises the worker's ``Simulator`` error here,
        and the pool stays usable.

        ``timeout`` bounds the whole ensemble in wall-clock seconds
        (monotonic clock — a budget, never a simulation input): on expiry
        the pool is torn down and :class:`WorkerTimeoutError` raised.  A
        worker process dying mid-ensemble likewise raises
        :class:`WorkerCrashError` instead of blocking forever.  After either
        error the :class:`WorkerPool` remains usable — the next call builds
        fresh worker processes.

        Safe to call from multiple threads: concurrent ensembles queue on
        the pool's dispatch lock and execute one after another (see the
        class docstring), each bit-identical to its own serial run.
        """
        ensemble = Ensemble(
            protocol, inputs, seeds, scheduler, engine, max_steps,
            stability_window, record_trajectory, analytics, spec_bytes,
        )
        with _obs_trace.span(
            "dispatch", kind="dispatch", workers=self.workers
        ) as dispatch_span:
            dispatch = self.dispatch([ensemble], timeout)
            if dispatch.chunks:
                # Queue-wait behind concurrent ensembles (serve threads) vs
                # time actually spent in the map.
                dispatch_span.set(chunks=dispatch.chunks, lock_wait=dispatch.lock_wait)
            (outcome,) = self.resolve(dispatch)
            # Chunks return in submission (= seed) order, so adopted worker
            # events land in exactly the serial emission order.
            _obs_trace.adopt(outcome.events, parent=dispatch_span.id)
        return outcome.unwrap()

    def dispatch(
        self, ensembles: Sequence[Ensemble], timeout: Optional[float] = None
    ) -> Dispatch:
        """Send several ensembles, of any specs, to the workers in one round
        trip, and return without waiting.

        :meth:`resolve` returns one :class:`EnsembleOutcome` per ensemble,
        in order, each bit-identical to that ensemble's own serial run.
        Failures stay with their ensemble: an ensemble that fails
        validation, pickling or simulator construction (its ``error`` is
        set already here), or raises inside a worker, comes back with its
        ``error`` set while the rest of the batch completes.  A worker death
        or an expired ``timeout`` (the budget of the whole round trip)
        cannot be pinned on one ensemble, so :meth:`resolve` raises
        :class:`WorkerCrashError` / :class:`WorkerTimeoutError` for the
        batch and the pool is rebuilt on next use.

        The batch runs once the workers are done with the batches
        dispatched before it; its ``timeout`` starts then, not while it
        waits (see :class:`Dispatch`).  The ensembles' seeds travel in
        contiguous chunks, balanced across the whole batch: about four
        chunks per worker over the batch's seeds, and a chunk never spans
        two ensembles.  Worker spans come back unadopted on each outcome,
        so the caller decides where in its trace they belong.  Hand the
        returned :class:`Dispatch` to :meth:`resolve`, or to
        :meth:`cancel`, on this thread: until then this thread holds the
        dispatch lock.
        """
        self._check_open()
        # Written so that NaN fails too: a NaN deadline never expires.
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        outcomes = [EnsembleOutcome() for _ in ensembles]
        prepared: List[
            Tuple[EnsembleOutcome, Ensemble, Configuration, List[int], bytes]
        ] = []
        for outcome, ensemble in zip(outcomes, ensembles):
            try:
                prepared.append((outcome, ensemble) + self._prepare(ensemble))
            except Exception as error:
                outcome.error = error
            else:
                outcome.results = []
        seeds = [seed for *_, ensemble_seeds, _ in prepared for seed in ensemble_seeds]
        tasks: List[tuple] = []
        owners: List[EnsembleOutcome] = []
        if seeds:
            # About four contiguous chunks per worker of this batch (the pool
            # may hold more workers than there are seeds) balances load
            # against dispatch overhead; chunking never changes results,
            # only how the pre-derived seeds travel.
            size = -(-len(seeds) // (min(self.workers, len(seeds)) * 4))
            tracing = _obs_trace.tracing_active()
            for outcome, ensemble, configuration, ensemble_seeds, spec_bytes in prepared:
                for start in range(0, len(ensemble_seeds), size):
                    tasks.append(
                        (spec_bytes, configuration, ensemble_seeds[start : start + size],
                         ensemble.max_steps, ensemble.stability_window,
                         ensemble.record_trajectory, ensemble.analytics, tracing)
                    )
                    owners.append(outcome)
        names = ", ".join(
            dict.fromkeys(entry[1].protocol.name or "protocol" for entry in prepared)
        )
        dispatch = Dispatch(outcomes, tasks, owners, names, seeds, timeout)
        if not tasks:
            return dispatch
        lock_t0 = monotonic_time()
        self._dispatch_lock.acquire()
        dispatch.lock_wait = monotonic_time() - lock_t0
        try:
            # Re-check under the lock: a close() that won the lock first has
            # already drained and spent the pool.
            self._check_open()
            self._send(dispatch)
        except BaseException:
            self._dispatch_lock.release()
            raise
        dispatch._held = True
        self._queued.append(dispatch)
        return dispatch

    def resolve(self, dispatch: Dispatch) -> List[EnsembleOutcome]:
        """Wait for a :meth:`dispatch`'s outcomes, under crash and timeout
        watch, and release its hold on the dispatch lock.

        Raises :class:`WorkerCrashError` or :class:`WorkerTimeoutError` for
        the whole batch (see :meth:`dispatch`).
        """
        if not dispatch._held:
            return dispatch.outcomes
        try:
            chunks = self._await(dispatch)
        finally:
            self._forget(dispatch)
        for outcome, (results, events, error) in zip(dispatch._owners, chunks):
            if events:
                outcome.events.extend(events)
            if outcome.error is not None:
                continue
            if error is not None:
                outcome.error, outcome.results = error, None
            else:
                outcome.results.extend(results)
        return dispatch.outcomes

    def cancel(self, dispatch: Dispatch) -> None:
        """Drop an unresolved :meth:`dispatch` and release its hold on the
        dispatch lock.  If its tasks have not all come back, the worker
        processes are torn down with them, and the next dispatch builds
        fresh ones."""
        if not dispatch._held:
            return
        try:
            if not dispatch._pending.ready():
                self._abandon_pool()
        finally:
            self._forget(dispatch)

    def _forget(self, dispatch: Dispatch) -> None:
        self._queued.remove(dispatch)
        # Drop the tasks, the map (whose callback refers back to the
        # dispatch) and the dispatch it waited behind, so resolved batches
        # neither chain up nor wait for the cycle collector.
        dispatch._tasks, dispatch._workers = [], []
        dispatch._pool = dispatch._pending = dispatch._ahead = None
        dispatch._held = False
        self._dispatch_lock.release()

    @staticmethod
    def _prepare(ensemble: Ensemble) -> Tuple[Configuration, List[int], bytes]:
        """Validate an ensemble here; returns its configuration, seeds and spec."""
        _check_max_steps(ensemble.max_steps)
        seeds = _check_seeds(ensemble.seeds)
        _validate_analytics(ensemble.analytics)
        if ensemble.analytics is not None:
            # It travels with every task, where an unpicklable spec would
            # surface as an opaque error from the pool machinery.
            _dumps_for_workers(ensemble.analytics, "analytics spec")
        configuration = ensemble.protocol.initial_configuration(ensemble.inputs)
        if not seeds:
            # An empty ensemble must agree with run_ensemble, which
            # constructs a Simulator before noticing there is nothing to do:
            # validate the spec (engine name, scheduler compatibility) the
            # same way instead of silently returning for a combination every
            # non-empty call would reject.
            Simulator(
                ensemble.protocol, scheduler=ensemble.scheduler,
                engine=ensemble.engine,
            )
            return configuration, seeds, b""
        spec_bytes = ensemble.spec_bytes
        if spec_bytes is None:
            spec_bytes = _dumps_for_workers(
                (ensemble.protocol, ensemble.scheduler, ensemble.engine)
            )
        return configuration, seeds, spec_bytes

    def _send(self, dispatch: Dispatch) -> None:
        """Put ``dispatch``'s tasks on the worker processes, behind the
        batches already waiting there.

        The crash watch of :meth:`_await` runs over a *snapshot* of the
        workers taken here: the pool replenishes dead workers automatically,
        so a snapshot worker with a non-``None`` exitcode died while these
        tasks were (potentially) in flight, no matter what replaced it.
        """
        pool = self._ensure_pool()
        dispatch._ahead = next(
            (
                earlier for earlier in reversed(self._queued)
                if earlier is not dispatch and earlier._pool is pool
            ),
            None,
        )
        dispatch._pool = pool
        dispatch._workers = list(getattr(pool, "_pool", []))
        dispatch._returned = None
        dispatch.sent = monotonic_time()
        dispatch._pending = pool.map_async(
            _run_worker_task, dispatch._tasks,
            callback=dispatch._came_back, error_callback=dispatch._came_back,
        )

    def _await(
        self, dispatch: Dispatch
    ) -> List[
        Tuple[List[SimulationResult], Optional[List[dict]], Optional[BaseException]]
    ]:
        """Await a dispatch's map under crash and timeout watch.

        A plain ``Pool.map`` would block forever if a worker process dies
        (its in-flight chunk is silently lost — ``multiprocessing.Pool`` has
        no broken-pool signal) and has no overall deadline.  This loop polls
        the async result, the worker snapshot of :meth:`_send`, and the
        monotonic clock; on worker death or deadline expiry it abandons the
        pool (see :meth:`_abandon_pool`) and raises the typed error.  A map
        whose pool was abandoned under it while it waited — another batch's
        crash or timeout — is sent again to fresh workers.
        """
        while True:
            pending = dispatch._pending
            pending.wait(_POLL_INTERVAL)
            if pending.ready():
                return list(pending.get())
            with self._lifecycle_lock:
                lost = dispatch._pool is not self._pool
            if lost:
                self._check_open()
                self._send(dispatch)
                continue
            exitcodes = [
                worker.exitcode
                for worker in dispatch._workers
                if worker.exitcode is not None
            ]
            if exitcodes:
                # The death may be harmless (its chunks already returned);
                # give the map a short grace to complete before declaring
                # the ensemble lost.
                pending.wait(_CRASH_GRACE)
                if pending.ready():
                    return list(pending.get())
                shared = any(
                    other is not dispatch and other._pool is dispatch._pool
                    for other in self._queued
                )
                self._abandon_pool()
                if shared:
                    # Another batch's chunks may have run on the dead
                    # worker (on several workers, a queued batch starts on
                    # those this one is done with), so the crash is not
                    # pinned on this batch until it crashes alone.
                    self._check_open()
                    self._send(dispatch)
                    continue
                raise WorkerCrashError(dispatch._names, dispatch._seeds, exitcodes)
            deadline = dispatch._deadline()
            if deadline is not None and monotonic_time() >= deadline:
                self._abandon_pool()
                raise WorkerTimeoutError(
                    dispatch._names, dispatch._seeds, dispatch._timeout or 0.0
                )

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "pool up" if self._pool is not None else "pool pending"
        )
        return f"WorkerPool(workers={self.workers}, {state})"


# ----------------------------------------------------------------------
# Ensemble execution
# ----------------------------------------------------------------------
def run_ensemble(
    protocol: Protocol,
    inputs: Configuration,
    seeds: Sequence[int],
    scheduler: Optional[Scheduler] = None,
    engine: str = "auto",
    max_steps: int = 100000,
    stability_window: int = 200,
    record_trajectory: bool = False,
    analytics: Any = None,
) -> List[SimulationResult]:
    """Run one independent repetition per seed in this process and return
    them in seed order.

    Parameters
    ----------
    protocol, scheduler, engine:
        As for :class:`~repro.simulation.simulator.Simulator`.  Schedulers
        must not carry mutable state across runs (the built-ins are
        stateless): this call reuses one instance for every repetition
        while each pool worker runs on a freshly unpickled copy, so
        cross-repetition scheduler state would silently break the
        bit-identical guarantee.
    inputs:
        Input configuration; every repetition starts from
        ``protocol.initial_configuration(inputs)``.
    seeds:
        One integer RNG seed per repetition (see :func:`repetition_seeds`);
        any other seed raises :class:`TypeError` before a run.  The result
        list is index-aligned with this sequence.
    record_trajectory:
        As for :meth:`Simulator.run <repro.simulation.simulator.Simulator.run>`.
    analytics:
        Optional metric-extraction spec (see
        :class:`~repro.analytics.metrics.AnalyticsSpec`): each result gains a
        compact ``result.analytics`` dict.

    To run the seeds on worker processes, hand the same arguments to
    :meth:`WorkerPool.run_seeds`, which returns the same results and
    extracts the metrics in the workers, so only they cross the pool.
    """
    return _run_ensemble(
        Simulator(protocol, scheduler=scheduler, engine=engine),
        inputs, seeds, max_steps, stability_window, record_trajectory, analytics,
    )


def _run_ensemble(
    simulator: Simulator,
    inputs: Configuration,
    seeds: Sequence[int],
    max_steps: int,
    stability_window: int,
    record_trajectory: bool,
    analytics: Any,
) -> List[SimulationResult]:
    """The in-process ensemble behind :func:`run_ensemble` and
    :meth:`Simulator.run_many <repro.simulation.simulator.Simulator.run_many>`:
    the seeds run on ``simulator`` itself, reusing its steppers (one native
    call per seed list), under one ``ensemble`` span.
    """
    _validate_analytics(analytics)
    seeds = list(seeds)
    with _obs_trace.span(
        "ensemble", kind="ensemble", reps=len(seeds), engine=simulator.engine
    ):
        return simulator._run_seeds(
            simulator.protocol.initial_configuration(inputs), seeds,
            max_steps, stability_window, record_trajectory, analytics,
        )
