"""One cell executor for sweeps and served jobs.

A sweep cell and a served job are the same unit of work: one seeded
ensemble at a (protocol, params, population, scheduler, engine) point.
:class:`CellExecutor` runs that unit for both
:class:`~repro.sweep.runner.SweepRunner` and :mod:`repro.serve`, with caches
shared across cells:

* one built protocol per (protocol, params) — every registered protocol is
  population-independent, so the whole population axis reuses its compiled
  caches — and one input configuration per grid point;
* per grid point, the registered predicate and the in-worker analytics spec;
* one scheduler instance per kind;
* per (protocol, params, scheduler, engine) either one serial simulator or
  one worker-transport pickle, kept byte-stable so every cell of a spec hits
  the same cached simulator in the pool workers.

:meth:`CellExecutor.run` runs one cell (a served job);
:meth:`CellExecutor.run_batch` runs a sweep's batch of cells, in one pool
round trip or one after another in-process.

The executor is thread-safe: the server calls :meth:`CellExecutor.run` from
several threads.  Cache fills share one build lock, so concurrent callers
never race a half-built protocol.  Ensembles run one at a time, on the
pool's own dispatch lock or, without a pool, on this executor's serial lock
(a cached simulator keeps engine state that concurrent runs must not share).
"""

from __future__ import annotations

import contextlib
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..core.configuration import Configuration
from ..core.predicates import Predicate
from ..core.protocol import Protocol
from ..obs import trace as _obs_trace
from ..simulation.batch import (
    Ensemble,
    EnsembleOutcome,
    WorkerPool,
    _dumps_for_workers,
)
from ..simulation.simulator import SimulationResult, Simulator
from .spec import SweepCell, build_inputs_for

__all__ = ["CellExecutor"]

_T = TypeVar("_T")


class CellExecutor:
    """Runs cells' ensembles over one pool (or in-process), with caches.

    Parameters
    ----------
    pool:
        The shared :class:`~repro.simulation.batch.WorkerPool`; ``None``
        runs every ensemble in-process on cached serial simulators.
    timeout:
        Wall-clock budget per pool round trip; expiry raises
        :class:`~repro.simulation.batch.WorkerTimeoutError`.  A sweep runner
        with a timeout sends one cell per round trip, so the budget bounds
        each cell.  In-process ensembles cannot be interrupted, so their
        owners (the sweep runner, the server) reject a timeout without a
        pool up front.
    """

    def __init__(
        self,
        pool: Optional[WorkerPool] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.pool = pool
        self.timeout = timeout
        self._build_lock = threading.Lock()
        self._serial_lock = threading.Lock()
        self._cache: Dict[Hashable, Any] = {}

    def _cached(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The cached value for ``key``, built under the build lock on a miss."""
        with self._build_lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------
    def protocol(self, cell: SweepCell) -> Protocol:
        """The cell's protocol, built once per (protocol, params)."""
        return self._cached(
            ("protocol", cell.protocol, cell.params_json),
            lambda: cell.build()[0],
        )

    def inputs(self, cell: SweepCell) -> Configuration:
        """The cell's input configuration, sized once per grid point."""
        protocol = self.protocol(cell)
        return self._cached(
            ("inputs", cell.protocol, cell.params_json, cell.population),
            lambda: build_inputs_for(
                cell.protocol, protocol, cell.population, cell.params
            ),
        )

    def predicate(self, cell: SweepCell) -> Optional[Predicate]:
        """The cell's registered predicate (or None), once per grid point."""
        return self._cached(
            ("predicate", cell.protocol, cell.params_json, cell.population),
            cell.build_predicate,
        )

    def _analytics_spec(self, cell: SweepCell) -> Any:
        """The in-worker extraction spec of a cell, once per grid point.

        The expected predicate value is folded in up front, so every worker
        scores correctness locally without seeing the predicate object.
        """
        predicate = self.predicate(cell)
        inputs = self.inputs(cell)

        def build() -> Any:
            from ..analytics.metrics import AnalyticsSpec

            return AnalyticsSpec(
                expected_output=(
                    None if predicate is None else predicate.evaluate(inputs)
                ),
            )

        return self._cached(
            ("analytics", cell.protocol, cell.params_json, cell.population), build
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _ensemble(
        self,
        cell: SweepCell,
        seeds: Sequence[int],
        max_steps: int,
        stability_window: int,
        analytics: bool = False,
    ) -> Ensemble:
        """The cell's ensemble over ``seeds``, from the cached building blocks."""
        protocol = self.protocol(cell)
        scheduler = self._cached(("scheduler", cell.scheduler), cell.make_scheduler)
        return Ensemble(
            protocol,
            self.inputs(cell),
            list(seeds),
            scheduler=scheduler,
            engine=cell.engine,
            max_steps=max_steps,
            stability_window=stability_window,
            analytics=self._analytics_spec(cell) if analytics else None,
            spec_bytes=self._cached(
                ("spec-bytes",) + self._spec_key(cell),
                lambda: _dumps_for_workers((protocol, scheduler, cell.engine)),
            ) if self.pool is not None else None,
        )

    @staticmethod
    def _spec_key(cell: SweepCell) -> Tuple[str, ...]:
        return (cell.protocol, cell.params_json, cell.scheduler, cell.engine)

    def run(
        self,
        cell: SweepCell,
        seeds: Sequence[int],
        max_steps: int,
        stability_window: int,
        analytics: bool = False,
    ) -> List[SimulationResult]:
        """Run one repetition of ``cell`` per seed, in seed order.

        With ``analytics`` each result carries its compact metric dict
        (``result.analytics``), extracted where the run executed.  Raises
        whatever building or the batch layer raises, typed worker crash and
        timeout errors included.
        """
        ensemble = self._ensemble(cell, seeds, max_steps, stability_window, analytics)
        if self.pool is not None:
            return self.pool.run_seeds(
                ensemble.protocol,
                ensemble.inputs,
                ensemble.seeds,
                scheduler=ensemble.scheduler,
                engine=ensemble.engine,
                max_steps=max_steps,
                stability_window=stability_window,
                analytics=ensemble.analytics,
                spec_bytes=ensemble.spec_bytes,
                timeout=self.timeout,
            )
        return self._run_serial(cell, ensemble)

    def run_batch(
        self,
        cells: Sequence[Tuple[SweepCell, Sequence[int]]],
        max_steps: int,
        stability_window: int,
        analytics: bool = False,
    ) -> List[EnsembleOutcome]:
        """Run ``(cell, seeds)`` ensembles as one batch; one outcome per cell.

        On the pool the batch is one round trip under ``timeout``; without
        one the cells run one after another in-process.  A cell whose
        building or ensemble raises gets its error on its outcome and the
        others still run; a worker crash or an expired timeout raises for
        the whole batch (see
        :meth:`~repro.simulation.batch.WorkerPool.run_batch`).  When tracing,
        each outcome carries its cell's run spans, unadopted, for the
        caller to place under the cell's own span.
        """
        outcomes: List[EnsembleOutcome] = []
        ensembles: List[Ensemble] = []
        for cell, seeds in cells:
            outcome = EnsembleOutcome()
            try:
                ensemble = self._ensemble(
                    cell, seeds, max_steps, stability_window, analytics
                )
            except Exception as error:
                outcome.error = error
            else:
                if self.pool is None:
                    self._run_captured(cell, ensemble, outcome)
                else:
                    ensembles.append(ensemble)
            outcomes.append(outcome)
        if self.pool is None or not ensembles:
            return outcomes
        ran = iter(self.pool.run_batch(ensembles, self.timeout))
        return [next(ran) if outcome.error is None else outcome for outcome in outcomes]

    def _run_captured(
        self, cell: SweepCell, ensemble: Ensemble, outcome: EnsembleOutcome
    ) -> None:
        """Run ``ensemble`` in-process into ``outcome``, capturing its spans."""
        capture = (
            _obs_trace.capture_events() if _obs_trace.tracing_active()
            else contextlib.nullcontext([])
        )
        with capture as events:
            try:
                outcome.results = self._run_serial(cell, ensemble)
            except Exception as error:
                outcome.error = error
        outcome.events = events

    def _run_serial(
        self, cell: SweepCell, ensemble: Ensemble
    ) -> List[SimulationResult]:
        """Run ``ensemble`` on the cell's cached in-process simulator."""
        simulator = self._cached(
            ("simulator",) + self._spec_key(cell),
            lambda: Simulator(
                ensemble.protocol, scheduler=ensemble.scheduler, engine=cell.engine
            ),
        )
        with self._serial_lock:
            return simulator._run_seeds(
                ensemble.protocol.initial_configuration(ensemble.inputs),
                ensemble.seeds,
                ensemble.max_steps,
                ensemble.stability_window,
                False,
                ensemble.analytics,
            )
