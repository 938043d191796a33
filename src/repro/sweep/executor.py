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

The executor is thread-safe: the server calls :meth:`CellExecutor.run` from
several threads.  Cache fills share one build lock, so concurrent callers
never race a half-built protocol.  Ensembles run one at a time, on the
pool's own dispatch lock or, without a pool, on this executor's serial lock
(a cached simulator keeps engine state that concurrent runs must not share).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, TypeVar

from ..core.configuration import Configuration
from ..core.predicates import Predicate
from ..core.protocol import Protocol
from ..simulation.batch import WorkerPool, _dumps_for_workers
from ..simulation.simulator import SimulationResult, Simulator
from ..simulation.trajectory import DEFAULT_TRAJECTORY_CAPACITY
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
        Wall-clock budget per ensemble on the pool; expiry raises
        :class:`~repro.simulation.batch.WorkerTimeoutError`.  In-process
        ensembles cannot be interrupted, so their owners (the sweep runner,
        the server) reject a timeout without a pool up front.
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
                histogram=True,
                consensus_times=True,
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
        protocol = self.protocol(cell)
        inputs = self.inputs(cell)
        scheduler = self._cached(("scheduler", cell.scheduler), cell.make_scheduler)
        spec = self._analytics_spec(cell) if analytics else None
        spec_key = (cell.protocol, cell.params_json, cell.scheduler, cell.engine)
        if self.pool is not None:
            return self.pool.run_seeds(
                protocol,
                inputs,
                list(seeds),
                scheduler=scheduler,
                engine=cell.engine,
                max_steps=max_steps,
                stability_window=stability_window,
                analytics=spec,
                spec_bytes=self._cached(
                    ("spec-bytes",) + spec_key,
                    lambda: _dumps_for_workers((protocol, scheduler, cell.engine)),
                ),
                timeout=self.timeout,
            )
        simulator = self._cached(
            ("simulator",) + spec_key,
            lambda: Simulator(protocol, scheduler=scheduler, engine=cell.engine),
        )
        with self._serial_lock:
            return simulator._run_seeds(
                protocol.initial_configuration(inputs),
                list(seeds),
                max_steps,
                stability_window,
                False,
                DEFAULT_TRAJECTORY_CAPACITY,
                spec,
            )
