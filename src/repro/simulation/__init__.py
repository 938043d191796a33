"""Random-scheduler simulation of protocols: engines, batches, trajectories.

The simulation layer is organized in three tiers:

**Engines** (:mod:`~repro.simulation.simulator`,
:mod:`~repro.simulation.compiled`, :mod:`~repro.simulation.vectorized`,
:mod:`~repro.simulation.ensemble`).
A single run executes on one of three per-run engines with identical
semantics:

* the *compiled* dense-array engine — states mapped to dense indices, a
  generated straight-line stepper mutating one counts array with incremental
  scheduler weights and O(1) consensus counters.  Unbeatable on the small
  nets of the named protocols, but its per-step dispatch (and its codegen)
  grows linearly in the transition count, and beyond ~2500 transitions the
  generated code exceeds what CPython can compile;
* the *NumPy* engine (``engine="numpy"``, optional ``sim`` extra) — the same
  dense mapping, with the counts and scheduler weights kept as ``int64``
  vectors updated by array kernels through a precomputed transition-adjacency
  structure.  Per-step cost is essentially flat in the transition count,
  which wins on nets with hundreds to thousands of transitions — the regime
  of the paper's succinct-counting constructions;
* the sparse *reference* engine (``engine="reference"``) — one immutable
  configuration per step, full rescans; the semantics-first baseline.

All three consume the random stream identically, so trajectories match step
for step; the test suite asserts this across the named protocols and a
seeded sweep of random nets.  ``engine="auto"`` (the default) selects the
NumPy engine at :data:`~repro.simulation.simulator.AUTO_VECTORIZE_THRESHOLD`
(256) transitions and above — benchmark E11 puts the measured steady-state
crossover between ~200 (densely coupled nets) and ~500 (sparse) transitions,
and the compiled engine's per-(net, process) codegen cost pushes the
end-to-end crossover far lower — falling back to the compiled engine when
NumPy is missing and to the reference engine for custom schedulers.  The
``REPRO_FORCE_ENGINE`` environment variable overrides the auto choice.

**Batches** (:mod:`~repro.simulation.batch`).  Ensembles of independent runs
(``Simulator.run_many``, :class:`BatchRunner`, :func:`run_ensemble`) derive
one seed per repetition from a master generator up front and can execute
either serially or fanned out over ``multiprocessing`` workers
(``backend="process"``); chunked, index-ordered dispatch keeps the two
backends bit-identical, and workers rebuild dense-engine steppers from
pickled protocols on first use.  A :class:`BatchRunner` owns a **persistent
pool**: workers are spawned and initialized once (on the first
process-backend ensemble) and reused across every subsequent
``run_many``/``run_seeds``, so repeated ensembles stop paying pool startup,
protocol pickling and stepper compilation — benchmark E11 measures the
second call severalfold faster than the old build-per-call behavior.
Release the pool with ``close()`` or a ``with`` block; a closed runner
raises on further use.  The pool itself is the protocol-agnostic
:class:`WorkerPool`: its workers cache one initialized simulator per
(protocol, scheduler, engine) spec, so a single pool can serve ensembles of
many protocols back to back — the fan-out substrate of the sweep harness
(:mod:`repro.sweep`).

**Trajectories** (:mod:`~repro.simulation.trajectory`).  Opt-in path
recording (``record_trajectory=True``): every engine appends the fired
transition indices to a bounded deque (``maxlen=trajectory_capacity``;
memory proportional to min(steps fired, capacity)), turned into a
:class:`Trajectory` that keeps the last ``trajectory_capacity`` firings,
counts what was dropped, and can replay complete paths on the net.  The
``analytics=`` knob on the batch entry points goes one step further:
instead of shipping paths out of the workers, each worker records, extracts
a compact metric dict (time-to-consensus, firing histogram, predicate
correctness — see :mod:`repro.analytics`), attaches it as
``result.analytics`` and drops the path, so ensembles return kilobytes of
metrics rather than megabytes of paths.  Enabling analytics never changes
the simulation itself: the non-analytics result fields stay bit-identical,
on every engine and backend.

:mod:`~repro.simulation.statistics` aggregates batch results into convergence
statistics; :mod:`repro.analytics` builds the trajectory-derived metrics,
ensemble aggregates and diffing tools on top.
"""

from .batch import (
    BatchRunner,
    WorkerCrashError,
    WorkerPool,
    WorkerTimeoutError,
    run_ensemble,
)
from .compiled import CompiledNet
from .scheduler import Scheduler, TransitionScheduler, UniformScheduler
from .simulator import AUTO_VECTORIZE_THRESHOLD, SimulationResult, Simulator, simulate
from .vectorized import VectorizedNet, numpy_available
from .statistics import (
    ConvergenceStatistics,
    accuracy_against_predicate,
    interactions_per_second,
    summarize_runs,
)
from .trajectory import DEFAULT_TRAJECTORY_CAPACITY, Trajectory

__all__ = [
    "Scheduler",
    "UniformScheduler",
    "TransitionScheduler",
    "CompiledNet",
    "VectorizedNet",
    "numpy_available",
    "AUTO_VECTORIZE_THRESHOLD",
    "Simulator",
    "SimulationResult",
    "simulate",
    "BatchRunner",
    "WorkerPool",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "run_ensemble",
    "Trajectory",
    "DEFAULT_TRAJECTORY_CAPACITY",
    "ConvergenceStatistics",
    "summarize_runs",
    "accuracy_against_predicate",
    "interactions_per_second",
]
