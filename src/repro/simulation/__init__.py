"""Random-scheduler simulation of protocols: engines, batches, trajectories.

The simulation layer is organized in three tiers:

**Engines** (:mod:`~repro.simulation.simulator`,
:mod:`~repro.simulation.native`, :mod:`~repro.simulation.compiled`).
A single run executes on one of three engines with identical semantics:

* the *native* engine (``engine="native"``) — one C loop over the compiled
  engine's dense tables for both schedulers, with weights in blocks of
  maintained sums (``O(sqrt |T|)`` per pick, so nets with tens of thousands
  of transitions stay fast) and CPython's MT19937 reproduced in C, so a seed
  list runs in one call with every generator seeded inside C.  It is built
  with the host C compiler (``cc``) on first use into the per-user cache
  ``~/.cache/repro-native``; runs whose counts or weights overflow 64 bits
  are redone on the compiled engine;
* the *compiled* dense-array engine — states mapped to dense indices, a
  generated straight-line Python stepper mutating one counts array with
  incremental scheduler weights and O(1) consensus counters.  It needs no
  compiler, but its per-step dispatch (and its codegen) grows linearly in
  the transition count, and beyond ~2500 transitions the generated code
  exceeds what CPython can compile;
* the sparse *reference* engine (``engine="reference"``) — one immutable
  configuration per step, full rescans; the semantics-first baseline.

All three consume the random stream identically, so trajectories match step
for step and the generator ends in the same state; the test suite asserts
this across the named protocols and a seeded sweep of random nets.
``engine="auto"`` (the default) selects the native engine whenever its
library loads and the compiled engine otherwise, falling back to the
reference engine for custom schedulers.  Nothing in the environment
overrides that choice; name an engine to run that one.

**Batches** (:mod:`~repro.simulation.batch`).  Ensembles of independent runs
derive one seed per repetition from a master seed up front
(:func:`repetition_seeds`, or ``Simulator.run_many`` from the simulator's
own generator).  ``Simulator.run_many`` and :func:`run_ensemble` run them
in this process.  Worker processes come only from a **persistent**
:class:`WorkerPool` the caller holds: ``run_seeds`` fans the same seeds out
in chunked, index-ordered dispatch, so it returns bit-identical results,
and its workers are spawned once and cache one initialized simulator per
(protocol, scheduler, engine) spec, rebuilt from the pickled protocol on
first use, so later ``run_seeds`` calls stop paying pool startup and
stepper compilation — benchmark E11 measures the second call severalfold
faster than a fresh pool — and one pool serves ensembles of many protocols
back to back, the fan-out substrate of the sweep harness
(:mod:`repro.sweep`) and the job server (:mod:`repro.serve`).  Release the
pool with ``close()`` or a ``with`` block; a closed pool raises on further
use.

**Trajectories** (:mod:`~repro.simulation.trajectory`).  Opt-in path
recording (``record_trajectory=True``): every engine appends the fired
transition indices to a deque that grows with the steps fired (so
``max_steps`` bounds it), turned into a :class:`Trajectory` of the whole
run that replays on the net to the final configuration.  The
``analytics=`` knob on the batch entry points goes one step further:
instead of shipping paths out of the workers, each worker records, extracts
a compact metric dict (time-to-consensus, firing histogram, predicate
correctness — see :mod:`repro.analytics`), attaches it as
``result.analytics`` and drops the path, so ensembles return kilobytes of
metrics rather than megabytes of paths.  Enabling analytics never changes
the simulation itself: the non-analytics result fields stay bit-identical,
on every engine, in-process or on a pool.

:mod:`~repro.simulation.statistics` aggregates batch results into convergence
statistics; :mod:`repro.analytics` builds the trajectory-derived metrics,
ensemble aggregates and diffing tools on top.
"""

from .batch import (
    WorkerCrashError,
    WorkerPool,
    WorkerTimeoutError,
    repetition_seeds,
    run_ensemble,
)
from .compiled import CompiledNet
from .native import NativeUnavailable
from .scheduler import Scheduler, TransitionScheduler, UniformScheduler
from .simulator import SimulationResult, Simulator, simulate
from .statistics import (
    ConvergenceStatistics,
    accuracy_against_predicate,
    interactions_per_second,
    summarize_runs,
)
from .trajectory import Trajectory

__all__ = [
    "Scheduler",
    "UniformScheduler",
    "TransitionScheduler",
    "CompiledNet",
    "NativeUnavailable",
    "Simulator",
    "SimulationResult",
    "simulate",
    "WorkerPool",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "repetition_seeds",
    "run_ensemble",
    "Trajectory",
    "ConvergenceStatistics",
    "summarize_runs",
    "accuracy_against_predicate",
    "interactions_per_second",
]
