"""Grid sweeps over the batch subsystem, with resumable result tables.

The scenario-diversity layer on top of the engine stack: declare a grid of
(protocol × population × scheduler × engine) combinations once, run it over
the persistent worker pool, and get back an incrementally persisted,
resumable result table — the PY_EXPERIMENTER pattern, specialized to
population-protocol ensembles.

* :class:`SweepSpec` (:mod:`repro.sweep.spec`) — the declarative grid: axes,
  repetitions, master seed, step budget.  Expands deterministically to
  keyfield-ordered :class:`SweepCell` values, each owning a position-
  independent seed derived from the master seed and the cell identity.
* :class:`SqliteResultStore` (:mod:`repro.sweep.dbstore`) — the one live
  store: a sqlite table with one row per cell, a
  ``created``/``running``/``done``/``error`` status column, and atomic,
  leased cell claims taken per batch.  It runs WAL with
  ``synchronous=NORMAL``: a killed process loses no committed row, so a
  killed sweep resumes by running again; an OS crash or power loss can drop
  the last commits, and those cells rerun to identical rows because seeds
  are per cell.
* :func:`export_rows` (:mod:`repro.sweep.store`) — the table's column
  schema and its CSV / JSON-lines renderings, byte-identical for every way
  the same spec was run.
* :class:`SweepRunner` (:mod:`repro.sweep.runner`) — one claim loop in two
  cases: :meth:`~SweepRunner.run` owns the store alone and resumes it,
  :meth:`~SweepRunner.run_claims` drains it cooperatively with other
  runner processes.  Each claimed batch of cells runs on a
  :class:`CellExecutor` (:mod:`repro.sweep.executor`) — the cache of built
  protocols, inputs, schedulers and simulators that :mod:`repro.serve`
  shares — in one round trip of a shared persistent
  :class:`~repro.simulation.batch.WorkerPool`, or in-process; its rows
  commit in one transaction.  On the pool the next batch is claimed and
  queued while one executes, and a SIGTERM drain finishes both.
* ``python -m repro.sweep`` (:mod:`repro.sweep.cli`) — run, resume, drain,
  export and show sweeps from the command line; experiments E12 and E13
  drive the same machinery from the experiment registry.

Cells are scored against their protocol's registered predicate (the
``accuracy`` column), and a spec with ``analytics=True`` extracts
trajectory analytics inside the workers — convergence-time quantiles and
top fired transitions land as additional byte-stable columns (see
:mod:`repro.analytics`, experiment E13).
"""

from .dbstore import BOOKKEEPING_COLUMNS, Claim, SqliteResultStore, open_store
from .executor import CellExecutor
from .faults import (
    ACTIONS,
    INJECTION_POINTS,
    FaultPlan,
    FaultRule,
    InjectedFault,
    fault_point,
    install_fault_plan,
)
from .runner import (
    CellExecutionError,
    ClaimReport,
    SweepReport,
    SweepRunner,
    claim_worker,
    to_experiment_table,
)
from .spec import (
    KEYFIELDS,
    SCHEDULERS,
    SweepCell,
    SweepSpec,
    available_sweep_protocols,
    build_predicate_for,
    build_protocol_and_inputs,
    canonical_params,
    derive_cell_seed,
    register_sweep_protocol,
)
from .store import (
    ANALYTICS_COLUMNS,
    COLUMNS,
    STATUS_CREATED,
    STATUS_DONE,
    STATUS_ERROR,
    STATUS_RUNNING,
    StoreCorruptionError,
    export_rows,
    normalize_error_message,
)

__all__ = [
    "KEYFIELDS",
    "SCHEDULERS",
    "ANALYTICS_COLUMNS",
    "COLUMNS",
    "STATUS_CREATED",
    "STATUS_RUNNING",
    "STATUS_DONE",
    "STATUS_ERROR",
    "SweepCell",
    "SweepSpec",
    "SweepReport",
    "SweepRunner",
    "available_sweep_protocols",
    "build_predicate_for",
    "build_protocol_and_inputs",
    "canonical_params",
    "derive_cell_seed",
    "register_sweep_protocol",
    "to_experiment_table",
    "SqliteResultStore",
    "CellExecutor",
    "BOOKKEEPING_COLUMNS",
    "Claim",
    "ClaimReport",
    "CellExecutionError",
    "claim_worker",
    "StoreCorruptionError",
    "export_rows",
    "normalize_error_message",
    "open_store",
    "ACTIONS",
    "INJECTION_POINTS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "fault_point",
    "install_fault_plan",
]
