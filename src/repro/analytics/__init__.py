"""Trajectory analytics: per-run metrics, ensemble aggregation, diffs, reports.

The consumption layer for PR 2's trajectory recording — the paper's central
quantities (does the protocol stabilize to the correct predicate value, and
how fast does consensus emerge) extracted from recorded paths instead of
re-derived by hand per experiment:

* :mod:`~repro.analytics.metrics` — per-run extraction: time-to-first /
  time-to-stable consensus, per-transition firing histograms,
  consensus-fraction curves at configurable checkpoints, predicate
  correctness.  :class:`AnalyticsSpec` packages the configuration and is
  shipped to worker processes by the batch layer's ``analytics=`` knob, so
  extraction runs **in the worker** and only compact metric dicts cross the
  pool — never the recorded trajectories.
* :mod:`~repro.analytics.ensemble` — deterministic aggregation into
  :class:`EnsembleAnalytics`: convergence-time quantiles, pooled histograms,
  accuracy rates, mean curves.
* :mod:`~repro.analytics.diff` — trajectory diffing: the first divergent
  fired index between two runs, the debugging signal for engine-vs-engine
  and scheduler-vs-scheduler comparisons.
* :mod:`~repro.analytics.report` / ``python -m repro.analytics`` — text
  reports over sweep stores (``report``), firing histograms (``hist``) and
  trajectory diffs (``diff``) from the command line.

The sweep subsystem persists the derived columns per grid cell (see the
``analytics`` flag of :class:`~repro.sweep.spec.SweepSpec`), and experiment
E13 drives the whole stack across engines and schedulers.  All extraction
and aggregation is deterministic, so analytics inherit the simulation
stack's bit-identity guarantees: same seeds → same metric dicts, on every
engine and backend.
"""

from .diff import TrajectoryDiff, describe_diff, diff_results, diff_trajectories
from .ensemble import (
    DEFAULT_QUANTILE_POINTS,
    EnsembleAnalytics,
    aggregate_run_metrics,
    pooled_histogram,
    quantile,
    top_transitions,
)
from .metrics import AnalyticsSpec, extract_run_metrics, firing_histogram
from .report import main, report_table

__all__ = [
    "AnalyticsSpec",
    "extract_run_metrics",
    "firing_histogram",
    "DEFAULT_QUANTILE_POINTS",
    "EnsembleAnalytics",
    "aggregate_run_metrics",
    "pooled_histogram",
    "quantile",
    "top_transitions",
    "TrajectoryDiff",
    "describe_diff",
    "diff_results",
    "diff_trajectories",
    "main",
    "report_table",
]
