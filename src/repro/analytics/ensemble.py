"""Aggregation of per-run metric dicts into ensemble-level analytics.

One run yields a compact metric dict (:mod:`repro.analytics.metrics`); a
seeded ensemble yields a list of them.  This module folds that list into an
:class:`EnsembleAnalytics` — the quantities the sweep tables persist per grid
cell and the experiments report:

* quantiles of the convergence times (time-to-stable and time-to-first
  consensus) over the converged runs,
* the pooled per-transition firing histogram (and its top-k rendering),
* the accuracy rate against an expected predicate value,
* the mean consensus-fraction curve across converged runs.

Every aggregate is a deterministic pure function of the metric list —
quantiles use fixed linear interpolation, pooling is elementwise integer
summation — so serial and process backends, all three engines, and resumed
sweeps agree byte for byte.  Empty inputs raise :class:`ValueError` with a
clear message, matching the ``summarize_runs([])`` convention (an empty
ensemble is a caller bug, not a zero statistic).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_QUANTILE_POINTS",
    "EnsembleAnalytics",
    "aggregate_run_metrics",
    "pooled_histogram",
    "quantile",
    "top_transitions",
]

#: The convergence-time quantiles the sweep tables persist per cell.
DEFAULT_QUANTILE_POINTS = (0.1, 0.5, 0.9)


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` under linear interpolation.

    The deterministic textbook rule (NumPy's default): sort, place ``q`` at
    fractional rank ``q * (n - 1)``, interpolate linearly between the two
    neighbouring order statistics.  Raises :class:`ValueError` on an empty
    sequence — a quantile of nothing is a caller bug, and a silent ``nan``
    (or an ``IndexError`` from the order statistics) would hide it.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile point must be within [0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError(
            "cannot take a quantile of an empty sequence; "
            "aggregate at least one value"
        )
    rank = q * (len(ordered) - 1)
    low = floor(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def pooled_histogram(
    histograms: Sequence[Sequence[int]],
) -> Tuple[int, ...]:
    """Elementwise sum of per-run firing histograms.

    All histograms must index the same transition set (equal lengths); an
    empty list raises — pooling nothing is a caller bug, not a zero
    histogram.
    """
    histograms = list(histograms)
    if not histograms:
        raise ValueError(
            "cannot pool an empty list of histograms; extract metrics from "
            "at least one run"
        )
    width = len(histograms[0])
    pooled = [0] * width
    for histogram in histograms:
        if len(histogram) != width:
            raise ValueError(
                f"histogram lengths disagree ({len(histogram)} != {width}); "
                "were these runs simulated on different nets?"
            )
        for index, count in enumerate(histogram):
            pooled[index] += count
    return tuple(pooled)


def top_transitions(
    histogram: Sequence[int],
    names: Optional[Sequence[str]] = None,
    k: int = 3,
) -> Tuple[Tuple[str, int], ...]:
    """The ``k`` most-fired transitions as ``(label, count)`` pairs.

    Ordered by descending count, ties broken by transition index (a total,
    deterministic order).  Transitions that never fired are omitted; the
    label is ``names[index]`` when names are given, else the index as text.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    ranked = sorted(
        ((index, count) for index, count in enumerate(histogram) if count),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return tuple(
        (names[index] if names is not None else str(index), count)
        for index, count in ranked[:k]
    )


@dataclass(frozen=True)
class EnsembleAnalytics:
    """Ensemble-level analytics aggregated from per-run metric dicts."""

    #: Runs aggregated.
    runs: int
    #: Runs that ended in a consensus.
    converged: int
    #: Fraction of *scored* runs whose consensus matched the expectation —
    #: runs without a ``correct`` flag (no expectation was set for them) are
    #: excluded from the denominator; None when no run was scored at all.
    accuracy: Optional[float]
    #: The quantile points the two quantile tuples are sampled at.
    quantile_points: Tuple[float, ...]
    #: Quantiles of time-to-stable-consensus over converged runs (None when
    #: no run converged or consensus times were not extracted).
    stable_consensus_quantiles: Optional[Tuple[float, ...]]
    #: Quantiles of time-to-first-consensus over runs where it was recovered.
    first_consensus_quantiles: Optional[Tuple[float, ...]]
    #: Pooled per-transition firing histogram (None when not extracted).
    histogram: Optional[Tuple[int, ...]]
    #: Mean consensus-fraction per checkpoint over runs carrying a curve.
    mean_curve: Optional[Tuple[Tuple[int, float], ...]]

    @property
    def convergence_rate(self) -> float:
        """The fraction of runs that reached a consensus."""
        if self.runs == 0:
            return 0.0
        return self.converged / self.runs

    def __repr__(self) -> str:
        return (
            f"EnsembleAnalytics(runs={self.runs}, converged={self.converged}, "
            f"accuracy={self.accuracy}, "
            f"stable_q={self.stable_consensus_quantiles})"
        )


def aggregate_run_metrics(
    metrics: Sequence[Mapping[str, object]],
    quantile_points: Sequence[float] = DEFAULT_QUANTILE_POINTS,
) -> EnsembleAnalytics:
    """Fold per-run metric dicts into one :class:`EnsembleAnalytics`.

    ``metrics`` are the dicts produced by
    :func:`~repro.analytics.metrics.extract_run_metrics` (the
    ``SimulationResult.analytics`` payloads of an ensemble).  An empty list
    raises, matching ``summarize_runs``.
    """
    metrics = list(metrics)
    if not metrics:
        raise ValueError(
            "cannot aggregate an empty list of run metrics; "
            "run at least one repetition with analytics enabled"
        )
    points = tuple(float(point) for point in quantile_points)
    for point in points:
        if not 0.0 <= point <= 1.0:
            raise ValueError(f"quantile point must be within [0, 1], got {point}")

    converged = sum(1 for m in metrics if m.get("consensus") is not None)
    stable = [
        m["time_to_stable_consensus"]
        for m in metrics
        if m.get("time_to_stable_consensus") is not None
    ]
    first = [
        m["time_to_first_consensus"]
        for m in metrics
        if m.get("time_to_first_consensus") is not None
    ]
    corrects = [m.get("correct") for m in metrics if m.get("correct") is not None]
    histograms = [m["histogram"] for m in metrics if m.get("histogram") is not None]
    curves = [m["curve"] for m in metrics if m.get("curve") is not None]

    mean_curve: Optional[Tuple[Tuple[int, float], ...]] = None
    if curves:
        by_checkpoint: Dict[int, List[float]] = {}
        order: List[int] = []
        for curve in curves:
            for checkpoint, value in curve:
                if checkpoint not in by_checkpoint:
                    by_checkpoint[checkpoint] = []
                    order.append(checkpoint)
                by_checkpoint[checkpoint].append(value)
        mean_curve = tuple(
            (checkpoint, sum(by_checkpoint[checkpoint]) / len(by_checkpoint[checkpoint]))
            for checkpoint in sorted(order)
        )

    return EnsembleAnalytics(
        runs=len(metrics),
        converged=converged,
        accuracy=(
            sum(1 for c in corrects if c) / len(corrects) if corrects else None
        ),
        quantile_points=points,
        stable_consensus_quantiles=(
            tuple(quantile(stable, point) for point in points) if stable else None
        ),
        first_consensus_quantiles=(
            tuple(quantile(first, point) for point in points) if first else None
        ),
        histogram=pooled_histogram(histograms) if histograms else None,
        mean_curve=mean_curve,
    )
