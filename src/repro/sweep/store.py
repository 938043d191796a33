"""The sweep result table's schema, and its CSV / JSON-lines renderings.

One row per grid cell, py_experimenter style: the keyfields identify the
cell, a ``status`` column tracks its lifecycle (``created`` → ``running`` →
``done`` / ``error``), and the result columns carry the cell's convergence
statistics once it completes.  The live table is always a
:class:`~repro.sweep.dbstore.SqliteResultStore`; this module holds what
every rendering of it shares:

* the fixed column set :data:`COLUMNS` and the status values,
* the column values of a ``done`` row (:func:`_done_values`) and the
  one-line normalization of ``error`` messages,
* the two export renderers behind ``python -m repro.sweep export``
  (:func:`export_rows`): CSV and JSON lines.

Rows render in cell-registration order (= the spec's deterministic grid
order) and every value renders through a fixed format, so two sweeps of the
same spec — serial or process-parallel, straight through or killed and
resumed, one runner or many — export **byte-identical** files.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

from .spec import KEYFIELDS

__all__ = [
    "COLUMNS",
    "EXPORT_SUFFIXES",
    "STATUS_CREATED",
    "STATUS_DONE",
    "STATUS_ERROR",
    "STATUS_RUNNING",
    "StoreCorruptionError",
    "export_rows",
    "normalize_error_message",
]

STATUS_CREATED = "created"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_ERROR = "error"
_STATUSES = (STATUS_CREATED, STATUS_RUNNING, STATUS_DONE, STATUS_ERROR)

#: The trajectory-analytics columns persisted per cell: predicate accuracy
#: (scored for every sweep whose protocol registers a predicate), the
#: convergence-time quantiles, and the top fired transitions — the latter two
#: filled only when the spec enables analytics extraction.
ANALYTICS_COLUMNS = (
    "accuracy",
    "consensus_q10",
    "consensus_q50",
    "consensus_q90",
    "top_transitions",
)

#: The fixed column set: the cell identity, its keyfields, the seed and
#: status, then the convergence statistics and trajectory analytics (None
#: until the cell is done).
COLUMNS = (
    ("cell",) + KEYFIELDS
    + (
        "seed",
        "status",
        "runs",
        "converged",
        "convergence_rate",
        "mean_steps",
        "median_steps",
        "min_steps",
        "max_steps",
        "mean_consensus_step",
    )
    + ANALYTICS_COLUMNS
    + ("error",)
)

_INT_COLUMNS = frozenset(
    {"population", "seed", "runs", "converged", "min_steps", "max_steps"}
)
_FLOAT_COLUMNS = frozenset(
    {
        "convergence_rate", "mean_steps", "median_steps", "mean_consensus_step",
        "accuracy", "consensus_q10", "consensus_q50", "consensus_q90",
    }
)
#: Statistic/diagnostic columns cleared when a cell (re)starts.
_RESULT_COLUMNS = (
    "runs", "converged", "convergence_rate", "mean_steps", "median_steps",
    "min_steps", "max_steps", "mean_consensus_step",
) + ANALYTICS_COLUMNS + ("error",)


class StoreCorruptionError(ValueError):
    """The store disagrees with the sweep run against it, or is damaged."""


def _optional_float(value) -> Optional[float]:
    return None if value is None else float(value)


def _optional_int(value) -> Optional[int]:
    return None if value is None else int(value)


def normalize_error_message(message: object) -> str:
    """Collapse an exception message onto one physical line.

    Newlines (any flavour) become the literal two-character sequence
    ``\\n``, so every exported row stays one physical line: a CSV reader
    with universal-newline translation would otherwise turn a raw ``\\r`` /
    ``\\r\\n`` inside a field into ``\\n``, and line-oriented tools would see
    a multi-line traceback as several rows.
    """
    text = str(message).replace("\r\n", "\n").replace("\r", "\n")
    return text.replace("\n", "\\n")


def _done_values(
    statistics,
    accuracy: Optional[float] = None,
    consensus_quantiles: Optional[Sequence[Optional[float]]] = None,
    top_transitions: Optional[str] = None,
) -> Dict[str, object]:
    """The column updates recording a completed cell.

    ``statistics`` is a
    :class:`~repro.simulation.statistics.ConvergenceStatistics`.  Float
    columns are coerced to ``float`` (``statistics.median`` can be an int)
    so the rendered value is format-stable across resume cycles.
    ``accuracy`` is the predicate-accuracy rate (None when the protocol
    registers no predicate); ``consensus_quantiles`` the (q10, q50, q90)
    convergence-time quantiles and ``top_transitions`` their rendered top-k
    histogram — both None when the sweep runs without analytics extraction.
    """
    if consensus_quantiles is not None and len(consensus_quantiles) != 3:
        raise ValueError(
            "consensus_quantiles must supply exactly (q10, q50, q90), "
            f"got {len(consensus_quantiles)} values"
        )
    quantiles = consensus_quantiles or (None, None, None)
    return {
        "status": STATUS_DONE,
        "error": None,
        "runs": int(statistics.runs),
        "converged": int(statistics.converged),
        "convergence_rate": float(statistics.convergence_rate),
        "mean_steps": _optional_float(statistics.mean_steps),
        "median_steps": _optional_float(statistics.median_steps),
        "min_steps": _optional_int(statistics.min_steps),
        "max_steps": _optional_int(statistics.max_steps),
        "mean_consensus_step": _optional_float(statistics.mean_consensus_step),
        "accuracy": _optional_float(accuracy),
        "consensus_q10": _optional_float(quantiles[0]),
        "consensus_q50": _optional_float(quantiles[1]),
        "consensus_q90": _optional_float(quantiles[2]),
        "top_transitions": (
            None if top_transitions is None else str(top_transitions)
        ),
    }


# ----------------------------------------------------------------------
# Export renderers
# ----------------------------------------------------------------------
def _render_csv(rows: Sequence[Mapping[str, object]]) -> str:
    """A header row, then one row per cell; ``None`` is the empty field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow(
            "" if row[column] is None else str(row[column]) for column in COLUMNS
        )
    return buffer.getvalue()


def _render_jsonl(rows: Sequence[Mapping[str, object]]) -> str:
    """One compact JSON object per cell row."""
    return "".join(
        json.dumps(
            {column: row[column] for column in COLUMNS},
            sort_keys=False,
            separators=(",", ":"),
        )
        + "\n"
        for row in rows
    )


#: Export formats by file suffix.
EXPORT_SUFFIXES: Dict[str, Callable[[Sequence[Mapping[str, object]]], str]] = {
    ".csv": _render_csv,
    ".jsonl": _render_jsonl,
    ".ndjson": _render_jsonl,
    ".json": _render_jsonl,
}


def export_rows(
    rows: Sequence[Mapping[str, object]], path: Union[str, Path]
) -> None:
    """Write ``rows`` (a store's :meth:`rows`) to ``path``, by its suffix.

    ``.csv`` renders a header plus one CSV row per cell; ``.jsonl`` /
    ``.ndjson`` / ``.json`` render one JSON object per line.
    """
    path = Path(path)
    render = EXPORT_SUFFIXES.get(path.suffix.lower())
    if render is None:
        raise ValueError(
            f"cannot export to {path.name!r}; use a "
            f"{'/'.join(EXPORT_SUFFIXES)} path"
        )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(render(rows))
