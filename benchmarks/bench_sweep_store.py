"""Benchmark — per-cell cost of the sweep store as the grid grows.

A sweep runner registers its grid, claims cells and commits their rows
through :class:`~repro.sweep.dbstore.SqliteResultStore`.  Each of those must
cost the same per cell whatever the grid size: a claim searches the
``(status, position)`` index instead of scanning the table, registration
reads the next free position once per transaction, and so does a
store-to-store import.  This benchmark times a bare store (no simulation)
on a small and a large grid of the same shape:

* ``register``: :meth:`ensure_batch` of the whole grid, per cell;
* ``claim_next``: the median single-cell claim, over the first cells;
* ``batch of 64``: one :meth:`claim_batch` of 64 cells plus one
  :meth:`finish_batch`, per cell;
* ``import``: :meth:`import_rows` of the drained grid into a fresh store,
  per row.

The per-cell costs of the large grid may be at most
:data:`MAX_GROWTH` times those of the small one.  Without the index, the
median claim grew about fourfold from 160 to 10,000 cells, and the import
per row threefold from 2,000 to 8,000 rows.
"""

import statistics
import tempfile
import time
from pathlib import Path

from reporting import report

from repro.experiments.harness import ExperimentTable
from repro.simulation.statistics import ConvergenceStatistics
from repro.sweep import SqliteResultStore, SweepSpec

SMALL, LARGE = 160, 10_000
CLAIM_SAMPLES = 101
MAX_GROWTH = 2.0

_STATISTICS = ConvergenceStatistics(
    runs=2, converged=2, mean_steps=3.0, median_steps=3.0, max_steps=3,
    min_steps=3, mean_consensus_step=1.0,
)


def _grid(cells):
    spec = SweepSpec(
        protocols=("majority",),
        populations=tuple(range(8, 8 + cells)),
        repetitions=2,
        master_seed=7,
        max_steps=300,
        stability_window=50,
    )
    return [
        (cell.cell_id, cell.keyfields(), spec.cell_seed(cell))
        for cell in spec.cells()
    ]


def _per_cell_costs(directory, cells):
    grid = _grid(cells)
    store = SqliteResultStore(directory / f"grid{cells}.sqlite")
    start = time.perf_counter()
    store.ensure_batch(grid)
    register = (time.perf_counter() - start) / cells
    claims, durations = [], []
    for _ in range(CLAIM_SAMPLES):
        start = time.perf_counter()
        claims.append(store.claim_next("bench"))
        durations.append(time.perf_counter() - start)
    claim_next = statistics.median(durations)
    store.finish_batch([(claim, _STATISTICS, {}) for claim in claims])
    start = time.perf_counter()
    batch = store.claim_batch("bench", 64)
    store.finish_batch([(claim, _STATISTICS, {}) for claim in batch])
    batched = (time.perf_counter() - start) / len(batch)
    while True:
        rest = store.claim_batch("bench", 512)
        if not rest:
            break
        store.finish_batch([(claim, _STATISTICS, {}) for claim in rest])
    rows = store.rows()
    store.close()
    target = SqliteResultStore(directory / f"import{cells}.sqlite")
    start = time.perf_counter()
    target.import_rows(rows)
    imported = (time.perf_counter() - start) / cells
    target.close()
    return {
        "register": register,
        "claim_next": claim_next,
        "batch of 64": batched,
        "import": imported,
    }


def run_store_experiment():
    with tempfile.TemporaryDirectory() as directory:
        small = _per_cell_costs(Path(directory), SMALL)
        large = _per_cell_costs(Path(directory), LARGE)
    table = ExperimentTable(
        experiment_id="sweep-store",
        title=f"sweep store, microseconds per cell at {SMALL} and {LARGE} cells",
        columns=["operation", f"{SMALL} cells", f"{LARGE} cells", "growth"],
        notes=f"bare SqliteResultStore, no simulation; growth bound {MAX_GROWTH}x",
    )
    for operation in small:
        table.add_row(**{
            "operation": operation,
            f"{SMALL} cells": small[operation] * 1e6,
            f"{LARGE} cells": large[operation] * 1e6,
            "growth": large[operation] / small[operation],
        })
    return table


def test_bench_sweep_store(benchmark):
    table = benchmark.pedantic(run_store_experiment, rounds=1, iterations=1)
    report(table)
    for row in table.rows:
        assert row["growth"] <= MAX_GROWTH, (
            f"{row['operation']} costs {row['growth']:.2f}x more per cell at "
            f"{LARGE} cells than at {SMALL} (bound {MAX_GROWTH}x)"
        )
