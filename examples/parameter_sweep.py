"""Parameter sweeps: grids of simulation ensembles with resumable tables.

The sweep harness turns the engine/batch stack into a scenario machine: name
the axes once and get back a persisted table with one row per grid cell.
This example:

1. declares a `SweepSpec` over two protocol constructions, three population
   sizes and two engines,
2. runs it over the shared persistent worker pool into a sqlite store,
   each cell's row committed as the cell finishes,
3. interrupts a second copy of the sweep halfway and resumes it, showing the
   resumed table exports byte-identically to the uninterrupted one,
4. reads convergence trends (and the built-in cross-engine agreement check)
   out of the finished table.

The same sweep runs from the shell:

    python -m repro.sweep template > sweep.json
    python -m repro.sweep run --spec sweep.json --store results.sqlite --workers 2
    python -m repro.sweep show --store results.sqlite
    python -m repro.sweep export --store results.sqlite --to results.csv

Run with:  python examples/parameter_sweep.py
"""

import tempfile
from pathlib import Path

from repro.sweep import (
    SqliteResultStore,
    SweepRunner,
    SweepSpec,
    export_rows,
    to_experiment_table,
)

SPEC = SweepSpec(
    protocols=("majority", ("succinct", {"threshold": 8})),
    populations=(16, 24, 32),
    schedulers=("uniform",),
    engines=("compiled", "reference"),
    repetitions=4,
    master_seed=2022,
    max_steps=20000,
    stability_window=500,
)


def export_csv(store_path: Path) -> bytes:
    """The store's table rendered as CSV (what ``sweep export`` writes)."""
    csv_path = store_path.with_suffix(".csv")
    with SqliteResultStore(store_path) as store:
        export_rows(store.rows(), csv_path)
    return csv_path.read_bytes()


def run_sweep(directory: Path) -> Path:
    """Run the full grid over the shared process pool, persisting as it goes."""
    store_path = directory / "sweep.sqlite"
    with SqliteResultStore(store_path) as store:
        runner = SweepRunner(SPEC, store, backend="process", max_workers=2)
        report = runner.run(progress=print)
    print(
        f"\nfull sweep: {report.executed}/{report.total} cells executed "
        f"-> {store_path}\n"
    )
    return store_path


def interrupt_and_resume(directory: Path, reference: Path) -> None:
    """Stop after half the grid, resume from the store, compare the exports."""
    store_path = directory / "interrupted.sqlite"
    with SqliteResultStore(store_path) as store:
        half = SweepRunner(SPEC, store, backend="serial").run(
            max_cells=len(SPEC) // 2
        )
    print(f"interrupted after {half.executed} cells ({half.remaining} remaining)")
    with SqliteResultStore(store_path) as store:
        resumed = SweepRunner(SPEC, store, backend="serial").run()
    print(
        f"resumed: {resumed.skipped} cells skipped (already done), "
        f"{resumed.executed} executed"
    )
    identical = export_csv(store_path) == export_csv(reference)
    print(f"resumed table exports byte-identically to the uninterrupted one: "
          f"{identical}\n")
    assert identical


def read_the_table(store_path: Path) -> None:
    """Render the table and extract a convergence trend from its rows."""
    with SqliteResultStore(store_path) as store:
        print(to_experiment_table(store, experiment_id="SWEEP").render())
        all_rows = store.rows()
    rows = [row for row in all_rows if row["engine"] == "compiled"]
    print("\nmean steps to consensus (compiled rows):")
    for row in rows:
        print(
            f"  {row['protocol']:<10} population {row['population']:>3}: "
            f"{row['mean_steps']:>8.1f} steps "
            f"({row['converged']}/{row['runs']} converged)"
        )
    # Engine rows of one grid point share their ensemble seed, so the
    # reference rows must agree exactly — the table double-checks the
    # engines on every sweep.
    by_scope = {}
    for row in all_rows:
        scope = (row["protocol"], row["params"], row["population"])
        by_scope.setdefault(scope, set()).add(
            (row["mean_steps"], row["converged"])
        )
    assert all(len(values) == 1 for values in by_scope.values())
    print("\ncross-engine agreement: every grid point identical on both engines")


def main() -> None:
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        store_path = run_sweep(directory)
        interrupt_and_resume(directory, store_path)
        read_the_table(store_path)


if __name__ == "__main__":
    main()
