"""Benchmark E14 — seed-list throughput of the native engine.

Measures what one native call per seed list buys on large nets:
``Simulator.run_many`` hands the whole seed list to the native stepper,
which seeds every generator inside C and picks transitions through blocked
weight sums in ``O(sqrt(|T|))`` per step.  The sweep
(:func:`experiment_e14_ensemble_throughput`) times 64- and 128-repetition
ensembles on the seeded E11 random nets against the compiled engine where
it builds (the 1000-transition net; every native row is checked
bit-identical to it) and against E11's extrapolated reference-engine
baseline on the 5000-50000-transition nets (checked against a short
reference run), so the benchmark doubles as an equivalence check.

Asserted on every row: >= 10x at 64 repetitions and >= 5x at 128 (the
softer floor for the longer ensemble, whose baseline is the sweep's most
timing-noise-exposed).

Data points land in ``BENCH_e14.json`` at the repository root so the
engine's performance trajectory is recorded across PRs.
"""

import json
from pathlib import Path

from reporting import report

from repro.experiments import experiment_e14_ensemble_throughput

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_e14.json"

#: Minimum native speedup per repetition count.
FLOORS = {64: 10.0, 128: 5.0}


def test_bench_e14_ensemble_throughput(benchmark):
    table = benchmark.pedantic(
        experiment_e14_ensemble_throughput, rounds=1, iterations=1
    )
    native_rows = [row for row in table.rows if row["engine"] == "native"]
    assert {row["transitions"] for row in native_rows} == {1000, 5000, 20000, 50000}
    assert next(
        row for row in native_rows if row["transitions"] == 1000
    )["baseline"] == "compiled"
    for row in native_rows:
        assert row["speedup"] >= FLOORS[row["reps"]], (
            f"native seed list at {row['transitions']} transitions, "
            f"{row['reps']} repetitions: {row['speedup']:.2f}x vs {row['baseline']}"
        )

    payload = {
        "title": table.title,
        "notes": table.notes,
        "rows": table.rows,
    }
    ARTIFACT_PATH.write_text(
        json.dumps({"ensemble_throughput": payload}, indent=2, sort_keys=True)
        + "\n"
    )
    report(table)
