"""The ``sweep-grid`` workload: ``SweepRunner(spec, store).run()`` over
hundreds of tiny cells, on a fresh sqlite store per sweep and a 1-worker
process pool.  Store writes, pool dispatch and cell building dominate;
simulation is a small share.  With two workers, the run-to-run spread
followed how much of the second core the shared host gave, not the
program.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, List, Mapping, Tuple

from repro.obs import trace
from repro.sweep import STATUS_DONE, SqliteResultStore, SweepRunner, SweepSpec

from .common import (
    Outcome,
    SpanTree,
    check_repeats,
    derive_seed,
    digest,
    median,
    own_and_children_peak_rss_mb,
    protocol_from_cell,
    reference_loop_s,
    repeat,
    report_end_to_end,
    report_ops,
    report_split,
    report_stepper,
    setup_then,
    trace_overhead,
)

#: Set-ups timed before the first sweep and after each one.
SETUP_REPEATS = 5
MIN_SWEEPS = 2


def sweep_grid_spec(seed: int) -> SweepSpec:
    return SweepSpec(
        protocols=[
            "majority",
            ("majority", {"a_fraction": 0.4}),
            ("modulo", {"modulus": 3, "remainder": 1}),
            ("modulo", {"modulus": 5, "remainder": 2}),
            ("succinct", {"threshold": 4}),
            ("succinct", {"threshold": 8}),
            ("flock", {"threshold": 3}),
            ("flock", {"threshold": 5}),
        ],
        populations=list(range(10, 210, 10)),
        schedulers=["uniform", "transition"],
        engines=["auto"],
        repetitions=2,
        master_seed=derive_seed(seed, "sweep-grid"),
        max_steps=300,
        stability_window=50,
    )


WORKERS = 1


# ----------------------------------------------------------------------
# The store, timed from outside
# ----------------------------------------------------------------------
class TimedStore(SqliteResultStore):
    """``SqliteResultStore`` with every public method in a ``bench.store``
    span, so a runner that moves to other methods (``claim_next``,
    ``finish_claim``) stays measured.

    Only outermost calls get a span (``status`` calls ``get``, for
    example), so store spans never nest.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._local = threading.local()
        super().__init__(*args, **kwargs)


def _timed(name: str, method: Any) -> Any:
    @functools.wraps(method)
    def timed(self: TimedStore, *args: Any, **kwargs: Any) -> Any:
        local = self._local
        if getattr(local, "inside", False):
            return method(self, *args, **kwargs)
        local.inside = True
        try:
            with trace.span("store." + name, kind="bench.store", method=name):
                return method(self, *args, **kwargs)
        finally:
            local.inside = False

    return timed


for _name, _method in inspect.getmembers(SqliteResultStore, inspect.isfunction):
    if not _name.startswith("_"):
        setattr(TimedStore, _name, _timed(_name, _method))


# ----------------------------------------------------------------------
# One sweep
# ----------------------------------------------------------------------
class SweepPass:
    """The measurements and outputs of one ``SweepRunner.run``."""

    def __init__(self, spec: SweepSpec, path: Path, outcome: Outcome) -> None:
        store = TimedStore(path)
        runner = SweepRunner(spec, store, backend="process", max_workers=WORKERS)
        stamps: List[float] = []
        start = time.perf_counter()
        with trace.span("sweep", kind="bench.sweep"):
            report = runner.run(progress=lambda line: stamps.append(time.perf_counter()))
        self.wall = time.perf_counter() - start
        self.cell_ms = [
            (stamp - previous) * 1000.0
            for previous, stamp in zip([start] + stamps, stamps)
        ]
        rows = store.rows()
        store.close()
        self.cells = len(rows)
        self.digest = digest(rows)
        outcome.check(report.failed == 0, f"sweep report {report}")
        for row in rows:
            outcome.check(
                row["status"] == STATUS_DONE and row["runs"] == spec.repetitions,
                f"cell {row['cell']} ended {row['status']}: {row.get('error')}",
            )


def run_sweeps(
    spec: SweepSpec, work: Path, tag: str, outcome: Outcome,
    between: Callable[[], float], seconds: float = 0.0, count: int = 0,
) -> Tuple[List[SweepPass], List[float]]:
    """Sweep for ``seconds`` or ``count`` times.  Every sweep gets a fresh
    store, since a reused one would resume and skip every done cell."""
    paths = (work / f"{tag}{index}.sqlite" for index in itertools.count())
    return repeat(
        lambda: SweepPass(spec, next(paths), outcome), between, seconds, count, MIN_SWEEPS,
    )


def run(workload: str, seed: int, seconds: float, traced: bool, work: Path,
        outcome: Outcome) -> None:
    spec = sweep_grid_spec(seed)
    setup_paths = (work / f"setup{index}.sqlite" for index in itertools.count())
    setups: List[float] = []

    def setup() -> None:
        """Build the sweep spec and create (and close) its store."""
        sweep_grid_spec(seed)
        TimedStore(next(setup_paths)).close()

    plain, plain_refs = run_sweeps(
        spec, work, "plain", outcome,
        setup_then(reference_loop_s, setup, SETUP_REPEATS, setups),
        seconds=seconds / 2 if traced else seconds,
    )
    if not traced:
        check_repeats(outcome, [p.digest for p in plain], "sweep")
        report_end_to_end(
            outcome, median(setups), own_and_children_peak_rss_mb(),
            [(p.cells, p.wall, ref) for p, ref in zip(plain, plain_refs)],
        )
        return

    with trace.capture_events() as events:
        traced_passes, traced_refs = run_sweeps(
            spec, work, "traced", outcome, reference_loop_s, count=len(plain)
        )
    check_repeats(outcome, [p.digest for p in plain + traced_passes], "sweep")
    overhead = trace_overhead(
        [(p.wall, ref) for p, ref in zip(plain, plain_refs)],
        [(p.wall, ref) for p, ref in zip(traced_passes, traced_refs)],
    )
    report_layers(plain, traced_passes, overhead, SpanTree(events), outcome)


def report_layers(plain: List[SweepPass], traced: List[SweepPass], overhead: float,
                  tree: SpanTree, outcome: Outcome) -> None:
    """Per-layer metrics, per sweep, from the traced sweeps.  The cell loop
    and the pool's ``dispatch`` are the batch layer; the store is the entry
    layer; the runner's code outside cells and store calls (chiefly pool
    shutdown) is the remainder."""
    layers = {
        "run": "stepper.wall_s",
        "sweep-cell": "batch.self_s",
        "dispatch": "batch.self_s",
        "bench.store": "entry.self_s",
    }
    split = tree.self_split(layers, os.getpid(), root_kind="bench.sweep")
    report_split(outcome, split, len(traced), sum(p.wall for p in traced), overhead)

    def protocol_of(run_span: Mapping[str, Any]) -> Any:
        cell = tree.attr_up(run_span, "cell")
        return None if cell is None else protocol_from_cell(cell)

    report_stepper(outcome, tree, protocol_of, len(traced))
    report_ops(outcome, [ms for p in plain for ms in p.cell_ms])
