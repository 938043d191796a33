"""Text reports and the ``python -m repro.analytics`` command line.

Three subcommands over the analytics subsystem:

``report``
    Render the analytics view of a sweep result store: the cell identity
    columns plus convergence rate, predicate accuracy, convergence-time
    quantiles and the top fired transitions — the derived columns
    ``python -m repro.sweep show`` drowns among the raw statistics.

``hist``
    Run one recorded simulation and print its per-transition firing
    histogram (name, count, fraction of all firings).

``diff``
    Run the *same* seeded simulation twice — different engines and/or
    schedulers — and report the first divergent firing.  Engine-vs-engine
    diffs must come back identical (exit code 0; a divergence exits 1, which
    makes the command a scriptable cross-engine check); scheduler-vs-
    scheduler diffs show where the disciplines split.

Examples
--------
::

    python -m repro.analytics report --store results.sqlite
    python -m repro.analytics hist --protocol majority --population 50 --seed 7
    python -m repro.analytics diff --protocol majority --population 50 --seed 7 \\
        --engine compiled --vs-engine reference
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..experiments.harness import ExperimentTable
from ..simulation.simulator import Simulator
from ..sweep.spec import (
    KEYFIELDS,
    SCHEDULERS,
    available_sweep_protocols,
    build_protocol_and_inputs,
)
from ..sweep.cli import _open_existing
from ..sweep.store import ANALYTICS_COLUMNS
from .diff import describe_diff, diff_results
from .ensemble import top_transitions
from .metrics import firing_histogram

__all__ = ["main", "report_table"]

#: The columns of the ``report`` view: cell identity, a few headline
#: statistics, then every analytics column the store persists (a focused
#: subset of the store's full column set).
REPORT_COLUMNS = KEYFIELDS + (
    "status",
    "runs",
    "convergence_rate",
    "mean_consensus_step",
) + ANALYTICS_COLUMNS


def report_table(
    store, experiment_id: str = "ANALYTICS", title: Optional[str] = None
) -> ExperimentTable:
    """The analytics view of a result store, as an experiment table."""
    table = ExperimentTable(
        experiment_id=experiment_id,
        title=title or "sweep analytics",
        columns=list(REPORT_COLUMNS),
    )
    for row in store.rows():
        table.add_row(**{column: row[column] for column in REPORT_COLUMNS})
    return table


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared how-to-run-one-simulation argument block (hist and diff)."""
    parser.add_argument(
        "--protocol", required=True,
        help="registered protocol name (available: "
        + ", ".join(available_sweep_protocols()) + ")",
    )
    parser.add_argument(
        "--params", default="{}", metavar="JSON",
        help='protocol parameters, e.g. \'{"threshold": 8}\'',
    )
    parser.add_argument(
        "--population", type=int, required=True, help="population size"
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument(
        "--scheduler", choices=tuple(sorted(SCHEDULERS)), default="uniform"
    )
    parser.add_argument("--engine", default="auto", help="simulation engine")
    parser.add_argument("--max-steps", type=int, default=20000)
    parser.add_argument("--stability-window", type=int, default=500)


def _run_recorded(args, scheduler_kind: str, engine: str):
    """One recorded run of the CLI-described simulation."""
    params = json.loads(args.params)
    protocol, inputs = build_protocol_and_inputs(
        args.protocol, args.population, params
    )
    simulator = Simulator(
        protocol,
        scheduler=SCHEDULERS[scheduler_kind](),
        seed=args.seed,
        engine=engine,
    )
    result = simulator.run(
        inputs,
        max_steps=args.max_steps,
        stability_window=args.stability_window,
        record_trajectory=True,
        trajectory_capacity=max(1, args.max_steps),
    )
    return protocol, result


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analytics",
        description="Trajectory analytics: sweep reports, firing histograms, "
        "and trajectory diffs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser(
        "report", help="render the analytics columns of a sweep result store"
    )
    report.add_argument("--store", required=True, metavar="FILE")

    hist = commands.add_parser(
        "hist", help="run one recorded simulation and print its firing histogram"
    )
    _add_run_arguments(hist)
    hist.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N most-fired transitions",
    )

    diff = commands.add_parser(
        "diff",
        help="run the same seeded simulation twice (different engine and/or "
        "scheduler) and locate the first divergent firing",
    )
    _add_run_arguments(diff)
    diff.add_argument(
        "--vs-engine", default=None,
        help="engine of the second run (default: same as --engine)",
    )
    diff.add_argument(
        "--vs-scheduler", choices=tuple(sorted(SCHEDULERS)), default=None,
        help="scheduler of the second run (default: same as --scheduler)",
    )
    return parser


def _command_report(args: argparse.Namespace) -> int:
    store = _open_existing(args.store)
    if store is None:
        return 2
    try:
        if len(store) == 0:
            print(f"store {args.store} is empty")
            return 0
        print(report_table(store).render())
        rows = store.rows()
    finally:
        store.close()
    # top_transitions is the best discriminator available: under analytics
    # it is populated whenever anything fired at all (unlike the quantiles,
    # which are legitimately empty for unconverged ensembles).
    missing = sum(
        1 for row in rows
        if row["status"] == "done" and row["top_transitions"] is None
    )
    if missing:
        print(
            f"note: {missing} done cell(s) carry no analytics columns — "
            'run the sweep with "analytics": true in the spec to fill them'
        )
    return 0


def _command_hist(args: argparse.Namespace) -> int:
    protocol, result = _run_recorded(args, args.scheduler, args.engine)
    histogram = firing_histogram(
        result.trajectory, protocol.petri_net.num_transitions
    )
    total = sum(histogram)
    print(
        f"{args.protocol} population={args.population} seed={args.seed} "
        f"scheduler={args.scheduler}: {result.steps} steps, "
        f"consensus={result.consensus} (step {result.consensus_step})"
    )
    if total == 0:
        print(
            "no transitions fired (the initial configuration is terminal)"
            if result.terminated else "no transitions fired"
        )
        return 0
    table = ExperimentTable(
        experiment_id="HIST",
        title=f"firing histogram ({total} firings)",
        columns=["transition", "fired", "fraction"],
    )
    names = [transition.name for transition in protocol.petri_net.transitions]
    ranked = top_transitions(
        histogram, names, k=args.top if args.top is not None else len(histogram)
    )
    for name, count in ranked:
        table.add_row(transition=name, fired=count, fraction=count / total)
    print(table.render())
    return 0


def _command_diff(args: argparse.Namespace) -> int:
    scheduler_b = args.vs_scheduler or args.scheduler
    engine_b = args.vs_engine or args.engine
    protocol, result_a = _run_recorded(args, args.scheduler, args.engine)
    _, result_b = _run_recorded(args, scheduler_b, engine_b)
    label_a = f"{args.engine}/{args.scheduler}"
    label_b = f"{engine_b}/{scheduler_b}"
    print(f"a: {label_a} -> {result_a.steps} steps, consensus={result_a.consensus}")
    print(f"b: {label_b} -> {result_b.steps} steps, consensus={result_b.consensus}")
    diff = diff_results(result_a, result_b)
    print(
        describe_diff(
            diff, net=protocol.petri_net, label_a=label_a, label_b=label_b
        )
    )
    return 0 if diff.identical else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        return _command_report(args)
    try:
        if args.command == "hist":
            return _command_hist(args)
        return _command_diff(args)
    except (ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
