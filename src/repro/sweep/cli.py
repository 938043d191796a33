"""Command-line entry point for sweep execution: ``python -m repro.sweep``.

Five subcommands:

``run``
    Execute (or resume) a sweep: ``--spec`` names a JSON spec file (see
    ``template``), ``--store`` the live result store (a ``.sqlite`` file;
    CSV and JSON lines are rendered from it by ``export``).
    Running against an existing store **resumes** it: ``done`` cells are
    skipped, everything else is (re)run.  ``--max-cells N`` stops after N
    cells — the controlled-interruption knob the CI smoke job uses to
    exercise resume.  A spec with ``"analytics": true`` additionally
    extracts trajectory analytics in the workers and persists the derived
    columns (render them with ``python -m repro.analytics report``).

``workers``
    The fault-tolerant multi-runner mode: start ``--runners N`` independent
    claim-loop runner processes draining one shared ``.sqlite`` store.
    Launchers on *different hosts* pointing at the same path (a shared
    filesystem) cooperate the same way — the claim transactions serialize
    through sqlite.  Runners heartbeat their leases, survive crashed and
    hung cells (retry with exponential backoff, then park as ``error``),
    adopt cells of SIGKILLed peers once their leases expire, and drain
    gracefully on SIGTERM.  ``--fault-plan`` injects a deterministic fault
    script into one runner (``--fault-runner``) for chaos testing.

``export``
    Render a store's rows as ``.csv`` or ``.jsonl`` (or copy them into
    another ``.sqlite`` store).  The export depends only on the rows, so a
    store drained by several runners, or killed and resumed, exports byte
    for byte what an uninterrupted single-process ``run`` of the same spec
    exports (the CI jobs' comparisons).

``show``
    Render a store as an aligned plain-text table.

``show`` and ``export`` only read: a ``--store`` path that does not exist
is an error (exit 2), never a new empty store.

``template``
    Print an example spec JSON (the axes and their defaults) to adapt.

Examples
--------
::

    python -m repro.sweep template > sweep.json
    python -m repro.sweep run --spec sweep.json --store results.sqlite --workers 2
    python -m repro.sweep workers --spec sweep.json --store grid.sqlite --runners 4
    python -m repro.sweep export --store results.sqlite --to results.csv
    python -m repro.sweep show --store results.sqlite
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from pathlib import Path
from typing import Dict, List, Optional

from ..obs import trace as _obs_trace
from .dbstore import SQLITE_SUFFIXES, SqliteResultStore, open_store
from .runner import SweepRunner, claim_worker, to_experiment_table
from .spec import SweepSpec, available_sweep_protocols
from .store import StoreCorruptionError, export_rows

__all__ = ["main"]

_TEMPLATE = SweepSpec(
    protocols=("majority", ("succinct", {"threshold": 8})),
    populations=(25, 50),
    schedulers=("uniform",),
    engines=("compiled", "reference"),
    repetitions=4,
    master_seed=2022,
    max_steps=20000,
    stability_window=500,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description=(
            "Grid sweeps of protocol simulations with incremental, resumable "
            "result tables."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="execute (or resume) a sweep spec against a store"
    )
    run.add_argument(
        "--spec", required=True, metavar="FILE",
        help="JSON sweep spec (see the 'template' subcommand)",
    )
    run.add_argument(
        "--store", required=True, metavar="FILE",
        help="live store path (.sqlite); reused stores are resumed",
    )
    run.add_argument(
        "--backend", choices=("serial", "process"), default="process",
        help="run cells in-process or over a persistent worker pool",
    )
    run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --backend process (default: CPU count)",
    )
    run.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after attempting N cells (resume later to finish)",
    )
    run.add_argument(
        "--on-error", choices=("raise", "continue"), default="raise",
        help="abort on the first failing cell (default) or record and continue",
    )
    run.add_argument(
        "--no-retry-errors", action="store_true",
        help="on resume, skip cells previously recorded as errors",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    workers = commands.add_parser(
        "workers",
        help="start N claim-loop runners draining one shared .sqlite store",
    )
    workers.add_argument(
        "--spec", required=True, metavar="FILE",
        help="JSON sweep spec (see the 'template' subcommand)",
    )
    workers.add_argument(
        "--store", required=True, metavar="FILE",
        help="shared claim store path (.sqlite); created if absent",
    )
    workers.add_argument(
        "--runners", type=int, default=2, metavar="N",
        help="claim-loop runner processes to start (default: 2; 1 runs "
             "in-process)",
    )
    workers.add_argument(
        "--owner-prefix", default="runner", metavar="NAME",
        help="claim owner ids are NAME-0..NAME-(N-1); give each *host* of a "
             "multi-host fleet a distinct prefix (default: runner)",
    )
    workers.add_argument(
        "--backend", choices=("serial", "process"), default="process",
        help="per-runner cell execution backend (default: process)",
    )
    workers.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="pool processes per runner for --backend process "
             "(default: CPU count)",
    )
    workers.add_argument(
        "--lease", type=float, default=None, metavar="SECONDS",
        help="claim lease duration; an expired lease makes the cell "
             "claimable by other runners (default: 60)",
    )
    workers.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="lease-extension interval while a cell runs (default: lease/3)",
    )
    workers.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="failed-cell retries before parking it as error (default: 3)",
    )
    workers.add_argument(
        "--backoff", type=float, default=None, metavar="SECONDS",
        help="retry backoff base; attempt k waits base*2^(k-1) (default: 1)",
    )
    workers.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per cell ensemble (--backend process "
             "only); expiry counts as a cell failure (default: none)",
    )
    workers.add_argument(
        "--idle-wait", type=float, default=0.2, metavar="SECONDS",
        help="poll interval while waiting out other runners' claims and "
             "backoff windows (default: 0.2)",
    )
    workers.add_argument(
        "--no-wait", action="store_true",
        help="exit when no cell is claimable instead of waiting for "
             "stragglers to drain",
    )
    workers.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="deterministic fault plan (e.g. 'mid-cell@1:kill') injected "
             "into the runner selected by --fault-runner",
    )
    workers.add_argument(
        "--fault-runner", type=int, default=0, metavar="INDEX",
        help="runner index receiving --fault-plan (default: 0)",
    )
    workers.add_argument(
        "--quiet", action="store_true", help="suppress per-claim progress lines"
    )

    export = commands.add_parser(
        "export", help="render a store's rows as .csv or .jsonl"
    )
    export.add_argument(
        "--store", required=True, metavar="FILE",
        help="source store (.sqlite)",
    )
    export.add_argument(
        "--to", required=True, metavar="FILE",
        help="destination path (.csv, .jsonl or .sqlite); its suffix picks "
             "the format",
    )

    show = commands.add_parser("show", help="render a result store as text")
    show.add_argument("--store", required=True, metavar="FILE")

    commands.add_parser(
        "template",
        help=(
            "print an example spec JSON (available protocols: "
            + ", ".join(available_sweep_protocols()) + ")"
        ),
    )
    return parser


def _command_run(args: argparse.Namespace) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = SweepSpec.from_json(handle.read())
    except FileNotFoundError:
        print(f"spec file not found: {args.spec}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"invalid sweep spec: {error}", file=sys.stderr)
        return 2
    try:
        store = open_store(args.store)
    except ValueError as error:
        print(f"cannot open store: {error}", file=sys.stderr)
        return 2
    runner = SweepRunner(
        spec,
        store,
        backend=args.backend,
        max_workers=args.workers,
        retry_errors=not args.no_retry_errors,
    )
    progress = None if args.quiet else print
    try:
        report = runner.run(
            max_cells=args.max_cells, on_error=args.on_error, progress=progress
        )
    except StoreCorruptionError as error:
        # Typically: the spec file was edited (axes, master seed) after the
        # store was written — resuming would mix incompatible tables.
        print(f"store does not match this spec: {error}", file=sys.stderr)
        return 2
    finally:
        store.close()
    skipped = f"{report.skipped} skipped (already done)"
    if report.skipped_errors:
        skipped = (
            f"{report.skipped} skipped ({report.skipped_errors} of them "
            "previously errored)"
        )
    print(
        f"sweep: {report.total} cells — {report.executed} executed, "
        f"{skipped}, {report.failed} failed, "
        f"{report.remaining} remaining -> {args.store}"
    )
    if report.remaining:
        print("re-run the same command to resume the remaining cells")
    # Deliberate interruption (--max-cells) is not a failure; error rows —
    # fresh or skipped over — are.
    return 1 if (report.failed or report.skipped_errors) else 0


def _workers_child(
    spec_json: str,
    store_path: str,
    owner: str,
    fault_plan: Optional[str],
    options: Dict[str, object],
    quiet: bool,
) -> None:
    """One launcher-spawned runner process (module-level: must pickle)."""
    claim_worker(
        spec_json,
        store_path,
        owner,
        fault_plan=fault_plan,
        progress=None if quiet else print,
        **options,  # type: ignore[arg-type]
    )


def _command_workers(args: argparse.Namespace) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec_json = handle.read()
        spec = SweepSpec.from_json(spec_json)
    except FileNotFoundError:
        print(f"spec file not found: {args.spec}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"invalid sweep spec: {error}", file=sys.stderr)
        return 2
    if not args.store.lower().endswith(SQLITE_SUFFIXES):
        print(
            f"workers requires a claim-capable store (a {'/'.join(SQLITE_SUFFIXES)} "
            f"path), got {args.store!r}",
            file=sys.stderr,
        )
        return 2
    if args.runners < 1:
        print(f"--runners must be at least 1, got {args.runners}", file=sys.stderr)
        return 2
    if args.cell_timeout is not None and args.backend == "serial":
        print(
            "--cell-timeout needs --backend process: a serial runner cannot "
            "interrupt a cell's ensemble",
            file=sys.stderr,
        )
        return 2
    options: Dict[str, object] = dict(
        lease_seconds=args.lease,
        max_retries=args.max_retries,
        backoff_base=args.backoff,
        backend=args.backend,
        max_workers=args.workers,
        cell_timeout=args.cell_timeout,
        heartbeat_interval=args.heartbeat,
        idle_wait=args.idle_wait,
        wait_for_stragglers=not args.no_wait,
    )

    def _plan_for(index: int) -> Optional[str]:
        return args.fault_plan if index == args.fault_runner else None

    crashed: List[str] = []
    if args.runners == 1:
        # In-process: the launcher *is* the runner, so signals aimed at it
        # (the chaos jobs' SIGKILL, an operator's SIGTERM) hit the claim
        # loop directly.
        owner = f"{args.owner_prefix}-0"
        try:
            claim_worker(
                spec_json,
                args.store,
                owner,
                fault_plan=_plan_for(0),
                progress=None if args.quiet else print,
                **options,  # type: ignore[arg-type]
            )
        except StoreCorruptionError as error:
            print(f"store does not match this spec: {error}", file=sys.stderr)
            return 2
    else:
        processes = []
        for index in range(args.runners):
            owner = f"{args.owner_prefix}-{index}"
            process = multiprocessing.Process(
                target=_workers_child,
                args=(
                    spec_json, args.store, owner, _plan_for(index), options,
                    args.quiet,
                ),
                name=owner,
            )
            process.start()
            processes.append(process)
        for process in processes:
            process.join()
        crashed = [
            f"{process.name} (exit {process.exitcode})"
            for process in processes
            if process.exitcode != 0
        ]

    # The launcher's verdict comes from the store, not the runners: a killed
    # runner is expected under chaos, but the grid must end up accounted for.
    store = SqliteResultStore(args.store)
    try:
        counts = store.status_counts()
        unresolved = store.unresolved_count()
    finally:
        store.close()
    done = counts.get("done", 0)
    errors = counts.get("error", 0)
    print(
        f"workers: {len(spec.cells())} cells — {done} done, {errors} error, "
        f"{unresolved} unresolved -> {args.store}"
    )
    if crashed:
        print(f"runners exited abnormally: {', '.join(crashed)}", file=sys.stderr)
    if unresolved:
        print("re-run the same command to resume the remaining cells")
    return 1 if (crashed or errors or unresolved) else 0


def _open_existing(path: str) -> Optional[SqliteResultStore]:
    """Open an existing store for reading; None (after a message) if absent.

    Read-only commands must not create a store: opening a mistyped path
    would otherwise leave an empty database behind and report it empty.
    """
    if not Path(path).exists():
        print(f"no such store: {path}", file=sys.stderr)
        return None
    try:
        return open_store(path)
    except ValueError as error:
        print(f"cannot open store: {error}", file=sys.stderr)
        return None


def _command_export(args: argparse.Namespace) -> int:
    source = _open_existing(args.store)
    if source is None:
        return 2
    try:
        rows = source.rows()
        if args.to.lower().endswith(SQLITE_SUFFIXES):
            with SqliteResultStore(args.to) as destination:
                destination.import_rows(rows)
        else:
            export_rows(rows, args.to)
    except ValueError as error:
        print(f"cannot export: {error}", file=sys.stderr)
        return 2
    finally:
        source.close()
    print(f"exported {len(rows)} rows: {args.store} -> {args.to}")
    return 0


def _command_show(args: argparse.Namespace) -> int:
    store = _open_existing(args.store)
    if store is None:
        return 2
    try:
        if len(store) == 0:
            print(f"store {args.store} is empty")
        else:
            print(to_experiment_table(store, experiment_id="SWEEP").render())
    finally:
        store.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        # REPRO_TRACE=1 traces the sweep (spans land in REPRO_TRACE_PATH).
        # Env knobs are only consulted at CLI entry points like this one —
        # library callers install tracers programmatically.
        _obs_trace.tracer_from_env()
        return _command_run(args)
    if args.command == "workers":
        # The launcher's runner processes call tracer_from_env themselves
        # (claim_worker); installing here too covers the parent's own spans.
        _obs_trace.tracer_from_env()
        return _command_workers(args)
    if args.command == "export":
        return _command_export(args)
    if args.command == "show":
        return _command_show(args)
    print(_TEMPLATE.to_json())
    return 0
