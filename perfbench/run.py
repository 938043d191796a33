"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 35 --trace 0

Workloads: ``sweep-grid``, ``serve-mixed``, ``certify`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics on
untraced runs; ``--trace 1`` spends half the time untraced and then repeats
the same work traced, and reports the per-layer split.  Every workload
reports every metric that ``BENCHMARK.json`` lists for the mode, in its
unit.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and versions the figures were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-grid", "serve-mixed", "certify")


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def expected_units(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them for the mode."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def main(argv: list) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = expected_units(args.trace)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy

    from perfbench import certify, serve_mixed, sweeps
    from perfbench.common import Outcome, work_dir

    modules = {
        "sweep-grid": sweeps, "serve-mixed": serve_mixed, "certify": certify,
    }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }), flush=True)
    outcome = Outcome()
    with work_dir() as work:
        modules[args.workload].run(
            args.workload, args.seed, args.seconds, bool(args.trace), work, outcome
        )
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    reported = {name: m["unit"] for name, m in outcome.metrics.items()}
    if reported != expected:
        print(f"error: metrics {reported} differ from BENCHMARK.json {expected}",
              file=sys.stderr)
        return 3
    print(outcome.to_json(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
