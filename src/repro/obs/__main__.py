"""``python -m repro.obs`` — render a JSONL trace file.

Subcommands:

* ``summary <trace>`` — per-layer latency breakdown (count/total/mean/max
  per span kind), per-engine runs, steps and steps/s from the ``run``
  spans, and point-event tallies.
* ``tail <trace> [-n N]`` — the last N events as one-liners.
* ``timeline <trace>`` — the span tree (serve job → dispatch → worker
  chunks → runs; sweep cell → worker chunks → runs), children in emission
  order.
* ``canon <trace>`` — the canonical deterministic rendering; byte-identical
  across serial and process backends for a fixed seed (the cross-backend
  determinism check uses ``cmp`` on two of these).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import render


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render a repro JSONL trace file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser(
        "summary", help="per-layer latency breakdown and per-engine throughput"
    )
    p_summary.add_argument("trace", help="path to a JSONL trace file")

    p_tail = sub.add_parser("tail", help="show the last N events")
    p_tail.add_argument("trace", help="path to a JSONL trace file")
    p_tail.add_argument(
        "-n", "--count", type=int, default=10, help="events to show (default 10)"
    )

    p_timeline = sub.add_parser("timeline", help="render the span tree")
    p_timeline.add_argument("trace", help="path to a JSONL trace file")

    p_canon = sub.add_parser(
        "canon", help="canonical deterministic rendering (for diffing)"
    )
    p_canon.add_argument("trace", help="path to a JSONL trace file")
    p_canon.add_argument(
        "-o", "--output", default=None,
        help="write to this file instead of stdout",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        events = render.load_events(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "summary":
        print(render.summary(events))
    elif args.command == "tail":
        print(render.tail(events, count=args.count))
    elif args.command == "timeline":
        print(render.timeline(events))
    elif args.command == "canon":
        text = render.canon(events)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
