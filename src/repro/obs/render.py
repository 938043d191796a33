"""Trace-file analysis: summary, tail, timeline, canonical rendering.

Backs ``python -m repro.obs``.  Everything here is a pure function from a
parsed event list to text, so the CLI and the tests share one code path.

The *canonical rendering* (:func:`canon`) is the cross-backend determinism
check: it keeps only the span kinds whose content is fully determined by
(spec, seed) — ``run``, ``ensemble``, ``sweep-cell`` — and strips every
field that legitimately varies between executions (ids, parents, pids,
timestamps, durations, and the attribute keys on the denylist below).
Because worker-side events are adopted in chunk submission order, a fixed
seed renders byte-identically across the serial and process backends.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "CANON_KINDS",
    "NONDETERMINISTIC_ATTRS",
    "canon",
    "load_events",
    "summary",
    "tail",
    "timeline",
]

#: Span kinds whose canonical content is determined by (spec, seed) alone.
CANON_KINDS: Tuple[str, ...] = ("ensemble", "run", "sweep-cell")

#: Attribute keys stripped from the canonical rendering: anything timing-,
#: placement-, or backend-dependent.
NONDETERMINISTIC_ATTRS = frozenset(
    {
        "backend",
        "chunk",
        "chunks",
        "exec_seconds",
        "lock_wait",
        "owner",
        "pid",
        "queue_wait",
        "seconds",
        "workers",
    }
)

#: Fixed layer order for the summary breakdown — outermost first.  Kinds
#: not listed sort alphabetically after these.
_LAYER_ORDER: Tuple[str, ...] = (
    "serve-job",
    "sweep-cell",
    "claim",
    "ensemble",
    "dispatch",
    "chunk",
    "run",
)


def load_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file; raises ``ValueError`` naming a bad line."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: expected an object")
            events.append(record)
    return events


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def _kind_sort_key(kind: str) -> Tuple[int, str]:
    try:
        return (_LAYER_ORDER.index(kind), kind)
    except ValueError:
        return (len(_LAYER_ORDER), kind)


def summary(events: Iterable[Dict[str, Any]]) -> str:
    """A per-layer latency breakdown: count, total, mean, max per span kind.

    Under it, one row per engine named by a ``run`` span: its runs, summed
    steps, and summed steps over summed run time.
    """
    spans: Dict[str, List[float]] = {}
    engines: Dict[str, Tuple[int, int, float]] = {}
    points: Dict[str, int] = {}
    errors = 0
    for record in events:
        ev = record.get("ev")
        if ev == "span":
            kind = str(record.get("kind"))
            dur = float(record.get("dur", 0.0))
            spans.setdefault(kind, []).append(dur)
            attrs = record.get("attrs")
            if kind == "run" and isinstance(attrs, dict) and "engine" in attrs:
                engine = str(attrs["engine"])
                runs, steps, seconds = engines.get(engine, (0, 0, 0.0))
                engines[engine] = (
                    runs + 1, steps + int(attrs.get("steps", 0)), seconds + dur
                )
            if record.get("error"):
                errors += 1
        elif ev == "event":
            kind = str(record.get("kind"))
            points[kind] = points.get(kind, 0) + 1
    lines: List[str] = []
    header = f"{'layer':<12} {'count':>7} {'total':>12} {'mean':>12} {'max':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for kind in sorted(spans, key=_kind_sort_key):
        durs = spans[kind]
        total = sum(durs)
        lines.append(
            f"{kind:<12} {len(durs):>7} {_fmt_seconds(total):>12} "
            f"{_fmt_seconds(total / len(durs)):>12} {_fmt_seconds(max(durs)):>12}"
        )
    if not spans:
        lines.append("(no spans)")
    if engines:
        lines.append("")
        header = f"{'engine':<12} {'runs':>7} {'steps':>12} {'steps/s':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for engine in sorted(engines):
            runs, steps, seconds = engines[engine]
            rate = f"{steps / seconds:.0f}" if seconds > 0 else "-"
            lines.append(f"{engine:<12} {runs:>7} {steps:>12} {rate:>12}")
    if points:
        lines.append("")
        lines.append("point events:")
        for kind in sorted(points):
            lines.append(f"  {kind}: {points[kind]}")
    if errors:
        lines.append("")
        lines.append(f"spans with errors: {errors}")
    return "\n".join(lines)


def tail(events: List[Dict[str, Any]], count: int = 10) -> str:
    """The last ``count`` events as compact one-liners."""
    lines: List[str] = []
    for record in events[-count:]:
        ev = record.get("ev")
        if ev == "span":
            dur = _fmt_seconds(float(record.get("dur", 0.0)))
            lines.append(
                f"span  {record.get('kind'):<12} {record.get('name')} "
                f"dur={dur} attrs={_compact_attrs(record)}"
            )
        elif ev == "event":
            lines.append(
                f"event {record.get('kind'):<12} {record.get('name')} "
                f"attrs={_compact_attrs(record)}"
            )
        else:
            lines.append(f"{ev:<5} {_compact_attrs(record)}")
    return "\n".join(lines) if lines else "(empty trace)"


def _compact_attrs(record: Dict[str, Any]) -> str:
    attrs = record.get("attrs")
    if not isinstance(attrs, dict) or not attrs:
        return "{}"
    body = ", ".join(f"{key}={attrs[key]!r}" for key in sorted(attrs))
    return "{" + body + "}"


def timeline(events: List[Dict[str, Any]]) -> str:
    """The span tree, children in emission order, point events inline."""
    nodes: Dict[int, Dict[str, Any]] = {}
    order: Dict[int, int] = {}
    children: Dict[Optional[int], List[int]] = {}
    for index, record in enumerate(events):
        if record.get("ev") not in ("span", "event"):
            continue
        node_id = record.get("id")
        if not isinstance(node_id, int):
            continue
        nodes[node_id] = record
        order[node_id] = index
        parent = record.get("parent")
        children.setdefault(
            parent if isinstance(parent, int) else None, []
        ).append(node_id)
    # Spans emit on close, so a parent's line follows its children's — the
    # full scan above sees every id before tree-building.  Children whose
    # parent id never appeared at all are re-homed as roots.
    roots: List[int] = []
    for parent, ids in list(children.items()):
        if parent is None or parent in nodes:
            continue
        roots.extend(ids)
        del children[parent]
    roots.extend(children.get(None, []))
    roots.sort(key=lambda node_id: order[node_id])
    lines: List[str] = []

    def walk(node_id: int, depth: int) -> None:
        record = nodes[node_id]
        indent = "  " * depth
        if record.get("ev") == "span":
            dur = _fmt_seconds(float(record.get("dur", 0.0)))
            lines.append(
                f"{indent}{record.get('name')} [{record.get('kind')}] "
                f"dur={dur} pid={record.get('pid')} "
                f"attrs={_compact_attrs(record)}"
            )
        else:
            lines.append(
                f"{indent}* {record.get('name')} [{record.get('kind')}] "
                f"attrs={_compact_attrs(record)}"
            )
        for child in sorted(children.get(node_id, []), key=lambda i: order[i]):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines) if lines else "(no spans)"


def canon(events: Iterable[Dict[str, Any]]) -> str:
    """The canonical deterministic rendering (see module docstring).

    One JSON object per line, keys sorted, in file order — byte-comparable
    across backends for a fixed seed.
    """
    lines: List[str] = []
    for record in events:
        if record.get("ev") != "span":
            continue
        kind = record.get("kind")
        if kind not in CANON_KINDS:
            continue
        attrs = record.get("attrs")
        kept = {
            key: value
            for key, value in (attrs.items() if isinstance(attrs, dict) else ())
            if key not in NONDETERMINISTIC_ATTRS
        }
        canonical: Dict[str, Any] = {
            "kind": kind,
            "name": record.get("name"),
            "attrs": kept,
        }
        if record.get("error"):
            canonical["error"] = record["error"]
        lines.append(json.dumps(canonical, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n" if lines else ""
