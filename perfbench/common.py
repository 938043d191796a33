"""Helpers shared by the workloads: results, seeds, statistics, memory,
scratch space, and the per-layer attribution of traced spans."""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: The four paper protocols, in the order every workload reports them.
PROTOCOLS = ("majority", "modulo", "succinct", "flock")


class Outcome:
    """What one invocation reports: operations attempted and failed, and
    the named metrics with their units."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; a mismatch counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": self.attempted > 0 and self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


def derive_seed(seed: int, *scope: object) -> int:
    """A 64-bit seed for ``scope``, derived from the workload seed only."""
    text = "|".join([str(seed)] + [str(part) for part in scope])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def digest(value: object) -> str:
    """A stable hash of a JSON-serialisable value (output checks)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def own_and_children_peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


REFERENCE_ITERATIONS = 100_000


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop of dict stores and integer
    arithmetic, the kind of work the stepper and the request path do.

    On a shared host the speed of the machine drifts by tens of percent
    from one minute to the next, for wall and CPU time alike.  Timed
    between the units of work, the loop tracks the drift, so throughputs
    are reported per reference-loop time.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        table[i & 1023] = total
        total += (i * i) % 7
    return time.perf_counter() - start


def setup_then(reference: Callable[[], float], setup: Callable[[], Any], repeats: int,
               times: List[float]) -> Callable[[], float]:
    """``reference``, after timing ``repeats`` calls of ``setup`` into
    ``times``.  Given to ``repeat``, it samples set-up all through the run:
    the host's fast and slow spells last seconds, so set-ups timed at one
    moment would put a whole run in one spell."""

    def between() -> float:
        for _ in range(repeats):
            start = time.perf_counter()
            setup()
            times.append(time.perf_counter() - start)
        return reference()

    return between


def repeat(unit: Callable[[], Any], reference: Callable[[], float],
           seconds: float = 0.0, count: int = 0,
           minimum: int = 2) -> Tuple[List[Any], List[float]]:
    """Call ``unit`` until ``seconds`` have passed (at least ``minimum``
    times), or exactly ``count`` times.  Returns the results, and for each
    the mean of the ``reference`` time taken just before and just after it."""
    results: List[Any] = []
    refs: List[float] = []
    before = reference()
    start = time.perf_counter()
    while (
        len(results) < count if count
        else len(results) < minimum or time.perf_counter() - start < seconds
    ):
        results.append(unit())
        after = reference()
        refs.append((before + after) / 2.0)
        before = after
    return results, refs


def check_repeats(outcome: Outcome, fingerprints: Sequence[Any], what: str) -> None:
    """Same inputs, so every repetition must reproduce the first one's outputs."""
    for index, value in enumerate(fingerprints[1:], start=1):
        outcome.check(value == fingerprints[0], f"{what} {index} differs from {what} 0")


@contextmanager
def work_dir() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Span attribution
# ----------------------------------------------------------------------
Interval = Tuple[float, float]


def union_length(intervals: Iterable[Interval], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    )
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in clipped:
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def interval(span: Mapping[str, Any]) -> Interval:
    return (span["t0"], span["t0"] + span["dur"])


class SpanTree:
    """Span records (from ``capture_events`` or a trace file) as a tree."""

    def __init__(self, events: Iterable[Mapping[str, Any]]) -> None:
        self.spans = [event for event in events if event.get("ev") == "span"]
        self.by_id = {span["id"]: span for span in self.spans}
        self.children: Dict[Any, List[Mapping[str, Any]]] = defaultdict(list)
        for span in self.spans:
            self.children[span.get("parent")].append(span)

    def of_kind(self, kind: str) -> List[Mapping[str, Any]]:
        return [span for span in self.spans if span["kind"] == kind]

    def descendants(self, span: Mapping[str, Any]) -> Iterator[Mapping[str, Any]]:
        stack = list(self.children[span["id"]])
        while stack:
            child = stack.pop()
            yield child
            stack.extend(self.children[child["id"]])

    def attr_up(self, span: Mapping[str, Any], key: str) -> Any:
        """The nearest value of attribute ``key`` on the span or an ancestor."""
        current: Optional[Mapping[str, Any]] = span
        while current is not None:
            value = current.get("attrs", {}).get(key)
            if value is not None:
                return value
            current = self.by_id.get(current.get("parent"))
        return None

    def self_split(
        self, layers: Mapping[str, str], pid: int, root_kind: str
    ) -> Dict[str, float]:
        """The wall time of the ``root_kind`` spans, split into layer self times.

        A span's self time is its duration minus the union of its children
        in process ``pid``.  Children that ran in pool workers overlap in
        time, so for them only the union of their ``run`` spans is taken out
        of the parent (to the layer named for ``run``); the rest of the
        parent stays with the parent's layer.  Kinds missing from ``layers``
        are left out, so they fall into the caller's named remainder.
        """
        split: Dict[str, float] = defaultdict(float)
        roots = [s for s in self.of_kind(root_kind) if s["pid"] == pid]
        for span in roots + [d for root in roots for d in self.descendants(root)]:
            if span["pid"] != pid:
                continue
            low, high = interval(span)
            children = self.children[span["id"]]
            local = [interval(c) for c in children if c["pid"] == pid]
            own = span["dur"] - union_length(local, low, high)
            remote_runs = [
                interval(d)
                for c in children if c["pid"] != pid
                for d in [c, *self.descendants(c)] if d["kind"] == "run"
            ]
            if remote_runs:
                stepped = union_length(remote_runs, low, high)
                split[layers["run"]] += stepped
                own -= stepped
            layer = layers.get(span["kind"])
            if layer is not None:
                split[layer] += own
        return dict(split)


#: One unit of timed work: the operations it completed, its wall time and
#: the reference loop's time around it (see ``reference_loop_s``).
Unit = Tuple[int, float, float]


def report_end_to_end(outcome: Outcome, setup_s: float, peak_rss_mb: float,
                      units: Sequence[Unit]) -> None:
    """The end-to-end metrics, the same three on every workload.  Throughput
    is the median of operations per second over the units, times the median
    reference-loop time: a single reference sample is too short to pin the
    machine's speed, while their median over the run follows its drift."""
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("peak_rss_mb", peak_rss_mb, "MB")
    outcome.metric(
        "ops_per_ref",
        median([ops / wall for ops, wall, _ in units]) * median([ref for _, _, ref in units]),
        "1/ref",
    )


def trace_overhead(plain: Sequence[Tuple[float, float]],
                   traced: Sequence[Tuple[float, float]]) -> float:
    """Traced over untraced unit time, each the median wall over the median
    reference-loop time of its ``(wall, ref)`` pairs."""

    def in_refs(pairs: Sequence[Tuple[float, float]]) -> float:
        return median([wall for wall, _ in pairs]) / median([ref for _, ref in pairs])

    return in_refs(traced) / in_refs(plain)


#: The layers every workload's traced wall time is split into.  What each
#: one covers per workload is listed in ``perfbench/README.md``.
SPLIT = ("stepper.wall_s", "batch.self_s", "entry.self_s")


def report_split(outcome: Outcome, split: Mapping[str, float], units: int,
                 traced_wall: float, overhead: float) -> None:
    """Layer self times per unit of work, and the named remainder; together
    they add up to ``obs.traced_wall_s``."""
    for name in SPLIT:
        outcome.metric(name, split.get(name, 0.0) / units, "s")
    outcome.metric("obs.traced_wall_s", traced_wall / units, "s")
    outcome.metric(
        "obs.unattributed_s", (traced_wall - sum(split.values())) / units, "s"
    )
    outcome.metric("obs.trace_overhead", overhead, "ratio")


def report_ops(outcome: Outcome, op_ms: Sequence[float]) -> None:
    outcome.metric("op_ms.p50", percentile(op_ms, 50), "ms")
    outcome.metric("op_ms.p99", percentile(op_ms, 99), "ms")


def report_stepper(
    outcome: Outcome,
    tree: SpanTree,
    protocol_of: Callable[[Mapping[str, Any]], Optional[str]],
    units: int,
) -> None:
    """Stepper count per unit of work, and rates from the ``run`` spans:
    steps over time spent inside them, overall and per protocol."""
    steps: Dict[Optional[str], int] = defaultdict(int)
    busy: Dict[Optional[str], float] = defaultdict(float)
    for run in tree.of_kind("run"):
        count = int(run["attrs"].get("steps", 0))
        for key in ("all", protocol_of(run)):
            steps[key] += count
            busy[key] += run["dur"]
    outcome.metric("stepper.steps", steps["all"] / units, "steps")
    outcome.metric("stepper.steps_per_s", steps["all"] / busy["all"], "steps/s")
    for name in PROTOCOLS:
        outcome.metric(f"stepper.steps_per_s.{name}", steps[name] / busy[name], "steps/s")


def protocol_from_cell(cell_id: str) -> str:
    """The protocol name of a sweep cell id (``protocol=<name>;...``)."""
    return cell_id.split(";", 1)[0].partition("=")[2]
