"""Structured tracing: spans, point events, JSONL emission, worker capture.

A *span* is a named, timed region with a kind (``run``, ``ensemble``,
``sweep-cell``, ``claim``, ``serve-job``, ``dispatch``, ``chunk``) and a
dict of attributes; a *point event* is a timestamped record with no
duration (heartbeat warnings, lifecycle markers).  Both serialize as one
JSON object per line.

Three design rules keep this compatible with the repo's determinism
discipline:

* **Clocks go through the funnel.**  Durations use
  :func:`repro.config.monotonic_time`; the single wall-clock read (the
  trace file's ``meta`` header) is :func:`repro.config.wall_time` — the
  one pragma'd call site in the codebase.
* **Disabled tracing is one predicate.**  :func:`span` and :func:`event`
  check :func:`tracing_active` first and return immediately when nothing
  is listening; instrumented call sites may also guard on it themselves
  to skip attribute construction.
* **Workers ship events, not files.**  A worker process wraps its chunk in
  :func:`capture_events` — emission is diverted into an in-memory buffer
  that returns with the results.  The parent calls :func:`adopt` to remap
  span ids into its own id space, re-parent the worker's top-level spans
  under its dispatch span, and re-emit.  Because the pool returns chunks
  in submission order, adopted events land in exactly the order a serial
  run would have emitted them — the property the cross-backend
  byte-identity test pins (after :mod:`repro.obs.render` strips timing).

Span parenting uses a :class:`contextvars.ContextVar`, so nesting follows
the call stack per thread/task; the capture stack is deliberately
module-global (lock-guarded) so events emitted from pool callback threads
still reach the active capture.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .. import config

__all__ = [
    "SpanHandle",
    "Tracer",
    "active_tracer",
    "adopt",
    "capture_events",
    "event",
    "install_tracer",
    "span",
    "span_event",
    "tracer_from_env",
    "tracing_active",
    "uninstall_tracer",
]

# ---------------------------------------------------------------------------
# Emission state
# ---------------------------------------------------------------------------

_STATE_LOCK = threading.Lock()
_TRACER: Optional["Tracer"] = None
#: Module-global (not context-local) so pool callback threads feed the same
#: capture as the dispatching thread.  Innermost capture wins.
_CAPTURE_STACK: List[List[Dict[str, Any]]] = []

_ID_LOCK = threading.Lock()
_NEXT_ID = 0

#: Current span id for parenting — context-local so concurrent serve jobs /
#: sweep threads each see their own ancestry.
_CURRENT_SPAN: ContextVar[Optional[int]] = ContextVar(
    "repro_obs_current_span", default=None
)


def _next_id() -> int:
    global _NEXT_ID
    with _ID_LOCK:
        _NEXT_ID += 1
        return _NEXT_ID


def _emit(record: Dict[str, Any]) -> None:
    """Route one event: innermost capture if any, else the installed tracer."""
    with _STATE_LOCK:
        if _CAPTURE_STACK:
            _CAPTURE_STACK[-1].append(record)
            return
        tracer = _TRACER
    if tracer is not None:
        tracer.write(record)


def tracing_active() -> bool:
    """True when anything is listening (installed tracer or open capture)."""
    return _TRACER is not None or bool(_CAPTURE_STACK)


# ---------------------------------------------------------------------------
# The tracer (JSONL sink)
# ---------------------------------------------------------------------------


class Tracer:
    """An append-mode JSONL trace writer.

    The first line of every session is a ``meta`` record carrying the one
    sanctioned wall-clock read (so a human can anchor the monotonic
    timestamps) and the writer's pid.  All writes serialize on a lock, so
    pool callback threads and the main thread interleave whole lines, never
    partial ones.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        self.write(
            {
                "ev": "meta",
                "version": 1,
                "pid": os.getpid(),
                "wall_time": config.wall_time(),
            }
        )

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __repr__(self) -> str:
        return f"Tracer(path={self.path!r})"


def install_tracer(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide sink; returns it for chaining."""
    global _TRACER
    with _STATE_LOCK:
        _TRACER = tracer
    return tracer


def uninstall_tracer(close: bool = True) -> Optional[Tracer]:
    """Remove (and by default close) the installed tracer; returns it."""
    global _TRACER
    with _STATE_LOCK:
        tracer, _TRACER = _TRACER, None
    if tracer is not None and close:
        tracer.close()
    return tracer


def active_tracer() -> Optional[Tracer]:
    return _TRACER


def tracer_from_env() -> Optional[Tracer]:
    """Install a tracer if ``REPRO_TRACE`` asks for one (CLI entry points).

    Programmatic use calls :func:`install_tracer` directly and does not
    depend on the environment.  Idempotent: if a tracer is already
    installed, it is returned unchanged.
    """
    if not config.trace_enabled():
        return None
    existing = active_tracer()
    if existing is not None:
        return existing
    return install_tracer(Tracer(config.trace_path()))


# ---------------------------------------------------------------------------
# Spans and point events
# ---------------------------------------------------------------------------


class SpanHandle:
    """Handle for an open span: its ``id`` (for :func:`adopt` parenting)
    and a mutable attribute bag (``sp.set(steps=42)``)."""

    __slots__ = ("id", "attrs")

    def __init__(self, span_id: int, attrs: Dict[str, Any]) -> None:
        self.id = span_id
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)


class _NullSpan:
    """The shared no-op handle yielded when tracing is off."""

    __slots__ = ()

    id: Optional[int] = None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


@contextlib.contextmanager
def span(name: str, kind: Optional[str] = None, **attrs: Any):
    """Time a region and emit one ``span`` event when it closes.

    Yields a :class:`SpanHandle` so the body can attach attributes computed
    mid-flight (``sp.set(queue_wait=w)``); when tracing is inactive, yields
    a shared no-op handle and emits nothing.  The span's ``parent`` is
    whatever span encloses it on this thread/task.
    """
    if not tracing_active():
        yield _NULL_SPAN
        return
    span_id = _next_id()
    token = _CURRENT_SPAN.set(span_id)
    handle = SpanHandle(span_id, dict(attrs))
    error: Optional[str] = None
    t0 = config.monotonic_time()
    try:
        yield handle
    except BaseException as exc:
        error = type(exc).__name__
        raise
    finally:
        dur = config.monotonic_time() - t0
        _CURRENT_SPAN.reset(token)
        parent = _CURRENT_SPAN.get()
        record: Dict[str, Any] = {
            "ev": "span",
            "kind": kind or name,
            "name": name,
            "id": span_id,
            "parent": parent,
            "pid": os.getpid(),
            "t0": t0,
            "dur": dur,
            "attrs": handle.attrs,
        }
        if error is not None:
            record["error"] = error
        _emit(record)


def span_event(
    name: str,
    kind: str,
    t0: float,
    dur: float,
    children: Sequence[Dict[str, Any]] = (),
    **attrs: Any,
) -> None:
    """Emit a span record for a region the caller already timed.

    The hot-loop variant of :func:`span`: the stepper entry points time a
    run with two :func:`repro.config.monotonic_time` reads and call this
    once — no context-manager machinery on the per-run path.  Parents under
    the current span like any other span; no-op when tracing is inactive.

    ``children`` are captured events (a worker's shipment, a
    :func:`capture_events` buffer) that ran inside the region: they are
    adopted beneath this span and emitted before it, as a live span's
    children are.  The sweep claim loop emits its per-cell spans this way
    once a batch of cells has come back.
    """
    if not tracing_active():
        return
    span_id = _next_id()
    if children:
        adopt(children, parent=span_id)
    _emit(
        {
            "ev": "span",
            "kind": kind,
            "name": name,
            "id": span_id,
            "parent": _CURRENT_SPAN.get(),
            "pid": os.getpid(),
            "t0": t0,
            "dur": dur,
            "attrs": dict(attrs),
        }
    )


def event(name: str, kind: str = "event", **attrs: Any) -> None:
    """Emit one point event (no duration) under the current span, if any."""
    if not tracing_active():
        return
    _emit(
        {
            "ev": "event",
            "kind": kind,
            "name": name,
            "id": _next_id(),
            "parent": _CURRENT_SPAN.get(),
            "pid": os.getpid(),
            "t": config.monotonic_time(),
            "attrs": dict(attrs),
        }
    )


# ---------------------------------------------------------------------------
# Cross-process propagation
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def capture_events() -> Iterator[List[Dict[str, Any]]]:
    """Divert all emission into a buffer for the duration of the block.

    The worker side of cross-process propagation: wrap the chunk execution,
    ship the returned list back with the results.  Captures nest (innermost
    wins) and activate tracing by themselves — no tracer needs to be
    installed in the worker process.
    """
    buffer: List[Dict[str, Any]] = []
    with _STATE_LOCK:
        _CAPTURE_STACK.append(buffer)
    try:
        yield buffer
    finally:
        with _STATE_LOCK:
            _CAPTURE_STACK.remove(buffer)


def adopt(
    events: Sequence[Dict[str, Any]], parent: Optional[int] = None
) -> List[Dict[str, Any]]:
    """Re-emit captured worker events into this process's trace.

    Span ids are remapped into this process's id space (worker counters
    restart per process, so shipped ids collide across workers); an id is
    read together with the ``pid`` that emitted it, so one call may adopt
    the shipments of several workers.  Parent references *within* the batch
    follow the remap, and events whose parent is not in the batch — the
    worker's top-level spans — are re-parented under ``parent`` (typically
    the pool's dispatch span).  Events re-emit in shipped order, which is
    execution order within each chunk.  Returns the remapped events.
    """
    id_map: Dict[Any, int] = {}
    for record in events:
        old = record.get("id")
        if isinstance(old, int):
            id_map[record.get("pid"), old] = _next_id()
    adopted: List[Dict[str, Any]] = []
    for record in events:
        if record.get("ev") == "meta":
            continue
        remapped = dict(record)
        pid = remapped.get("pid")
        old = remapped.get("id")
        if isinstance(old, int):
            remapped["id"] = id_map[pid, old]
        remapped["parent"] = id_map.get((pid, remapped.get("parent")), parent)
        adopted.append(remapped)
        _emit(remapped)
    return adopted
