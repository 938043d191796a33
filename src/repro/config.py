"""Central runtime configuration: the only sanctioned environment reader.

Settings reach the library as arguments and flags.  The one exception is the
tracing switch, which must reach processes a caller does not build itself
(CLI entry points, spawned sweep runners, a server subprocess), and it is
read *here* and nowhere else.  This is a determinism measure, not a
convenience: environment reads scattered across modules are invisible inputs
to the simulation — two "identical" runs can diverge because a worker
inherited a variable the caller never knew was consulted.  The determinism
linter (:mod:`repro.qa.determinism`, rule ``DET103``) enforces the funnel
statically: ``os.environ`` / ``os.getenv`` anywhere else in ``src/repro`` is
a lint error.

The recognized variables:

``REPRO_TRACE`` / ``REPRO_TRACE_PATH``
    The observability layer's tracing switch (:mod:`repro.obs`): when
    ``REPRO_TRACE`` is truthy, the CLI entry points install a JSONL trace
    writer on ``REPRO_TRACE_PATH`` (default ``repro_trace.jsonl``) and every
    instrumented layer — engines, pools, sweep runners, the serve loop —
    emits span events into it.  Read through :func:`trace_enabled` /
    :func:`trace_path`.  Tracing never feeds back into simulation state, so
    the knob cannot change any computed result.  ``REPRO_TRACE`` accepts
    ``1/true/yes/on`` and ``0/false/no/off`` only; any other value raises a
    :class:`ValueError` naming the variable, never a silent repair.

This module is also the **clock funnel** of the observability layer:
:func:`wall_time` is the only sanctioned wall-clock read in the library
(trace files carry one wall timestamp in their header so operators can line
a trace up with external logs), and :func:`monotonic_time` is the blessed
monotonic source for span durations.  Routing every observability clock read
through here keeps the determinism linter's DET102 discipline meaningful:
the simulation layers still contain no clock reads at all, and the single
wall-clock site below is pragma'd where any reviewer of environmental inputs
will see it.

The helpers read the environment on every call (no caching), so tests can
monkeypatch ``os.environ`` and worker processes inherit whatever the parent
exported at spawn time.
"""

from __future__ import annotations

import os
import time

__all__ = [
    "DEFAULT_TRACE_PATH",
    "TRACE_ENV",
    "TRACE_PATH_ENV",
    "monotonic_time",
    "trace_enabled",
    "trace_path",
    "wall_time",
]

#: Observability knobs: the tracing switch and the trace file path (see
#: :func:`trace_enabled` and :func:`trace_path`).
TRACE_ENV = "REPRO_TRACE"
TRACE_PATH_ENV = "REPRO_TRACE_PATH"

#: Where trace events land when ``REPRO_TRACE`` is on and no path is given.
DEFAULT_TRACE_PATH = "repro_trace.jsonl"

#: Truthy / falsy spellings accepted by boolean knobs.
_BOOL_TRUE = frozenset({"1", "true", "yes", "on"})
_BOOL_FALSE = frozenset({"0", "false", "no", "off"})


def _bool_env(name: str, default: bool) -> bool:
    """Read a boolean knob, failing loudly on unrecognized spellings.

    ``REPRO_TRACE=ture`` must abort, never silently disable tracing the
    operator asked for.
    """
    override = os.environ.get(name)
    if override is None or not override.strip():
        return default
    lowered = override.strip().lower()
    if lowered in _BOOL_TRUE:
        return True
    if lowered in _BOOL_FALSE:
        return False
    raise ValueError(
        f"{name} must be one of 1/true/yes/on or 0/false/no/off, got {override!r}"
    )


def trace_enabled() -> bool:
    """Whether ``REPRO_TRACE`` asks the CLI entry points to install tracing.

    This is the *environment* switch consulted at process entry
    (``python -m repro.sweep`` / ``python -m repro.serve``); library callers
    install a tracer programmatically via
    :func:`repro.obs.install_tracer` regardless of the variable.
    """
    return _bool_env(TRACE_ENV, False)


def trace_path() -> str:
    """The trace file path (``REPRO_TRACE_PATH``, default ``repro_trace.jsonl``)."""
    override = os.environ.get(TRACE_PATH_ENV, "").strip()
    return override or DEFAULT_TRACE_PATH


def monotonic_time() -> float:
    """The sanctioned monotonic clock for span durations.

    ``time.monotonic`` is DET102-exempt (it measures, it cannot leak into
    results that are pure functions of inputs and seed), but the
    observability layer still reads it through this funnel so every clock
    the library consults is named in one module.
    """
    return time.monotonic()


def wall_time() -> float:
    """The sanctioned wall-clock read: trace-file headers only.

    The single ``time.time()`` site in the library.  Trace files carry one
    wall timestamp in their header so operators can line a trace up with
    external logs; nothing downstream of a simulation ever sees the value,
    and the canonical trace rendering drops it.  The pragma below is the
    clock funnel's one sanctioned exemption — the determinism linter flags
    any other wall-clock read in ``src/repro`` as DET102.
    """
    return time.time()  # qa: allow[DET102] -- the sanctioned wall-clock funnel
