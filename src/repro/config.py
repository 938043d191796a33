"""Central runtime configuration: the only sanctioned environment reader.

Every knob the library takes from the process environment is read *here* and
nowhere else.  This is a determinism measure, not a convenience: environment
reads scattered across modules are invisible inputs to the simulation — two
"identical" runs can diverge because a worker inherited a variable the caller
never knew was consulted.  Funnelling them through one module keeps the full
set of environmental inputs auditable at a glance, and the determinism linter
(:mod:`repro.qa.determinism`, rule ``DET103``) enforces the funnel statically:
``os.environ`` / ``os.getenv`` anywhere else in ``src/repro`` is a lint error.

The recognized variables:

``REPRO_FORCE_ENGINE``
    Overrides the ``engine="auto"`` choice of
    :class:`~repro.simulation.simulator.Simulator` (one of ``native`` /
    ``compiled`` / ``reference`` / ``auto``).  The precedence is
    strict: an explicit ``engine=`` argument always wins (the override is
    then ignored, with a one-time :class:`RuntimeWarning` from
    :func:`notice_explicit_engine` so the mismatch is never silent), the
    override beats the auto heuristic, and the heuristic decides otherwise.
    Unknown engine names raise a :class:`ValueError` from either helper.
    Read through :func:`forced_engine`.

``REPRO_BATCH_DEFAULT_WORKERS``
    Default worker count of the process-backend batch layer
    (:mod:`repro.simulation.batch`) when ``max_workers`` is not given.  Read
    through :func:`default_batch_workers`.

``REPRO_FAULT_PLAN``
    A deterministic fault-injection plan for the distributed-sweep chaos
    harness (:mod:`repro.sweep.faults`): named injection points in the claim
    store and claim-loop runner fire scripted ``raise``/``kill``/``drop``
    actions on scripted hit counts, so crash tests are reproducible.  The
    variable holds the plan's text rendering (e.g. ``"mid-cell@1:kill"``);
    parsing lives in :mod:`repro.sweep.faults` — this module only reads the
    raw text through :func:`fault_plan_text`.  Empty/unset means no faults.
    Fault injection only ever interrupts *bookkeeping and control flow*,
    never the simulations themselves, so an installed plan cannot change any
    computed result — only whether (and when) it gets committed.

``REPRO_SERVE_HOST`` / ``REPRO_SERVE_PORT``
    Bind address of the ``python -m repro.serve`` job server (defaults
    ``127.0.0.1:8765``; port ``0`` asks the OS for an ephemeral port).  Read
    through :func:`serve_host` / :func:`serve_port`.

``REPRO_SERVE_CACHE_SIZE``
    Capacity of the serve layer's content-addressed LRU result cache, in
    completed-job payloads (default 256, minimum 1).  Read through
    :func:`serve_cache_size`.

``REPRO_SERVE_MAX_INFLIGHT``
    Per-client in-flight job cap before the server answers 429 (default 8,
    minimum 1).  Read through :func:`serve_max_inflight`.

``REPRO_TRACE`` / ``REPRO_TRACE_PATH``
    The observability layer's tracing switch (:mod:`repro.obs`): when
    ``REPRO_TRACE`` is truthy, the CLI entry points install a JSONL trace
    writer on ``REPRO_TRACE_PATH`` (default ``repro_trace.jsonl``) and every
    instrumented layer — engines, pools, sweep runners, the serve loop —
    emits span events into it.  Read through :func:`trace_enabled` /
    :func:`trace_path`.  Tracing never feeds back into simulation state, so
    the knob cannot change any computed result.

All integer knobs share one discipline (:func:`_positive_int_env`): malformed
or out-of-range values raise a :class:`ValueError` naming the variable —
configuration is never silently repaired.  Boolean knobs
(:func:`_bool_env`) accept ``1/true/yes/on`` and ``0/false/no/off`` only.

This module is also the **clock funnel** of the observability layer:
:func:`wall_time` is the only sanctioned wall-clock read in the library
(trace files carry one wall timestamp in their header so operators can line
a trace up with external logs), and :func:`monotonic_time` is the blessed
monotonic source for span durations.  Routing every observability clock read
through here keeps the determinism linter's DET102 discipline meaningful:
the simulation layers still contain no clock reads at all, and the single
wall-clock site below is pragma'd where any reviewer of environmental inputs
will see it.

All helpers read the environment on every call (no caching), so tests can
monkeypatch ``os.environ`` and worker processes inherit whatever the parent
exported at spawn time — the behavior the CI jobs pin.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Optional, Sequence, Set, Tuple

__all__ = [
    "BATCH_WORKERS_ENV",
    "DEFAULT_SERVE_CACHE_SIZE",
    "DEFAULT_SERVE_HOST",
    "DEFAULT_SERVE_MAX_INFLIGHT",
    "DEFAULT_SERVE_PORT",
    "DEFAULT_TRACE_PATH",
    "FAULT_PLAN_ENV",
    "FORCE_ENGINE_ENV",
    "SERVE_CACHE_SIZE_ENV",
    "SERVE_HOST_ENV",
    "SERVE_MAX_INFLIGHT_ENV",
    "SERVE_PORT_ENV",
    "TRACE_ENV",
    "TRACE_PATH_ENV",
    "default_batch_workers",
    "fault_plan_text",
    "forced_engine",
    "monotonic_time",
    "notice_explicit_engine",
    "serve_cache_size",
    "serve_host",
    "serve_max_inflight",
    "serve_port",
    "trace_enabled",
    "trace_path",
    "wall_time",
]

#: Environment override consulted by ``engine="auto"`` only (see
#: :func:`forced_engine`).
FORCE_ENGINE_ENV = "REPRO_FORCE_ENGINE"

#: Environment override for the default batch worker count (used by the CI
#: batch smoke job to pin the suite to a known degree of parallelism).
BATCH_WORKERS_ENV = "REPRO_BATCH_DEFAULT_WORKERS"

#: Environment carrier for the deterministic fault-injection plan of the
#: distributed-sweep chaos harness (parsed by :mod:`repro.sweep.faults`).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: ``repro.serve`` bind host / bind port / result-cache capacity / per-client
#: in-flight cap (see :func:`serve_host` and friends).
SERVE_HOST_ENV = "REPRO_SERVE_HOST"
SERVE_PORT_ENV = "REPRO_SERVE_PORT"
SERVE_CACHE_SIZE_ENV = "REPRO_SERVE_CACHE_SIZE"
SERVE_MAX_INFLIGHT_ENV = "REPRO_SERVE_MAX_INFLIGHT"

#: Defaults for the serve knobs when the variables are unset.
DEFAULT_SERVE_HOST = "127.0.0.1"
DEFAULT_SERVE_PORT = 8765
DEFAULT_SERVE_CACHE_SIZE = 256
DEFAULT_SERVE_MAX_INFLIGHT = 8

#: Observability knobs: the tracing switch and the trace file path (see
#: :func:`trace_enabled` and :func:`trace_path`).
TRACE_ENV = "REPRO_TRACE"
TRACE_PATH_ENV = "REPRO_TRACE_PATH"

#: Where trace events land when ``REPRO_TRACE`` is on and no path is given.
DEFAULT_TRACE_PATH = "repro_trace.jsonl"

#: Truthy / falsy spellings accepted by boolean knobs.
_BOOL_TRUE = frozenset({"1", "true", "yes", "on"})
_BOOL_FALSE = frozenset({"0", "false", "no", "off"})


def fault_plan_text() -> str:
    """The raw ``REPRO_FAULT_PLAN`` text, or ``""`` when unset.

    Only the *read* lives here (the sanctioned environment funnel); the plan
    grammar and its validation live in :mod:`repro.sweep.faults`, which calls
    this lazily the first time a fault point is evaluated with no plan
    installed programmatically.
    """
    return os.environ.get(FAULT_PLAN_ENV, "").strip()


def forced_engine(valid: Sequence[str]) -> Optional[str]:
    """The ``REPRO_FORCE_ENGINE`` override, validated against ``valid``.

    Returns ``None`` when the variable is unset, empty, or explicitly
    ``"auto"`` (auto is the absence of a force).  Any other value must be one
    of ``valid`` or a :class:`ValueError` names the variable — a typo'd CI
    job must fail loudly rather than silently test the wrong engine.
    """
    forced = os.environ.get(FORCE_ENGINE_ENV)
    if not forced or forced == "auto":
        return None
    if forced not in valid:
        raise ValueError(
            f"{FORCE_ENGINE_ENV} must be one of {tuple(valid)}, got {forced!r}"
        )
    return forced


#: (forced, explicit) pairs already warned about — the ignored-override
#: warning fires once per distinct mismatch per process, not once per
#: Simulator construction (ensembles build thousands).
_IGNORED_FORCE_WARNED: Set[Tuple[str, str]] = set()


def notice_explicit_engine(engine: str, valid: Sequence[str]) -> None:
    """Note that an explicit ``engine=`` argument is in effect.

    ``REPRO_FORCE_ENGINE`` only overrides ``engine="auto"``; with an explicit
    engine the variable is ignored.  Historically that was a *silent* no-op —
    a CI job exporting ``REPRO_FORCE_ENGINE=native`` around code passing
    ``engine="compiled"`` kept testing the compiled engine without a trace.
    This helper makes the precedence visible: when the variable is set to a
    different engine than the explicit argument, it emits a one-time
    :class:`RuntimeWarning` per ``(forced, explicit)`` pair.  An unset/empty
    variable, ``"auto"``, or a force that agrees with the explicit engine
    stay silent; an unknown engine name raises :class:`ValueError` exactly
    like :func:`forced_engine`, so a typo fails loudly in every mode.
    """
    forced = os.environ.get(FORCE_ENGINE_ENV)
    if not forced or forced == "auto":
        return
    if forced not in valid:
        raise ValueError(
            f"{FORCE_ENGINE_ENV} must be one of {tuple(valid)}, got {forced!r}"
        )
    if forced == engine:
        return
    key = (forced, engine)
    if key in _IGNORED_FORCE_WARNED:
        return
    _IGNORED_FORCE_WARNED.add(key)
    warnings.warn(
        f"{FORCE_ENGINE_ENV}={forced} is ignored: engine={engine!r} was "
        "passed explicitly (the override only applies to engine='auto')",
        RuntimeWarning,
        stacklevel=3,
    )


def _positive_int_env(name: str, default: int, minimum: int = 1) -> int:
    """Read an integer knob, failing loudly on malformed or out-of-range values.

    The fail-loudly convention of :func:`forced_engine` applied to numeric
    knobs: a typo'd CI export must abort, never be silently "repaired" into a
    value the operator did not ask for.
    """
    override = os.environ.get(name)
    if not override:
        return default
    try:
        value = int(override)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {override!r}"
        ) from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {override!r}")
    return value


def default_batch_workers() -> int:
    """The default batch worker count: the environment override, else the CPU
    count (at least 1).

    A non-integer ``REPRO_BATCH_DEFAULT_WORKERS`` raises a :class:`ValueError`
    naming the variable, and so do values below 1 — a zero or negative worker
    count is always a configuration mistake, and clamping it to 1 (the old
    behavior) hid exactly the kind of silent environmental repair this module
    exists to prevent.
    """
    override = _positive_int_env(BATCH_WORKERS_ENV, 0)
    if override:
        return override
    return os.cpu_count() or 1


def serve_host() -> str:
    """The ``repro.serve`` bind host (``REPRO_SERVE_HOST``, default loopback)."""
    return os.environ.get(SERVE_HOST_ENV, "").strip() or DEFAULT_SERVE_HOST


def serve_port() -> int:
    """The ``repro.serve`` bind port (``REPRO_SERVE_PORT``).

    ``0`` is valid and means "let the OS pick an ephemeral port" (the smoke
    scripts use it to avoid collisions); anything non-integer or negative
    raises a :class:`ValueError` naming the variable.
    """
    return _positive_int_env(SERVE_PORT_ENV, DEFAULT_SERVE_PORT, minimum=0)


def serve_cache_size() -> int:
    """The ``repro.serve`` result-cache capacity (``REPRO_SERVE_CACHE_SIZE``).

    Completed job payloads retained for content-addressed cache hits, evicted
    least-recently-used beyond this many entries.  Must be at least 1.
    """
    return _positive_int_env(SERVE_CACHE_SIZE_ENV, DEFAULT_SERVE_CACHE_SIZE)


def serve_max_inflight() -> int:
    """The ``repro.serve`` per-client in-flight cap (``REPRO_SERVE_MAX_INFLIGHT``).

    How many uncompleted jobs one client may have queued or running before
    new submissions are rejected with HTTP 429.  Must be at least 1.
    """
    return _positive_int_env(SERVE_MAX_INFLIGHT_ENV, DEFAULT_SERVE_MAX_INFLIGHT)


# ----------------------------------------------------------------------
# Observability knobs and the clock funnel
# ----------------------------------------------------------------------
def _bool_env(name: str, default: bool) -> bool:
    """Read a boolean knob, failing loudly on unrecognized spellings.

    The fail-loudly convention of :func:`_positive_int_env` for switches:
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
