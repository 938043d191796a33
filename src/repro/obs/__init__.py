"""Unified observability: metrics registry and structured tracing.

The stack spans four layers — engines, worker pools, distributed sweep
runners, and the :mod:`repro.serve` HTTP front — and before this package
each grew its own blind spot: hand-rolled counter structs, silent heartbeat
misses, hot loops with no timing at all, and no way to tie a served job to
the pool dispatch and worker execution that produced it.  ``repro.obs`` is
the one telemetry substrate they all share:

* :mod:`repro.obs.registry` — a process-wide **metrics registry**: counters,
  gauges, and histograms with fixed deterministic bucket bounds, labeled
  series, and Prometheus-style text exposition whose output is byte-stable
  for a given state (``# HELP``/``# TYPE`` lines, lexicographic family and
  label order).  The serve layer's ``/metrics`` endpoint and the sweep
  runners' claim counters are rebased onto it.
* :mod:`repro.obs.trace` — **structured tracing**: :func:`span` context
  managers emitting JSONL events (run, ensemble, sweep-cell, claim,
  serve-job spans with queue-wait vs execution breakdown) through the
  sanctioned :mod:`repro.config` clock funnel.  Worker processes buffer
  their span events and ship them back with results, so a sweep cell's
  trace includes its worker-side execution — cross-process propagation
  without any shared trace file.  Each simulation run is one ``run`` span
  carrying its engine and step count; with tracing off a run reads no
  clock and emits nothing (bench E15 asserts the disabled cost is ≤2% on
  the compiled engine).
* :mod:`repro.obs.render` / ``python -m repro.obs`` — trace-file analysis:
  ``summary`` (per-layer latency breakdown, then per-engine runs, steps and
  steps/s read from the ``run`` spans), ``tail``, ``timeline`` (the
  span tree), and ``canon`` (a canonical rendering with every
  non-deterministic field stripped — byte-identical across serial and
  process backends for a fixed seed, the cross-backend determinism check).

Nothing in this package feeds back into simulation state: tracing and
metrics observe result objects and clocks, never RNG streams, so enabling
them cannot change any computed value.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .trace import (
    Tracer,
    active_tracer,
    capture_events,
    event,
    install_tracer,
    span,
    tracer_from_env,
    tracing_active,
    uninstall_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "active_tracer",
    "capture_events",
    "event",
    "get_registry",
    "install_tracer",
    "span",
    "tracer_from_env",
    "tracing_active",
    "uninstall_tracer",
]
