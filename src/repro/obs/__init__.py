"""Observability: structured tracing and its analysis.

The stack spans four layers — engines, worker pools, distributed sweep
runners, and the :mod:`repro.serve` HTTP front — and ``repro.obs`` is the
one trace they all write to, so a served job or a sweep cell can be tied to
the pool dispatch and worker execution that produced it.  (The only
metrics exposition is each server's own ``/metrics``, kept by
:class:`repro.serve.ServeMetrics`.)

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

Nothing in this package feeds back into simulation state: tracing
observes result objects and clocks, never RNG streams, so enabling it
cannot change any computed value.
"""

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
    "Tracer",
    "active_tracer",
    "capture_events",
    "event",
    "install_tracer",
    "span",
    "tracer_from_env",
    "tracing_active",
    "uninstall_tracer",
]
