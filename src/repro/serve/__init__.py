"""Simulation-as-a-service: a job server over the batch subsystem.

The serving layer of the stack — where sweeps batch *one user's* grid over
the pool, this package fronts the same pool with a long-lived HTTP process
for *many* clients, built entirely on the stdlib (asyncio, ``json``,
``http.client``):

* :class:`JobSpec` (:mod:`repro.serve.jobs`) — one ensemble request,
  validated and normalized through the sweep layer's rejection rules, with
  a **content-addressed key**: SHA-256 of the canonical cell identity plus
  run policy, so identical requests — however spelled — share one key, one
  computation, and one cache entry.  Seeds derive from the same
  ``sha256(master_seed | scope)`` discipline as sweep cells, making served
  results bit-identical to direct :class:`~repro.simulation.simulator.Simulator`
  runs and to sweep rows.  :func:`~repro.serve.jobs.run_job` executes a
  job on the :class:`~repro.sweep.executor.CellExecutor` that also runs
  sweep cells, sharing its protocol, predicate and simulator caches.
* :class:`SimulationServer` (:mod:`repro.serve.server`) — the asyncio
  HTTP+JSON server: ``POST /jobs`` / ``GET /jobs/<key>`` / ``GET /metrics``
  / ``GET /healthz`` over persistent HTTP/1.1 connections, a bounded LRU
  result cache (duplicate submissions are cache hits; concurrent duplicates
  coalesce onto one running job), a per-client in-flight cap answered with
  429, and graceful SIGTERM drain (finish what's queued and running, 503
  new work, exit 0) mirroring the sweep claim-worker semantics.
  :class:`BackgroundServer` runs the same lifecycle in a daemon thread for
  tests and examples.
* :class:`ServeClient` (:mod:`repro.serve.client`) — the tiny
  ``http.client`` client over one kept connection: submit / status / wait /
  run / metrics, with typed backpressure errors.
* ``python -m repro.serve`` (:mod:`repro.serve.__main__`) — the deployment
  entry point; every setting is a flag (``--host``, ``--port``,
  ``--cache-size``, ``--max-inflight``, ...).

Everything cacheable hangs off the content key, never the request bytes:
the cache can only ever conflate requests whose simulations are provably
identical, and two clients asking the same scientific question split one
ensemble's cost between them.
"""

from .client import JobFailedError, ServeClient, ServeError, ServeRejected
from .jobs import JobSpec
from .server import BackgroundServer, ServeMetrics, SimulationServer

__all__ = [
    "BackgroundServer",
    "JobFailedError",
    "JobSpec",
    "ServeClient",
    "ServeError",
    "ServeMetrics",
    "ServeRejected",
    "SimulationServer",
]
