"""The :mod:`repro.serve` asyncio HTTP job server.

One long-lived process, one shared :class:`~repro.simulation.batch.WorkerPool`,
many clients.  The event loop owns *all* server state (submission handling,
the queue, the cache, metrics); only the blocking ensemble execution leaves
the loop, dispatched to a small thread executor whose threads serialize on
the pool's dispatch lock — the thread-safety contract the pool now documents.

The moving parts:

* **Content-addressed cache.**  Jobs are keyed by
  :attr:`~repro.serve.jobs.JobSpec.key` (SHA-256 of the canonical cell
  identity plus run policy).  A completed payload lands in a bounded LRU
  (``cache_size`` entries, :data:`DEFAULT_CACHE_SIZE` by default); a
  resubmission of the same key is answered from cache with zero pool work.
  Submissions of a key that is *currently* queued or running coalesce onto
  the existing job — the duplicate does not enqueue twice.
* **Backpressure.**  Each client (the ``X-Client-Id`` header, else the peer
  address) may have at most ``max_inflight`` uncompleted jobs attached; the
  next submission is rejected with HTTP 429 and a ``Retry-After`` hint,
  protecting the pool from any single client's burst.
* **Graceful drain.**  SIGTERM/SIGINT (wired by ``python -m repro.serve``)
  calls :meth:`SimulationServer.request_drain`: new submissions are refused
  with 503, queued and running jobs complete and land in the cache, status
  polls keep working throughout, and the process then exits 0 — the same
  finish-what-you-hold semantics as the sweep layer's ``claim_worker``.
* **Persistent connections.**  One connection carries many requests
  (HTTP/1.1 keeps it open by default, RFC 9112 §9.3).  The server answers
  ``Connection: close`` and closes after a request that asks for it, an
  HTTP/1.0 request without ``keep-alive``, a framing error (400, 413, or
  431 for a head over the stream reader's 64 KiB limit) and any response
  sent while draining.  A head, idle wait included, must arrive complete
  within one :data:`_READ_TIMEOUT`, and so must a body; a connection that
  misses either deadline is closed, and :meth:`SimulationServer.shutdown`
  closes the ones waiting for their next request.
* **Held submissions.**  A submission that starts or joins a job is held
  until the job ends or :data:`_SUBMIT_HOLD` passes, and a quick job's
  result rides back on its own ``POST``: one round trip, no poll.  The
  hold awaits the job on the event loop, so other connections are served
  meanwhile, and a connection's pipelined requests still answer in order.

Endpoints (HTTP/1.1):

========================  ====================================================
``POST /jobs``            submit a JSON job spec; 200 with the result on a
                          cache hit; a queued or coalesced job is held up to
                          :data:`_SUBMIT_HOLD` (50 ms), then answered 200
                          ``done`` (with result) or ``error`` (with message)
                          if it ended, else 202 with the job key and its
                          status; 400 on validation errors, 429 over the
                          in-flight cap, 503 while draining
``GET /jobs/<key>``       poll: ``queued`` / ``running`` / ``done`` (with
                          result) / ``error`` (with message), 404 unknown
``GET /metrics``          plain-text counters (jobs, cache, queue, pool,
                          connections)
``GET /healthz``          ``ok`` (or ``draining``)
========================  ====================================================

:class:`BackgroundServer` wraps the whole lifecycle in a daemon thread with
an ephemeral port for tests and the quickstart example.
"""

from __future__ import annotations

import asyncio
import bisect
import collections
import contextvars
import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Mapping, Optional, Set, Tuple

from .. import config
from ..obs import trace as _obs_trace
from ..simulation.batch import WorkerPool
from ..sweep.executor import CellExecutor
from .jobs import JobSpec, run_job

__all__ = ["BackgroundServer", "ServeMetrics", "SimulationServer"]

#: Defaults of the constructor and of ``python -m repro.serve``'s flags: the
#: bind address (port ``0`` asks the OS for an ephemeral one), the result
#: cache's capacity in completed-job payloads, and the per-client in-flight
#: cap before HTTP 429.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765
DEFAULT_CACHE_SIZE = 256
DEFAULT_MAX_INFLIGHT = 8

#: Submission bodies larger than this are refused outright (413) — a job
#: spec is a handful of scalars; anything bigger is a client bug.
_MAX_BODY_BYTES = 1 << 20

#: Deadline (seconds) for a whole request head, the idle wait before it
#: included, and separately for its body: a connection idle this long
#: between requests closes, and a stalled or trickling client cannot pin a
#: connection handler for longer.
_READ_TIMEOUT = 10.0

#: How long (seconds) a submission that starts or joins a job waits for the
#: job to end before it is answered 202: a job that ends within it is
#: answered with its outcome by the submission itself, and the client needs
#: no status request.
_SUBMIT_HOLD = 0.05

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _number(value: float) -> str:
    """A sample value: integral numbers bare, other floats by ``repr``,
    which round-trips, so equal values render to equal bytes."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: Upper bounds (seconds) of the job-timing histograms' buckets: a fixed
#: 1-2.5-5 ladder from 1 ms to 10 s that never adapts to the data, so two
#: servers that observe the same values render the same buckets.
_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)
#: The buckets' ``le`` labels, the last one for the bucket past every bound.
_LE = [_number(bound) for bound in _BUCKETS] + ["+Inf"]

#: The job counters, as ``(name, help)``: what :meth:`ServeMetrics.as_dict`
#: reports.
_JOB_COUNTERS = (
    ("jobs_submitted", "Jobs accepted (cache hits, coalesced, queued)."),
    ("jobs_completed", "Jobs that finished and entered the cache."),
    ("jobs_failed", "Jobs whose execution raised."),
    ("jobs_coalesced", "Submissions merged onto an in-flight job."),
    ("rejected_backpressure", "Submissions refused with HTTP 429."),
    ("rejected_draining", "Submissions refused while draining."),
    ("cache_hits", "Submissions answered from the result cache."),
    ("cache_misses", "Submissions that missed the result cache."),
    ("jobs_answered_on_submit",
     "Held submissions answered with their job's result or error."),
)

#: Every ``/metrics`` family as ``(name, type, help)``, exposed as
#: ``repro_serve_<name>``; sorting by name sorts by full name.  Gauges are
#: the server's state, read at each scrape.
_FAMILIES = sorted(
    [(name, "counter", help_text) for name, help_text in _JOB_COUNTERS]
    + [
        ("connections_accepted", "counter",
         "Client connections accepted by the listener."),
        ("job_queue_wait_seconds", "histogram",
         "Time a job spent queued before a consumer picked it up."),
        ("job_exec_seconds", "histogram",
         "Time a job spent executing (pool dispatch plus ensemble)."),
        ("queue_depth", "gauge", "Jobs queued and waiting for a pool slot."),
        ("jobs_inflight", "gauge", "Jobs currently executing."),
        ("pool_utilization", "gauge", "Fraction of the concurrency cap in use."),
        ("pool_workers", "gauge", "Worker processes in the backing pool."),
        ("cache_entries", "gauge", "Results currently held in the LRU cache."),
        ("cache_capacity", "gauge", "Configured LRU cache capacity."),
        ("clients_tracked", "gauge", "Clients with at least one job in flight."),
        ("connections_open", "gauge", "Client connections currently open."),
        ("draining", "gauge", "1 while the server is draining, else 0."),
    ]
)


class ServeMetrics:
    """The server's counters and job-timing histograms, and their exposition.

    Each :class:`SimulationServer` owns one, so servers in one process
    (tests, embedded replicas) never share counts.  Updates (:meth:`inc`,
    :meth:`observe`) run on the event loop, but scrapes may come from other
    threads, so updates and :meth:`render` hold one lock and a scrape is
    never torn.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Counter totals and per-bucket histogram counts (the last bucket
        #: past every bound) by family name, None until the first update: a
        #: family never updated renders only its header lines, and an
        #: unknown name raises :class:`KeyError`.
        self._counts: Dict[str, Optional[int]] = {
            name: None for name, kind, _ in _FAMILIES if kind == "counter"
        }
        self._buckets: Dict[str, Optional[List[int]]] = {
            name: None for name, kind, _ in _FAMILIES if kind == "histogram"
        }
        self._sums: Dict[str, float] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``repro_serve_<name>``."""
        with self._lock:
            self._counts[name] = (self._counts[name] or 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        """Count one observation in the histogram ``repro_serve_<name>``."""
        with self._lock:
            buckets = self._buckets[name]
            if buckets is None:
                buckets = self._buckets[name] = [0] * (len(_BUCKETS) + 1)
            buckets[bisect.bisect_left(_BUCKETS, seconds)] += 1
            self._sums[name] = self._sums.get(name, 0.0) + seconds

    def as_dict(self) -> Dict[str, int]:
        """The job counters, 0 for one never updated."""
        with self._lock:
            return {name: self._counts[name] or 0 for name, _ in _JOB_COUNTERS}

    def render(self, gauges: Mapping[str, float]) -> str:
        """Prometheus text exposition, with ``gauges`` the gauges' values.

        Families come sorted by full name, each led by its ``# HELP`` and
        ``# TYPE`` lines, so equal state renders to equal bytes.
        """
        lines: List[str] = []
        with self._lock:
            for name, kind, help_text in _FAMILIES:
                full = f"repro_serve_{name}"
                lines += [f"# HELP {full} {help_text}", f"# TYPE {full} {kind}"]
                value = gauges[name] if kind == "gauge" else self._counts.get(name)
                buckets = self._buckets.get(name)
                if value is not None:
                    lines.append(f"{full} {_number(value)}")
                elif buckets is not None:
                    lines += [
                        f'{full}_bucket{{le="{le}"}} {total}'
                        for le, total in zip(_LE, itertools.accumulate(buckets))
                    ]
                    lines.append(f"{full}_sum {_number(self._sums[name])}")
                    lines.append(f"{full}_count {sum(buckets)}")
        return "\n".join(lines) + "\n"


class _BadRequest(Exception):
    """A request that cannot be framed: answered with ``status``, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Job:
    """One active (queued or running) job and the clients attached to it."""

    __slots__ = (
        "spec", "key", "status", "clients", "submitted_at", "outcome", "finished"
    )

    def __init__(self, spec: JobSpec, clients: Set[str]) -> None:
        self.spec = spec
        self.key = spec.key
        self.status = "queued"
        self.clients = clients
        #: Monotonic submission time, for the queue-wait histogram/span.
        self.submitted_at = config.monotonic_time()
        #: The result payload once ``done``, the error message once ``error``.
        self.outcome: Any = None
        #: Resolved when the job ends.  The first held submission makes it,
        #: inside the running loop: a job can be built outside one, and an
        #: asyncio primitive built there binds the wrong loop on Python 3.9.
        self.finished: "Optional[asyncio.Future[None]]" = None


class SimulationServer:
    """The job server: HTTP front, queue, cache, and one shared pool.

    ``host`` and ``port`` are the bind address (``port=0`` asks the OS for
    an ephemeral port), ``cache_size`` the result cache's capacity and
    ``max_inflight`` the per-client cap on uncompleted jobs before HTTP 429.
    ``backend="serial"`` skips the worker pool and runs ensembles on cached
    in-process simulators — the fast path for tests;
    ``backend="process"`` (the default) fronts a
    :class:`~repro.simulation.batch.WorkerPool` of ``max_workers``
    processes.  ``concurrency`` is how many jobs may execute at once (the
    consumer-task count; pool dispatch still serializes ensembles, so this
    mainly overlaps Python-side build/render work with simulation).
    ``job_timeout`` bounds each job's ensemble in wall-clock seconds and
    must be positive; only the pool can interrupt an ensemble, so
    ``backend="serial"`` rejects it.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        backend: str = "process",
        max_workers: Optional[int] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        concurrency: int = 2,
        start_method: Optional[str] = None,
        job_timeout: Optional[float] = None,
    ) -> None:
        if backend not in ("serial", "process"):
            raise ValueError(
                f"backend must be 'serial' or 'process', got {backend!r}"
            )
        if concurrency < 1:
            raise ValueError(f"concurrency must be at least 1, got {concurrency}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        if not 0 <= port <= 65535:
            raise ValueError(f"port must be in 0..65535, got {port}")
        if cache_size < 1:
            raise ValueError(f"cache_size must be at least 1, got {cache_size}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be at least 1, got {max_inflight}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be positive, got {job_timeout}")
        if job_timeout is not None and backend == "serial":
            raise ValueError(
                "job_timeout needs backend='process': the serial backend "
                "cannot interrupt a job's ensemble"
            )
        self.host = host
        self.requested_port = port
        self.backend = backend
        self.max_workers = max_workers
        self.cache_size = cache_size
        self.max_inflight = max_inflight
        self.concurrency = concurrency
        self.start_method = start_method
        self.job_timeout = job_timeout

        self.port: Optional[int] = None
        self.metrics = ServeMetrics()
        self._pool: Optional[WorkerPool] = None
        self._cells: Optional[CellExecutor] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._consumers: list = []
        self._work_available: Optional[asyncio.Event] = None
        self._pending: Deque[_Job] = collections.deque()
        self._active: Dict[str, _Job] = {}
        self._running = 0
        self._cache: "collections.OrderedDict[str, Dict[str, Any]]" = (
            collections.OrderedDict()
        )
        self._failed: "collections.OrderedDict[str, str]" = collections.OrderedDict()
        self._clients: Dict[str, Set[str]] = {}
        self._draining = False
        #: Every open connection, mapped to its handler task while it waits
        #: for its next request (the ones :meth:`shutdown` closes at once)
        #: and to None while it serves one.
        self._connections: Dict[
            asyncio.StreamWriter, "Optional[asyncio.Task[None]]"
        ] = {}
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build the pool, bind the listener, and start the consumers.

        A host that does not resolve or a port already in use raises
        :class:`OSError`, with the executor and the pool released.
        """
        if self._http_server is not None:
            raise RuntimeError("server already started")
        loop = asyncio.get_running_loop()
        self._closing = False
        self._work_available = asyncio.Event()
        if self.backend == "process":
            self._pool = WorkerPool(
                max_workers=self.max_workers, start_method=self.start_method
            )
        self._cells = CellExecutor(pool=self._pool, timeout=self.job_timeout)
        self._executor = ThreadPoolExecutor(
            max_workers=self.concurrency, thread_name_prefix="repro-serve-job"
        )
        try:
            self._http_server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.requested_port
            )
        except OSError:
            # Nothing is listening yet: release the executor and the pool.
            await self.shutdown()
            raise
        sockets = self._http_server.sockets or []
        self.port = sockets[0].getsockname()[1] if sockets else self.requested_port
        self._consumers = [
            loop.create_task(self._consume()) for _ in range(self.concurrency)
        ]

    def request_drain(self) -> None:
        """Stop accepting jobs; finish queued and running ones, then stop.

        Idempotent, callable from the event loop (signal handlers) or via
        ``call_soon_threadsafe`` from other threads.  Status polls,
        ``/metrics`` and ``/healthz`` keep answering until the last consumer
        finishes.
        """
        self._draining = True
        if self._work_available is not None:
            self._work_available.set()

    async def wait_drained(self) -> None:
        """Block until every consumer has exited (drain requested + queue dry)."""
        if self._consumers:
            await asyncio.gather(*self._consumers)

    async def shutdown(self) -> None:
        """Close the listener, idle connections, the executor and the pool.

        Called after the drain.  A connection waiting for its next request
        closes now, and its handler is awaited, since from Python 3.12 on
        ``wait_closed`` waits for every open connection and before it the
        loop's teardown would cancel the handler.  A busy connection closes
        after its response, which carries ``Connection: close`` because the
        server is draining.
        """
        if self._http_server is not None:
            self._http_server.close()
            self._closing = True
            waiting = [
                (writer, task)
                for writer, task in self._connections.items()
                if task is not None
            ]
            for writer, _ in waiting:
                writer.close()
            await self._http_server.wait_closed()
            if waiting:
                await asyncio.wait([task for _, task in waiting])
            self._http_server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    async def serve(self) -> None:
        """The full lifecycle: start, run until drained, shut down."""
        await self.start()
        await self.wait_drained()
        await self.shutdown()

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------
    async def _consume(self) -> None:
        loop = asyncio.get_running_loop()
        assert self._work_available is not None
        while True:
            if self._pending:
                job = self._pending.popleft()
                await self._process(loop, job)
                continue
            if self._draining:
                return
            # No await between clear() and wait(): submissions (which append
            # then set) run on this same loop, so the re-check cannot race.
            self._work_available.clear()
            await self._work_available.wait()

    async def _process(self, loop: asyncio.AbstractEventLoop, job: _Job) -> None:
        job.status = "running"
        self._running += 1
        assert self._cells is not None
        queue_wait = config.monotonic_time() - job.submitted_at
        self.metrics.observe("job_queue_wait_seconds", queue_wait)
        with _obs_trace.span(
            "serve-job", kind="serve-job", job=job.key, queue_wait=queue_wait
        ) as job_span:
            exec_t0 = config.monotonic_time()
            try:
                # copy_context() carries the serve-job span into the executor
                # thread, so the pool's dispatch span (and the adopted worker
                # chunks under it) parent correctly in the trace tree.
                context = contextvars.copy_context()
                payload = await loop.run_in_executor(
                    self._executor, context.run, run_job, self._cells, job.spec
                )
            except Exception as error:
                job.outcome = f"{type(error).__name__}: {error}"
                self._failed[job.key] = job.outcome
                while len(self._failed) > self.cache_size:
                    self._failed.popitem(last=False)
                job.status = "error"
                job_span.set(status="error")
                self.metrics.inc("jobs_failed")
            else:
                self._cache[job.key] = payload
                self._cache.move_to_end(job.key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                job.outcome = payload
                job.status = "done"
                job_span.set(status="done")
                self.metrics.inc("jobs_completed")
            finally:
                exec_seconds = config.monotonic_time() - exec_t0
                self.metrics.observe("job_exec_seconds", exec_seconds)
                job_span.set(exec_seconds=exec_seconds)
                self._running -= 1
                self._active.pop(job.key, None)
                for client in job.clients:
                    held = self._clients.get(client)
                    if held is not None:
                        held.discard(job.key)
                        if not held:
                            self._clients.pop(client, None)
                if job.finished is not None:
                    job.finished.set_result(None)

    # ------------------------------------------------------------------
    # Request handling (sync core, exercised directly by the unit tests)
    # ------------------------------------------------------------------
    def _submit(
        self, payload: Any, client: str
    ) -> Tuple[int, Dict[str, Any]]:
        if self._draining:
            self.metrics.inc("rejected_draining")
            return 503, {"error": "server is draining; not accepting new jobs"}
        try:
            spec = JobSpec.from_dict(payload)
        except (ValueError, TypeError) as error:
            return 400, {"error": str(error)}
        key = spec.key
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.metrics.inc("jobs_submitted")
            self.metrics.inc("cache_hits")
            return 200, {
                "job": key,
                "status": "done",
                "cached": True,
                "result": cached,
            }
        self.metrics.inc("cache_misses")
        held = self._clients.setdefault(client, set())
        active = self._active.get(key)
        if key not in held and len(held) >= self.max_inflight:
            if not held:
                self._clients.pop(client, None)
            self.metrics.inc("rejected_backpressure")
            return 429, {
                "error": (
                    f"client {client!r} already has {len(held)} jobs in "
                    f"flight (cap {self.max_inflight}); retry after one "
                    "completes"
                ),
                "retry_after": 1.0,
            }
        self.metrics.inc("jobs_submitted")
        if active is not None:
            # Same content key already queued or running: coalesce instead
            # of computing the ensemble twice.
            active.clients.add(client)
            held.add(key)
            self.metrics.inc("jobs_coalesced")
            return 202, {
                "job": key,
                "status": active.status,
                "cached": False,
                "coalesced": True,
            }
        job = _Job(spec, {client})
        held.add(key)
        self._active[key] = job
        self._pending.append(job)
        if self._work_available is not None:
            self._work_available.set()
        return 202, {"job": key, "status": "queued", "cached": False}

    def _job_status(self, key: str) -> Tuple[int, Dict[str, Any]]:
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return 200, {"job": key, "status": "done", "result": cached}
        active = self._active.get(key)
        if active is not None:
            return 200, {"job": key, "status": active.status}
        error = self._failed.get(key)
        if error is not None:
            return 200, {"job": key, "status": "error", "error": error}
        return 404, {"error": f"unknown job {key!r}"}

    def metrics_text(self) -> str:
        """The ``/metrics`` payload in Prometheus text exposition format.

        The gauges are read from the server's state on every scrape;
        counters and histograms accumulate at their call sites.
        Deliberately excludes anything clock-derived (no uptime), so two
        scrapes of an idle server are byte-identical — a property the
        regression tests pin.
        """
        return self.metrics.render({
            "queue_depth": len(self._pending),
            "jobs_inflight": self._running,
            "pool_utilization": round(self._running / self.concurrency, 3),
            "pool_workers": (
                self._pool.workers if self._pool is not None else 0
            ),
            "cache_entries": len(self._cache),
            "cache_capacity": self.cache_size,
            "clients_tracked": len(self._clients),
            "connections_open": len(self._connections),
            "draining": int(self._draining),
        })

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _route(
        self, method: str, target: str, client: str, body: bytes
    ) -> Tuple[int, Any, str]:
        """Dispatch one parsed request to (status, payload, content type)."""
        if target == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}, "application/json"
            text = "draining\n" if self._draining else "ok\n"
            return 200, text, "text/plain; charset=utf-8"
        if target == "/metrics":
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}, "application/json"
            return 200, self.metrics_text(), "text/plain; charset=utf-8"
        if target == "/jobs":
            if method != "POST":
                return 405, {"error": "submit jobs with POST /jobs"}, "application/json"
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return 400, {"error": f"request body is not JSON: {error}"}, "application/json"
            status, response = self._submit(payload, client)
            return status, response, "application/json"
        if target.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "poll jobs with GET /jobs/<key>"}, "application/json"
            status, response = self._job_status(target[len("/jobs/"):])
            return status, response, "application/json"
        return 404, {"error": f"no such endpoint: {method} {target}"}, "application/json"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection's requests in order until it closes."""
        self.metrics.inc("connections_accepted")
        handler = asyncio.current_task()
        peer = writer.get_extra_info("peername")
        peer_client = str(peer[0]) if isinstance(peer, tuple) and peer else "unknown"
        keep_alive = True
        try:
            while keep_alive and not self._closing:
                self._connections[writer] = handler
                try:
                    method, target, headers, body, keep_alive = (
                        await self._read_request(reader)
                    )
                except _BadRequest as error:
                    status, payload, content_type = (
                        error.status, {"error": str(error)}, "application/json"
                    )
                    keep_alive = False
                else:
                    client = headers.get("x-client-id") or peer_client
                    status, payload, content_type = self._route(
                        method, target, client, body
                    )
                # Busy from here on, a held submission included: shutdown
                # closes only the connections waiting for their next request.
                self._connections[writer] = None
                if status == 202:
                    status, payload = await self._hold(payload)
                keep_alive = keep_alive and not self._draining
                await self._write_response(
                    writer, status, payload, content_type, keep_alive
                )
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
            pass
        finally:
            self._connections.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _hold(self, response: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Answer a 202 submission once its job ends or the hold passes.

        ``response`` is :meth:`_submit`'s document for a job it queued or
        coalesced, so the job is active.  The outcome comes from the job
        itself, which a cache eviction cannot lose; a job still queued or
        running when the hold passes is answered 202 at its current status.
        """
        job = self._active[response["job"]]
        if job.finished is None:
            job.finished = asyncio.get_running_loop().create_future()
        # asyncio.wait, unlike wait_for, never cancels the shared future.
        await asyncio.wait((job.finished,), timeout=_SUBMIT_HOLD)
        if job.status == "done":
            self.metrics.inc("jobs_answered_on_submit")
            return 200, dict(response, status="done", result=job.outcome)
        if job.status == "error":
            self.metrics.inc("jobs_answered_on_submit")
            return 200, dict(response, status="error", error=job.outcome)
        return 202, dict(response, status=job.status)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes, bool]:
        """Read one request: (method, target, headers, body, keep alive).

        The head is one read under one deadline, bounded by the stream
        reader's limit.  Raises :class:`_BadRequest` for a request that
        cannot be framed.
        """
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=_READ_TIMEOUT
            )
        except asyncio.LimitOverrunError:
            raise _BadRequest(431, "request head too large") from None
        text = head.decode("latin-1").lstrip("\r\n")
        request_line, *lines = text.split("\r\n")
        parts = request_line.split()
        if len(parts) < 2:
            raise _BadRequest(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines:
            if line:
                name, _, value = line.partition(":")
                name, value = name.strip().lower(), value.strip()
                # A repeated field combines into one list (RFC 9110 §5.3), so
                # two Content-Length values fail the digit check below.
                if name in headers:
                    value = f"{headers[name]}, {value}"
                headers[name] = value
        connection = headers.get("connection", "").lower()
        tokens = {token.strip() for token in connection.split(",")}
        version = parts[2].upper() if len(parts) > 2 else ""
        if version == "HTTP/1.1":
            keep_alive = "close" not in tokens
        else:
            keep_alive = version == "HTTP/1.0" and "keep-alive" in tokens
        if "transfer-encoding" in headers:
            raise _BadRequest(
                400, "Transfer-Encoding is not supported; send Content-Length"
            )
        length_text = headers.get("content-length", "0")
        if not (length_text.isascii() and length_text.isdigit()):
            raise _BadRequest(400, "invalid Content-Length")
        length = int(length_text)
        if length > _MAX_BODY_BYTES:
            raise _BadRequest(413, "job spec too large")
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=_READ_TIMEOUT
            )
        return method, target, headers, body, keep_alive

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        content_type: str,
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, str):
            data = payload.encode("utf-8")
        else:
            data = json.dumps(payload).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
            "Connection: keep-alive" if keep_alive else "Connection: close",
        ]
        if status in (429, 503):
            head.append("Retry-After: 1")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + data)
        await writer.drain()


class BackgroundServer:
    """A :class:`SimulationServer` running in a daemon thread (tests, demos).

    Context-manager shaped: ``__enter__`` starts the loop thread, waits for
    the listener to bind (port 0 → ephemeral) and returns the handle with
    :attr:`url` set; ``__exit__`` requests a drain and joins the thread.
    """

    def __init__(self, **server_kwargs: Any) -> None:
        server_kwargs.setdefault("port", 0)
        self.server = SimulationServer(**server_kwargs)
        self.url: Optional[str] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=60.0):
            raise RuntimeError("serve thread failed to start within 60s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serve thread failed to start: {self._startup_error}"
            )
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.drain()
        if self._thread is not None:
            self._thread.join(timeout=120.0)

    def drain(self) -> None:
        """Request a graceful drain from any thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self.server.request_drain)
            except RuntimeError:
                pass  # loop already stopped: drain is moot

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - startup failures
            self._startup_error = error
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self.url = f"http://{self.server.host}:{self.server.port}"
        self._started.set()
        await self.server.wait_drained()
        await self.server.shutdown()
