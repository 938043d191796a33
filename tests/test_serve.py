"""Tests for the serve layer: job specs, content keys, server, client.

The load-bearing properties:

* job validation inherits the sweep layer's rejection rules (unknown
  protocols/params/schedulers/engines, unknown fields, malformed scalars),
* the content key canonicalizes — reordered JSON, case/whitespace spellings
  and defaulted-vs-explicit optional fields share one key, while anything
  that changes the simulated ensemble (seed, population, budget, analytics)
  gets its own,
* seeds follow the sweep discipline: a served job, the equivalent sweep
  cell, and a direct ``Simulator.run_many`` draw identical seeds, so the
  served payload is **byte-identical** (post-JSON) to a direct run,
* the server caches by content key (duplicate submission → cache hit, zero
  new pool work), enforces the per-client 429 cap, coalesces concurrent
  duplicates, and drains gracefully (503 for new work, in-flight completes),
* on the wire, one connection carries many requests, answered in order and
  framed by ``Content-Length``; a framing error (400, 413, 431), a request
  for ``Connection: close`` or HTTP/1.0, a response while draining, and a
  head slower than one read timeout close it,
* a submission that starts or joins a job is held until the job ends or
  the hold passes, then answered with the job's result or error, or 202 at
  its status; other connections are served meanwhile, and a drain during
  the hold closes the connection after the answer,
* one ``ServeClient`` keeps one connection across threads, sends each
  request in one write, reconnects after the server closes it, returns a
  result its submission carries without polling, and a drain with it open
  stays prompt,
* the server's settings have fixed defaults and fail loudly on malformed
  values, in the constructor and on the command line (exit 2), and a
  listener that cannot bind is one ``error:`` line and exit 2.
"""

import asyncio
import errno
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import pytest

import repro
from repro.serve import (
    BackgroundServer,
    JobFailedError,
    JobSpec,
    ServeClient,
    ServeRejected,
    SimulationServer,
)
from repro.serve import server as server_module
from repro.serve.client import ServeError
from repro.simulation.simulator import Simulator
from repro.sweep.spec import SweepSpec, build_protocol_and_inputs, derive_cell_seed


def _job(**overrides):
    base = dict(protocol="majority", population=24, repetitions=3, max_steps=8000)
    base.update(overrides)
    return base


#: A job that outlasts the server's submission hold many times over.
#: modulo never reaches a terminal configuration and the stability window
#: equals the step budget, so every run fires the whole budget; the compiled
#: engine, which runs with or without a C compiler, takes ~0.55 s for it on
#: a 2-core x86 host, 11x the 50 ms hold.
_SLOW_JOB = _job(protocol="modulo", population=8, repetitions=4,
                 max_steps=200_000, stability_window=200_000, engine="compiled")


def _serve_cli_error(*flags):
    """The one ``error:`` line of a ``python -m repro.serve`` that must exit 2.

    The command runs as a subprocess under a timeout, so a regression that
    lets it bind fails the test instead of serving until a signal.
    """
    src = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "repro.serve", *flags],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def _render_direct(spec: JobSpec):
    """The job executed directly via Simulator.run_many, rendered like serve."""
    protocol, inputs = build_protocol_and_inputs(
        spec.protocol, spec.population, spec.params
    )
    simulator = Simulator(protocol, engine=spec.engine, seed=spec.ensemble_seed)
    results = simulator.run_many(
        inputs,
        spec.repetitions,
        max_steps=spec.max_steps,
        stability_window=spec.stability_window,
    )
    rendered = [
        {
            "seed": seed,
            "steps": result.steps,
            "consensus": result.consensus,
            "consensus_step": result.consensus_step,
            "converged": result.converged,
            "terminated": result.terminated,
            "interactions_sampled": result.interactions_sampled,
        }
        for seed, result in zip(spec.repetition_seeds(), results)
    ]
    return json.loads(json.dumps(rendered))


class TestJobSpecValidation:
    def test_unknown_protocol_rejected_like_sweeps(self):
        with pytest.raises(ValueError, match="unknown sweep protocol"):
            JobSpec.from_dict(_job(protocol="nope"))

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="does not accept parameters"):
            JobSpec.from_dict(_job(params={"bogus": 1}))

    def test_unknown_scheduler_and_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler kind"):
            JobSpec.from_dict(_job(scheduler="chaotic"))
        with pytest.raises(ValueError, match="unknown engine"):
            JobSpec.from_dict(_job(engine="warp"))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown job fields"):
            JobSpec.from_dict(_job(seed=7))

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ValueError, match="'protocol' and 'population'"):
            JobSpec.from_dict({"population": 10})

    def test_non_integral_scalars_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            JobSpec.from_dict(_job(population=10.5))
        with pytest.raises(ValueError, match="must be an integer"):
            JobSpec.from_dict(_job(repetitions="four"))

    def test_round_trips_through_to_dict(self):
        spec = JobSpec.from_dict(_job(analytics=True))
        assert JobSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("analytics", ["false", 1])
    def test_non_boolean_analytics_rejected(self, analytics):
        # "false" used to validate and run with analytics on, under the key
        # of analytics=true.
        with pytest.raises(ValueError, match="analytics must be a boolean"):
            JobSpec.from_dict(_job(analytics=analytics))
        server = SimulationServer(backend="serial")
        status, body = server._submit(_job(analytics=analytics), "client-a")
        assert status == 400
        assert "analytics must be a boolean" in body["error"]


class TestContentKeyCanonicalization:
    def test_reordered_json_keys_share_a_key(self):
        a = JobSpec.from_dict(
            {"protocol": "majority", "population": 24, "repetitions": 3}
        )
        b = JobSpec.from_dict(
            {"repetitions": 3, "population": 24, "protocol": "majority"}
        )
        assert a.key == b.key

    def test_equivalent_spellings_share_a_key(self):
        a = JobSpec.from_dict(_job(protocol=" Majority ", engine="Native"))
        b = JobSpec.from_dict(_job(protocol="majority", engine="native"))
        assert a.key == b.key

    def test_defaulted_and_explicit_optionals_share_a_key(self):
        minimal = JobSpec.from_dict({"protocol": "majority", "population": 24})
        explicit = JobSpec.from_dict(
            {
                "protocol": "majority",
                "population": 24.0,
                "params": {},
                "scheduler": "uniform",
                "engine": "auto",
                "repetitions": 8,
                "master_seed": 0,
                "max_steps": 100000,
                "stability_window": 200,
                "analytics": False,
            }
        )
        assert minimal.key == explicit.key

    def test_reordered_params_share_a_key(self):
        a = JobSpec.from_dict(
            _job(protocol="modulo", params={"modulus": 3, "remainder": 1})
        )
        b = JobSpec.from_dict(
            _job(protocol="modulo", params={"remainder": 1, "modulus": 3})
        )
        assert a.key == b.key

    def test_distinct_seeds_and_populations_do_not_collide(self):
        base = JobSpec.from_dict(_job())
        assert base.key != JobSpec.from_dict(_job(master_seed=1)).key
        assert base.key != JobSpec.from_dict(_job(population=25)).key
        assert base.key != JobSpec.from_dict(_job(repetitions=4)).key
        assert base.key != JobSpec.from_dict(_job(max_steps=9000)).key
        assert base.key != JobSpec.from_dict(_job(stability_window=100)).key
        assert base.key != JobSpec.from_dict(_job(analytics=True)).key
        assert base.key != JobSpec.from_dict(_job(engine="native")).key
        assert (
            base.key
            != JobSpec.from_dict(_job(protocol="modulo", params={"modulus": 2})).key
        )

    def test_engine_changes_key_but_not_seed(self):
        auto = JobSpec.from_dict(_job(engine="auto"))
        native = JobSpec.from_dict(_job(engine="native"))
        assert auto.key != native.key
        assert auto.ensemble_seed == native.ensemble_seed


class TestSeedDiscipline:
    def test_ensemble_seed_matches_sweep_cell_seed(self):
        spec = JobSpec.from_dict(_job(master_seed=42))
        sweep = SweepSpec(
            protocols=["majority"],
            populations=[24],
            repetitions=3,
            master_seed=42,
            max_steps=8000,
        )
        (cell,) = sweep.cells()
        assert spec.ensemble_seed == sweep.cell_seed(cell)
        assert spec.ensemble_seed == derive_cell_seed(42, cell.seed_scope)

    def test_repetition_seeds_match_run_many_derivation(self):
        spec = JobSpec.from_dict(_job())
        import random

        master = random.Random(spec.ensemble_seed)
        expected = [master.getrandbits(64) for _ in range(spec.repetitions)]
        assert spec.repetition_seeds() == expected


class TestServerEndToEnd:
    def test_served_result_byte_identical_to_direct_run(self):
        job = _job()
        spec = JobSpec.from_dict(job)
        with BackgroundServer(backend="process", max_workers=2, concurrency=1) as bg:
            client = ServeClient(bg.url, client_id="t1")
            result = client.run(job, timeout=300)
        assert result["runs"] == _render_direct(spec)
        assert result["statistics"]["runs"] == spec.repetitions
        assert result["accuracy"] is not None
        assert result["job"] == spec.key

    def test_duplicate_submission_is_a_cache_hit_with_no_new_pool_work(self):
        job = _job()
        respelled = {
            "max_steps": job["max_steps"],
            "repetitions": job["repetitions"],
            "population": float(job["population"]),
            "protocol": " MAJORITY ",
            "engine": "Auto",
            "scheduler": "uniform",
        }
        with BackgroundServer(backend="process", max_workers=2, concurrency=1) as bg:
            client = ServeClient(bg.url, client_id="t2")
            first = client.run(job, timeout=300)
            second = client.submit(respelled)
            metrics = client.metrics()
        assert second["cached"] is True
        assert second["result"] == first
        assert metrics["repro_serve_cache_hits"] == 1
        assert metrics["repro_serve_jobs_completed"] == 1

    def test_analytics_payload_served(self):
        job = _job(analytics=True)
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            client = ServeClient(bg.url, client_id="t3")
            result = client.run(job, timeout=300)
        assert len(result["analytics"]) == job["repetitions"]
        for metrics in result["analytics"]:
            assert "time_to_stable_consensus" in metrics
            assert "correct" in metrics

    def test_validation_errors_surface_as_400(self):
        from repro.serve.client import ServeError

        with BackgroundServer(backend="serial", concurrency=1) as bg:
            client = ServeClient(bg.url, client_id="t4")
            with pytest.raises(ServeError, match="unknown sweep protocol"):
                client.submit(_job(protocol="nope"))
            with pytest.raises(ServeError, match="HTTP 404"):
                client.status("not-a-real-key")

    def test_drain_rejects_new_work_and_finishes_in_flight(self):
        # The job outlasts the submission hold, so it is reliably still in
        # flight when the drain and the 503 probe land right after the
        # submission is answered.
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            client = ServeClient(bg.url, client_id="t5")
            submitted = client.submit(_SLOW_JOB)
            assert submitted["status"] in ("queued", "running")
            bg.drain()
            with pytest.raises(ServeRejected) as rejected:
                client.submit(_job(population=61))
            assert rejected.value.status == 503
        # __exit__ joined the thread: the in-flight ensemble completed and
        # landed in the cache before shutdown.
        assert bg.server.metrics.as_dict()["jobs_completed"] == 1
        assert bg.server.metrics.as_dict()["jobs_failed"] == 0
        assert bg.server.metrics.as_dict()["rejected_draining"] == 1
        status, body = bg.server._job_status(submitted["job"])
        assert status == 200 and body["status"] == "done"
        assert body["result"]["statistics"]["runs"] == 4


class TestJobTimeouts:
    def test_serial_backend_rejects_a_job_timeout(self):
        # The serial backend cannot interrupt an ensemble; the budget would
        # be silently ignored, so the server refuses it before binding.
        with pytest.raises(ValueError, match="job_timeout.*backend='process'"):
            SimulationServer(backend="serial", job_timeout=0.05)

    @pytest.mark.parametrize("timeout", [0, -1.5])
    def test_a_non_positive_job_timeout_is_rejected(self, timeout):
        with pytest.raises(ValueError, match="job_timeout must be positive"):
            SimulationServer(job_timeout=timeout)

    def test_cli_exits_2_on_a_serial_job_timeout(self):
        # A subprocess with a timeout: were the flag accepted, the server
        # would bind and serve until a signal.
        error = _serve_cli_error("--backend", "serial", "--job-timeout", "0.05", "--port", "0")
        assert "job_timeout" in error

    def test_job_past_its_timeout_fails_and_the_next_is_served(self):
        # modulo never reaches a terminal configuration, so with
        # stability_window == max_steps each run fires the whole budget:
        # this job takes ~10.5 s on 2 workers (2-core x86 host), 21x the
        # 0.5 s budget.  The majority job after it finishes in milliseconds.
        slow = dict(protocol="modulo", population=8, repetitions=4,
                    engine="compiled", max_steps=4_000_000,
                    stability_window=4_000_000)
        with BackgroundServer(
            backend="process", max_workers=2, concurrency=1, job_timeout=0.5
        ) as bg:
            client = ServeClient(bg.url, client_id="t-timeout")
            # A counter appears on /metrics once it is first incremented.
            failed_before = client.metrics().get("repro_serve_jobs_failed", 0)
            key = client.submit(slow)["job"]
            with pytest.raises(JobFailedError, match="WorkerTimeoutError"):
                client.wait(key, timeout=120)
            assert client.status(key)["status"] == "error"
            failed_after = client.metrics().get("repro_serve_jobs_failed", 0)
            served = client.run(_job(population=8), timeout=120)
        assert failed_after == failed_before + 1
        assert served["statistics"]["runs"] == 3


class TestBackpressureAndCoalescing:
    """Handler-level tests: deterministic, no event loop or timing needed."""

    def test_in_flight_cap_rejects_with_429(self):
        server = SimulationServer(backend="serial", max_inflight=1)
        status, first = server._submit(_job(), "client-a")
        assert status == 202 and first["status"] == "queued"
        status, second = server._submit(_job(population=25), "client-a")
        assert status == 429
        assert "retry_after" in second
        assert server.metrics.as_dict()["rejected_backpressure"] == 1
        # A different client is unaffected by client-a's cap.
        status, other = server._submit(_job(population=25), "client-b")
        assert status == 202

    def test_concurrent_duplicate_coalesces_instead_of_requeueing(self):
        server = SimulationServer(backend="serial", max_inflight=4)
        status, first = server._submit(_job(), "client-a")
        assert status == 202
        status, duplicate = server._submit(_job(), "client-b")
        assert status == 202
        assert duplicate["coalesced"] is True
        assert duplicate["job"] == first["job"]
        assert len(server._pending) == 1
        assert server.metrics.as_dict()["jobs_coalesced"] == 1

    def test_resubmitting_own_active_job_does_not_hit_the_cap(self):
        server = SimulationServer(backend="serial", max_inflight=1)
        status, first = server._submit(_job(), "client-a")
        assert status == 202
        # The same key again from the same client: coalesce, not 429.
        status, again = server._submit(_job(), "client-a")
        assert status == 202 and again["coalesced"] is True

    def test_draining_server_rejects_submissions(self):
        server = SimulationServer(backend="serial")
        server.request_drain()
        status, body = server._submit(_job(), "client-a")
        assert status == 503
        assert "draining" in body["error"]


class TestServeConfigKnobs:
    def test_defaults(self):
        from repro.serve.__main__ import _build_parser

        server = SimulationServer(backend="serial")
        assert (
            server.host, server.requested_port, server.cache_size, server.max_inflight
        ) == ("127.0.0.1", 8765, 256, 8)
        args = _build_parser().parse_args([])
        assert (args.host, args.port, args.cache_size, args.max_inflight) == (
            "127.0.0.1", 8765, 256, 8
        )

    def test_server_constructor_validates_knobs(self):
        with pytest.raises(ValueError, match="backend"):
            SimulationServer(backend="quantum")
        with pytest.raises(ValueError, match="concurrency"):
            SimulationServer(backend="serial", concurrency=0)
        with pytest.raises(ValueError, match="cache_size"):
            SimulationServer(backend="serial", cache_size=0)
        with pytest.raises(ValueError, match="max_inflight"):
            SimulationServer(backend="serial", max_inflight=0)
        with pytest.raises(ValueError, match="max_workers"):
            SimulationServer(backend="process", max_workers=0)
        for port in (-5, 65536, 70000):
            with pytest.raises(ValueError, match="port"):
                SimulationServer(backend="serial", port=port)
        assert SimulationServer(backend="serial", port=65535).requested_port == 65535

    @pytest.mark.parametrize("port", ["70000", "-5"])
    def test_cli_exits_2_on_an_out_of_range_port(self, capsys, port):
        from repro.serve.__main__ import main as serve_main

        assert serve_main(["--backend", "serial", "--port", port]) == 2
        assert capsys.readouterr().err.startswith("error: port")

    def test_cli_exits_2_on_zero_workers(self):
        error = _serve_cli_error("--backend", "process", "--port", "0", "--workers", "0")
        assert error.startswith("error: max_workers")

    def test_cli_exits_2_on_a_busy_port(self, capsys):
        from repro.serve.__main__ import main as serve_main

        with closing(socket.socket()) as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            assert serve_main(["--backend", "serial", "--port", str(port)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot listen on 127.0.0.1:{port}: {os.strerror(errno.EADDRINUSE)}\n"
        )

    def test_cli_exits_2_on_a_host_that_does_not_resolve(self, capsys, monkeypatch):
        from repro.serve.__main__ import main as serve_main

        async def unresolved(*args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(server_module.asyncio, "start_server", unresolved)
        assert serve_main(["--backend", "serial", "--host", "nowhere.invalid"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot listen on nowhere.invalid:8765: Name or service not known\n"
        )

    def test_a_failed_bind_releases_the_executor_and_the_pool(self):
        with closing(socket.socket()) as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            server = SimulationServer(
                backend="process", max_workers=1, port=busy.getsockname()[1]
            )
            with pytest.raises(OSError):
                asyncio.run(server.start())
        assert server._executor is None and server._pool is None


class TestResultCacheBounds:
    def test_cache_evicts_least_recently_used(self):
        server = SimulationServer(backend="serial", cache_size=2)
        for population in (10, 11, 12):
            spec = JobSpec.from_dict(_job(population=population))
            server._cache[spec.key] = {"population": population}
            server._cache.move_to_end(spec.key)
            while len(server._cache) > server.cache_size:
                server._cache.popitem(last=False)
        assert len(server._cache) == 2
        oldest = JobSpec.from_dict(_job(population=10))
        status, body = server._job_status(oldest.key)
        assert status == 404


def _connect(url):
    """A raw socket to a ``BackgroundServer`` URL, and its binary stream."""
    host, port = url.rsplit("/", 1)[1].rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=5)
    return sock, sock.makefile("rb")


def _read_response(stream):
    """One response off the stream: ``(status, headers, body)``, or None at EOF."""
    status_line = stream.readline()
    if not status_line:
        return None
    headers = {}
    for line in iter(stream.readline, b"\r\n"):
        if not line:
            raise ConnectionError("connection closed inside a response head")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def _at_eof(stream):
    """Whether the server has closed the connection (EOF, or a reset)."""
    try:
        return stream.read(1) == b""
    except ConnectionResetError:
        return True


_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


class TestWireProtocol:
    """Raw-socket tests of the request framing and connection lifetime."""

    def test_pipelined_requests_are_answered_in_order(self):
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            sock, stream = _connect(bg.url)
            with sock, stream:
                sock.sendall(
                    _HEALTHZ
                    + b"GET /jobs/nope HTTP/1.1\r\n\r\n"
                    + b"GET /metrics HTTP/1.1\r\n\r\n"
                )
                first, second, third = (_read_response(stream) for _ in range(3))
                assert first[0] == 200 and first[2] == b"ok\n"
                assert second[0] == 404 and b"unknown job 'nope'" in second[2]
                assert third[0] == 200 and b"repro_serve_connections_open 1" in third[2]
                assert first[1]["connection"] == "keep-alive"

    def test_post_body_is_framed_by_content_length(self):
        body = json.dumps(_job()).encode()
        # Runs the engine in this process first, so the hold never waits for
        # the engine to load or build.
        direct = _render_direct(JobSpec.from_dict(_job()))
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            sock, stream = _connect(bg.url)
            with sock, stream:
                sock.sendall(
                    b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
                    + body
                    + _HEALTHZ
                )
                status, _, submitted = _read_response(stream)
                answer = json.loads(submitted)
                # A quick job ends within the hold: its POST carries the result.
                assert status == 200
                assert answer["job"] == JobSpec.from_dict(_job()).key
                assert (answer["status"], answer["cached"]) == ("done", False)
                assert answer["result"]["runs"] == direct
                status, _, health = _read_response(stream)
                assert (status, health) == (200, b"ok\n")

    @pytest.mark.parametrize(
        "request_bytes, status, fragment, stays_open",
        [
            (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 200, b"ok", False),
            (b"GET /healthz HTTP/1.0\r\n\r\n", 200, b"ok", False),
            (b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 200,
             b"ok", True),
            (b"GET /healthz\r\n\r\n", 200, b"ok", False),
            (b"NONSENSE\r\n\r\n", 400, b"malformed request line", False),
            # 0xB2 is a superscript two: str.isdigit() accepts it, int() does not.
            (b"POST /jobs HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n", 400,
             b"invalid Content-Length", False),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400,
             b"invalid Content-Length", False),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
             400, b"invalid Content-Length", False),
            (b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400,
             b"Transfer-Encoding", False),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n", 413,
             b"too large", False),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431,
             b"request head too large", False),
            (b"GET /nowhere HTTP/1.1\r\n\r\n", 404, b"no such endpoint", True),
            (b"DELETE /healthz HTTP/1.1\r\n\r\n", 405, b"GET-only", True),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{]", 400,
             b"not JSON", True),
        ],
    )
    def test_which_responses_close_the_connection(
        self, request_bytes, status, fragment, stays_open
    ):
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            sock, stream = _connect(bg.url)
            with sock, stream:
                sock.sendall(request_bytes)
                answered, headers, body = _read_response(stream)
                assert answered == status and fragment in body
                assert headers["connection"] == ("keep-alive" if stays_open else "close")
                if stays_open:
                    sock.sendall(_HEALTHZ)
                    assert _read_response(stream)[0] == 200
                else:
                    assert _at_eof(stream)

    def test_a_response_while_draining_closes_the_connection(self):
        # As in the drain test above: the job outlasts the submission hold,
        # so it is still in flight when the probe lands.
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            with closing(ServeClient(bg.url)) as client:
                client.submit(_SLOW_JOB)
            sock, stream = _connect(bg.url)
            with sock, stream:
                bg.drain()
                sock.sendall(_HEALTHZ)
                status, headers, body = _read_response(stream)
                assert (status, body) == (200, b"draining\n")
                assert headers["connection"] == "close"
                assert _at_eof(stream)

    def test_a_head_must_arrive_within_one_read_timeout(self, monkeypatch):
        # One header line every 0.1 s: each line used to restart the timeout,
        # so a trickling client held its handler for as long as it liked.
        monkeypatch.setattr(server_module, "_READ_TIMEOUT", 0.5)
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            sock, stream = _connect(bg.url)
            with sock, stream:
                started = time.monotonic()
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                while time.monotonic() - started < 5.0:
                    if select.select([sock], [], [], 0.1)[0]:
                        break
                    try:
                        sock.sendall(b"X-Trickle: 1\r\n")
                    except OSError:
                        break
                elapsed = time.monotonic() - started
                assert _at_eof(stream)
        assert 0.25 < elapsed < 2.0


def _post(job):
    """The raw ``POST /jobs`` request submitting ``job``."""
    body = json.dumps(job).encode()
    return b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body


def _until(condition, timeout=10.0):
    """Wait until ``condition()`` holds; fail the test after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


@pytest.fixture
def gate(monkeypatch):
    """Hold every job's execution until the test sets the returned event,
    under a submission hold long enough to outlast the wait."""
    opened = threading.Event()
    run_job = server_module.run_job

    def gated(cells, spec):
        opened.wait(timeout=30)
        return run_job(cells, spec)

    monkeypatch.setattr(server_module, "run_job", gated)
    monkeypatch.setattr(server_module, "_SUBMIT_HOLD", 30.0)
    yield opened
    opened.set()


class TestHeldSubmission:
    """A submission that starts or joins a job is held until the job ends or
    the hold passes, and answered with the job's outcome if it ended."""

    def test_a_quick_fresh_job_is_answered_by_its_own_post(self):
        spec = JobSpec.from_dict(_job())
        # Runs the engine in this process first, so the hold never waits for
        # the engine to load or build.
        direct = _render_direct(spec)
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            sock, stream = _connect(bg.url)
            with sock, stream:
                sock.sendall(_post(_job()))
                status, _, raw = _read_response(stream)
            with closing(ServeClient(bg.url)) as client:
                polled = client.status(spec.key)
            answered = bg.server.metrics.as_dict()["jobs_answered_on_submit"]
        answer = json.loads(raw)
        assert status == 200
        assert (answer["job"], answer["status"], answer["cached"]) == (
            spec.key, "done", False
        )
        assert answer["result"] == polled["result"]
        assert answer["result"]["runs"] == direct
        assert answered == 1

    def test_a_job_that_outlasts_the_hold_is_answered_202_running(self, monkeypatch):
        # A longer hold than the default, so the probe below lands inside it
        # on a slow host too; the slow job still outlasts it.
        monkeypatch.setattr(server_module, "_SUBMIT_HOLD", 0.2)
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            sock, stream = _connect(bg.url)
            probe, probe_stream = _connect(bg.url)
            with sock, stream, probe, probe_stream:
                started = time.monotonic()
                sock.sendall(_post(_SLOW_JOB))
                _until(lambda: bg.server.metrics.as_dict()["jobs_submitted"] == 1)
                probe.sendall(_HEALTHZ)
                health = _read_response(probe_stream)
                # The held POST is not answered yet: the probe's connection
                # was served during the hold.
                held = not select.select([sock], [], [], 0)[0]
                status, _, raw = _read_response(stream)
                elapsed = time.monotonic() - started
            answered = bg.server.metrics.as_dict()["jobs_answered_on_submit"]
        answer = json.loads(raw)
        assert (health[0], health[2]) == (200, b"ok\n")
        assert held
        assert status == 202
        assert answer == {
            "job": JobSpec.from_dict(_SLOW_JOB).key, "status": "running", "cached": False
        }
        assert 0.2 <= elapsed < 0.2 + 1.0
        assert answered == 0

    def test_a_coalesced_duplicate_is_held_the_same_way(self, gate):
        key = JobSpec.from_dict(_job()).key
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            first, first_stream = _connect(bg.url)
            second, second_stream = _connect(bg.url)
            with first, first_stream, second, second_stream:
                first.sendall(_post(_job()))
                _until(lambda: bg.server.metrics.as_dict()["jobs_submitted"] == 1)
                second.sendall(_post(_job()))
                _until(lambda: bg.server.metrics.as_dict()["jobs_coalesced"] == 1)
                gate.set()
                answers = [_read_response(first_stream), _read_response(second_stream)]
            answered = bg.server.metrics.as_dict()["jobs_answered_on_submit"]
        (status, _, raw), (dup_status, _, dup_raw) = answers
        answer, duplicate = json.loads(raw), json.loads(dup_raw)
        assert (status, dup_status) == (200, 200)
        assert (answer["job"], answer["status"], answer["cached"]) == (key, "done", False)
        assert "coalesced" not in answer
        assert (duplicate["job"], duplicate["status"], duplicate["coalesced"]) == (
            key, "done", True
        )
        assert duplicate["result"] == answer["result"]
        assert answered == 2

    def test_a_failed_job_is_answered_error_and_run_raises_without_polling(
        self, monkeypatch
    ):
        def broken(cells, spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(server_module, "run_job", broken)
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            sock, stream = _connect(bg.url)
            with sock, stream:
                sock.sendall(_post(_job()))
                status, _, raw = _read_response(stream)
            with closing(ServeClient(bg.url)) as client:
                polled = []
                monkeypatch.setattr(client, "status", polled.append)
                with pytest.raises(JobFailedError, match="RuntimeError: boom"):
                    client.run(_job(population=25))
        answer = json.loads(raw)
        assert status == 200
        assert (answer["status"], answer["error"]) == ("error", "RuntimeError: boom")
        assert polled == []

    def test_a_drain_during_a_hold_closes_the_connection_after_the_answer(self, gate):
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            sock, stream = _connect(bg.url)
            with sock, stream:
                sock.sendall(_post(_job()))
                _until(lambda: bg.server.metrics.as_dict()["jobs_submitted"] == 1)
                bg.drain()
                _until(lambda: bg.server._draining)
                gate.set()
                status, headers, raw = _read_response(stream)
                assert _at_eof(stream)
        assert (status, json.loads(raw)["status"]) == (200, "done")
        assert headers["connection"] == "close"


class _WriteSpy:
    """A socket that records every write made through it."""

    def __init__(self, sock, writes):
        self._sock, self._writes = sock, writes

    def __getattr__(self, name):
        attr = getattr(self._sock, name)
        if not name.startswith("send"):
            return attr

        def write(data, *args):
            self._writes.append((name, bytes(data)))
            return attr(data, *args)

        return write


class TestClientTransport:
    def test_each_request_leaves_in_one_sendall(self, monkeypatch):
        writes = []
        connect = socket.create_connection
        monkeypatch.setattr(
            socket, "create_connection",
            lambda *args, **kwargs: _WriteSpy(connect(*args, **kwargs), writes),
        )
        with BackgroundServer(backend="serial", concurrency=1) as bg, closing(
            ServeClient(bg.url, client_id="w1")
        ) as client:
            assert client.health() == "ok"
            key = client.submit(_job())["job"]
            client.status(key)
            client.metrics()
            # A quick fresh job: run takes the result its submission
            # carries, with no status request after it.
            assert client.run(_job(population=25))["statistics"]["runs"] == 3
        body = json.dumps(_job()).encode()
        assert [name for name, _ in writes] == ["sendall"] * 5
        post = writes[1][1]
        assert post.startswith(b"POST /jobs HTTP/1.1\r\n")
        assert b"\r\nX-Client-Id: w1\r\n" in post
        assert post.endswith(b"\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
        assert writes[2][1].startswith(b"GET /jobs/%s HTTP/1.1\r\n" % key.encode())

    def test_https_is_accepted_and_other_schemes_raise(self):
        # Building a client opens no connection, so no TLS server is needed.
        ServeClient("https://127.0.0.1:8443").close()
        for url in ("ftp://127.0.0.1:8765", "127.0.0.1:8765", "ws://127.0.0.1"):
            with pytest.raises(ValueError, match="http:// or https://"):
                ServeClient(url)


class TestPersistentClient:
    def test_one_client_uses_one_connection(self):
        with BackgroundServer(backend="serial", concurrency=1) as bg, closing(
            ServeClient(bg.url, client_id="p1")
        ) as client:
            assert client.health() == "ok"
            client.run(_job(), timeout=60)
            with pytest.raises(ServeError, match="HTTP 404"):
                client.status("missing")
            metrics = client.metrics()
        assert metrics["repro_serve_connections_accepted"] == 1
        assert metrics["repro_serve_connections_open"] == 1

    def test_client_reconnects_after_the_server_closes_its_idle_connection(
        self, monkeypatch
    ):
        monkeypatch.setattr(server_module, "_READ_TIMEOUT", 0.2)
        with BackgroundServer(backend="serial", concurrency=1) as bg, closing(
            ServeClient(bg.url)
        ) as client:
            assert client.health() == "ok"
            time.sleep(0.6)
            assert client.health() == "ok"
            metrics = client.metrics()
        # The server closed the first connection when it sat idle past the
        # read timeout; the client's second one is the only one open.
        assert metrics["repro_serve_connections_accepted"] == 2
        assert metrics["repro_serve_connections_open"] == 1

    def test_a_failed_connect_caches_no_connection(self):
        # The case of a client polling /healthz before its server is up.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with closing(ServeClient(f"http://127.0.0.1:{port}")) as client:
            with pytest.raises(OSError):
                client.health()
            with BackgroundServer(backend="serial", concurrency=1,
                                  host="127.0.0.1", port=port):
                assert client.health() == "ok"

    def test_threads_sharing_a_client_each_get_their_own_response(self):
        mismatches = []
        with BackgroundServer(backend="serial", concurrency=1) as bg, closing(
            ServeClient(bg.url, client_id="shared")
        ) as client:

            def work(index):
                for round_ in range(25):
                    key = f"thread-{index}-{round_}"
                    try:
                        client.status(key)
                    except ServeError as error:
                        if error.status != 404 or key not in error.payload["error"]:
                            mismatches.append((key, error))
                    else:
                        mismatches.append((key, "answered"))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert client.metrics()["repro_serve_connections_accepted"] == 1
        assert mismatches == []


class TestPromptDrain:
    """A drain with an idle persistent connection open finishes at once:
    from Python 3.12 on, asyncio's ``Server.wait_closed`` waits for every
    open connection, so the server must close the idle ones itself."""

    def test_background_server_exit_is_prompt(self, caplog):
        with BackgroundServer(backend="serial", concurrency=1) as bg:
            client = ServeClient(bg.url)
            assert client.health() == "ok"
            started = time.monotonic()
        elapsed = time.monotonic() - started
        client.close()
        assert elapsed < 1.0
        # Before 3.12 the loop's teardown would cancel a handler left
        # waiting, and asyncio logs that as an error.
        assert not [r for r in caplog.records if r.name == "asyncio"]
        assert not bg._thread.is_alive()
        assert bg.server.metrics_text().count("repro_serve_connections_open 0") == 1

    def test_sigterm_drain_is_prompt(self):
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--backend", "serial",
             "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            url = json.loads(proc.stdout.readline())["serving"]
            with closing(ServeClient(url)) as client:
                assert client.health() == "ok"
                started = time.monotonic()
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=30)
                elapsed = time.monotonic() - started
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        assert json.loads(out.strip().splitlines()[-1])["drained"] is True
        assert elapsed < 1.0
