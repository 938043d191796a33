"""Tests for the observability layer (repro.obs) and its integrations.

The load-bearing properties:

* the server's ``/metrics`` text is byte-identical to a golden file after
  a scripted sequence of updates, and survives threaded hammering without
  losing updates or tearing a concurrent scrape,
* spans nest by call stack, ship across process boundaries via
  capture/adopt with ids remapped and top-level spans re-parented,
* the canonical rendering of a traced ensemble is **byte-identical**
  between the serial and process backends for a fixed seed (timing and
  topology attrs stripped, logical structure kept),
* a traced sweep cell / serve job reconstructs its full span tree,
* the serve ``/metrics`` endpoint is idle-deterministic (two scrapes of an
  untouched server are byte-identical) and self-describing,
* the heartbeat pump turns lease trouble into structured warnings instead
  of silence.
"""

import itertools
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from engines import ENGINES
from repro.core import Configuration, from_counts
from repro.obs import render
from repro.obs import trace as obs_trace
from repro.obs.__main__ import main as obs_main
from repro.protocols import majority_protocol
from repro.serve.server import ServeMetrics, SimulationServer
from repro.simulation import Simulator
from repro.sweep import SqliteResultStore, SweepRunner, SweepSpec
from repro.sweep import runner as sweep_runner
from repro.sweep.runner import _HeartbeatPump

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with no process-wide tracer installed."""
    obs_trace.uninstall_tracer()
    yield
    obs_trace.uninstall_tracer()


def _install_file_tracer(path):
    return obs_trace.install_tracer(obs_trace.Tracer(str(path)))


# ---------------------------------------------------------------------------
# The server's metrics
# ---------------------------------------------------------------------------


class TestServeMetrics:
    def test_exposition_matches_the_golden_file(self):
        # A fresh scrape, then counter increments (one counter twice),
        # queue waits on a bucket bound and past the last bound, one
        # execution time, two connections, and a second scrape.
        server = SimulationServer(backend="serial")
        first = server.metrics_text()
        for name in ("jobs_submitted", "cache_misses", "jobs_submitted",
                     "jobs_completed", "cache_hits"):
            server.metrics.inc(name)
        for seconds in (0.0004, 0.0025, 0.3, 12.5):
            server.metrics.observe("job_queue_wait_seconds", seconds)
        server.metrics.observe("job_exec_seconds", 0.0421)
        server.metrics.inc("connections_accepted")
        server.metrics.inc("connections_accepted")
        second = server.metrics_text()
        golden = (GOLDEN / "serve_metrics.txt").read_bytes()
        assert (first + second).encode() == golden

    def test_an_unknown_family_name_raises(self):
        metrics = ServeMetrics()
        with pytest.raises(KeyError):
            metrics.inc("jobs_total")
        with pytest.raises(KeyError):
            metrics.observe("jobs_submitted", 0.1)

    def test_histogram_buckets_are_cumulative_with_inf(self):
        server = SimulationServer(backend="serial")
        for value in (0.05, 0.5, 50.0):
            server.metrics.observe("job_exec_seconds", value)
        text = server.metrics_text()
        assert 'repro_serve_job_exec_seconds_bucket{le="0.05"} 1' in text
        assert 'repro_serve_job_exec_seconds_bucket{le="0.5"} 2' in text
        assert 'repro_serve_job_exec_seconds_bucket{le="10"} 2' in text
        assert 'repro_serve_job_exec_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_serve_job_exec_seconds_count 3" in text
        assert "repro_serve_job_exec_seconds_sum 50.55" in text

    def test_threaded_increments_lose_no_updates(self):
        # Updates run on the event loop while scrapes come from other
        # threads; dropped updates would silently skew the metrics.  A short
        # switch interval makes a read-modify-write without the lock lose
        # updates.
        server = SimulationServer(backend="serial")
        threads, per_thread, scrapes = 4, 100000, []

        def count():
            for _ in range(per_thread):
                server.metrics.inc("jobs_submitted")

        def observe():
            for _ in range(per_thread):
                server.metrics.observe("job_exec_seconds", 0.01)

        def scrape():
            for _ in range(50):
                scrapes.append(server.metrics_text())

        workers = [
            threading.Thread(target=target)
            for target in [count] * threads + [observe] * threads + [scrape]
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert server.metrics.as_dict()["jobs_submitted"] == threads * per_thread
        samples = _samples(server.metrics_text())
        assert samples["repro_serve_job_exec_seconds_count"] == threads * per_thread
        assert samples["repro_serve_job_exec_seconds_sum"] == pytest.approx(
            threads * per_thread * 0.01
        )
        # A concurrent scrape may be stale but never torn: every sample line
        # parses, and the histogram's last bucket holds its whole count.
        for text in scrapes:
            samples = _samples(text)
            if "repro_serve_job_exec_seconds_count" in samples:
                assert (
                    samples['repro_serve_job_exec_seconds_bucket{le="+Inf"}']
                    == samples["repro_serve_job_exec_seconds_count"]
                )


def _samples(text):
    """``{sample: value}`` of a ``/metrics`` text; comment lines skipped."""
    samples = {}
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        name, _, value = line.rpartition(" ")
        assert name
        samples[name] = float(value)
    return samples


# ---------------------------------------------------------------------------
# Tracing core
# ---------------------------------------------------------------------------


class TestTracing:
    def test_spans_nest_by_call_stack(self):
        with obs_trace.capture_events() as events:
            with obs_trace.span("outer", kind="ensemble", reps=2) as outer:
                with obs_trace.span("inner", kind="run"):
                    pass
                obs_trace.event("ping", kind="warning", reason="test")
        inner, ping, outer_rec = events
        assert inner["kind"] == "run" and inner["parent"] == outer.id
        assert ping["ev"] == "event" and ping["parent"] == outer.id
        assert outer_rec["id"] == outer.id and outer_rec["parent"] is None
        assert outer_rec["attrs"]["reps"] == 2
        assert outer_rec["dur"] >= 0.0

    def test_span_records_error_and_reraises(self):
        with obs_trace.capture_events() as events:
            with pytest.raises(RuntimeError):
                with obs_trace.span("boom", kind="run"):
                    raise RuntimeError("nope")
        assert events[0]["error"] == "RuntimeError"

    def test_span_is_noop_when_nothing_listens(self):
        with obs_trace.span("quiet", kind="run") as handle:
            handle.set(ignored=True)
        assert handle.id is None
        assert not obs_trace.tracing_active()

    def test_span_event_emits_pretimed_span(self):
        with obs_trace.capture_events() as events:
            obs_trace.span_event("run", "run", 1.0, 0.5, seed=7)
        assert events[0]["t0"] == 1.0 and events[0]["dur"] == 0.5
        assert events[0]["attrs"] == {"seed": 7}

    def test_tracer_writes_meta_header_then_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _install_file_tracer(path)
        with obs_trace.span("root", kind="ensemble"):
            pass
        obs_trace.uninstall_tracer()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["ev"] == "meta" and lines[0]["version"] == 1
        assert lines[1]["ev"] == "span" and lines[1]["name"] == "root"

    def test_adopt_remaps_ids_and_reparents_roots(self):
        # Simulate a worker: its ids restart at whatever its process counter
        # held, so the parent must remap them into its own id space.
        shipped = [
            {"ev": "meta", "version": 1},
            {"ev": "span", "kind": "run", "name": "run", "id": 1,
             "parent": 2, "attrs": {"seed": 0}},
            {"ev": "span", "kind": "chunk", "name": "chunk", "id": 2,
             "parent": None, "attrs": {}},
        ]
        with obs_trace.capture_events() as events:
            with obs_trace.span("dispatch", kind="dispatch") as dispatch:
                adopted = obs_trace.adopt(shipped, parent=dispatch.id)
        assert len(adopted) == 2  # meta dropped
        run, chunk = adopted
        assert run["id"] != 1 and chunk["id"] != 2
        assert run["parent"] == chunk["id"]  # intra-batch edge follows remap
        assert chunk["parent"] == dispatch.id  # root re-homed under dispatch
        assert events[-1]["id"] == dispatch.id

    def test_tracer_from_env_installs_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_PATH", str(tmp_path / "env.jsonl"))
        first = obs_trace.tracer_from_env()
        assert first is not None
        assert obs_trace.tracer_from_env() is first
        monkeypatch.setenv("REPRO_TRACE", "0")
        obs_trace.uninstall_tracer()
        assert obs_trace.tracer_from_env() is None


# ---------------------------------------------------------------------------
# Engine / pool integration and cross-backend byte-identity
# ---------------------------------------------------------------------------


def _traced_ensemble(path, backend, **kwargs):
    protocol = majority_protocol()
    inputs = from_counts(A=16, B=8)
    _install_file_tracer(path)
    try:
        results = Simulator(protocol, seed=2022).run_many(
            inputs, repetitions=8, max_steps=2000, backend=backend, **kwargs
        )
    finally:
        obs_trace.uninstall_tracer()
    return results


def _engine_rows(text):
    """The summary's per-engine rows as ``(engine, runs, steps, steps/s)``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("engine "))
    rows = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        engine, runs, steps, rate = line.split()
        rows.append((engine, int(runs), int(steps), rate))
    return rows


class TestEngineIntegration:
    def test_traced_serial_ensemble_emits_run_spans_under_ensemble(self, tmp_path):
        path = tmp_path / "serial.jsonl"
        results = _traced_ensemble(path, "serial")
        events = render.load_events(str(path))
        runs = [e for e in events if e.get("kind") == "run"]
        ensembles = [e for e in events if e.get("kind") == "ensemble"]
        assert len(runs) == len(results) == 8
        assert len(ensembles) == 1
        assert all(r["parent"] == ensembles[0]["id"] for r in runs)
        assert [r["attrs"]["steps"] for r in runs] == [r.steps for r in results]

    def test_process_trace_reconstructs_dispatch_and_chunk_layers(self, tmp_path):
        path = tmp_path / "process.jsonl"
        _traced_ensemble(path, "process", max_workers=2)
        events = render.load_events(str(path))
        by_kind = {}
        for record in events:
            by_kind.setdefault(record.get("kind"), []).append(record)
        (dispatch,) = by_kind["dispatch"]
        (ensemble,) = by_kind["ensemble"]
        assert dispatch["parent"] == ensemble["id"]
        chunk_ids = {c["id"] for c in by_kind["chunk"]}
        assert all(c["parent"] == dispatch["id"] for c in by_kind["chunk"])
        assert all(r["parent"] in chunk_ids for r in by_kind["run"])
        assert len(by_kind["run"]) == 8

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_summary_reports_every_run_of_the_engine(self, tmp_path, backend):
        # Worker runs come home as spans, so the process backend's engine row
        # counts them as the serial one does.
        path = tmp_path / f"{backend}.jsonl"
        kwargs = {"max_workers": 2} if backend == "process" else {}
        results = _traced_ensemble(path, backend, **kwargs)
        text = render.summary(render.load_events(str(path)))
        ((engine, runs, steps, rate),) = _engine_rows(text)
        assert engine == Simulator(majority_protocol())._choice
        assert runs == len(results)
        assert steps == sum(r.steps for r in results)
        assert float(rate) > 0

    def test_run_outside_the_compiled_universe_is_tagged_reference(self):
        # engine="auto" sends a configuration that mentions a state outside
        # the compiled universe to the reference engine; its span, and so
        # the summary's engine row, name the engine that ran it.
        protocol = majority_protocol()
        configuration = protocol.initial_configuration(
            from_counts(A=16, B=8)
        ) + Configuration({"zzz": 1})
        with obs_trace.capture_events() as events:
            result = Simulator(protocol, seed=1).run_from(configuration, max_steps=50)
        (run,) = [e for e in events if e.get("kind") == "run"]
        assert run["attrs"]["engine"] == "reference"
        ((engine, runs, steps, _),) = _engine_rows(render.summary(events))
        assert (engine, runs, steps) == ("reference", 1, result.steps)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_seed_list_runs_are_tagged_with_their_engine(self, engine):
        # A serial seed list runs in one call on the native engine and run
        # by run on the others; either way every run span names the engine.
        simulator = Simulator(majority_protocol(), engine=engine, seed=4)
        with obs_trace.capture_events() as events:
            results = simulator.run_many(from_counts(A=16, B=8), 3, max_steps=400)
        runs = [e for e in events if e.get("kind") == "run"]
        assert [run["attrs"]["engine"] for run in runs] == [engine] * 3
        ((row, count, steps, _),) = _engine_rows(render.summary(events))
        assert (row, count, steps) == (engine, 3, sum(r.steps for r in results))

    def test_canon_is_byte_identical_across_backends(self, tmp_path):
        # The acceptance criterion: strip timing/topology, and a fixed-seed
        # trace is the same bytes whether the ensemble ran serially or
        # through worker processes.
        serial_path = tmp_path / "serial.jsonl"
        process_path = tmp_path / "process.jsonl"
        serial = _traced_ensemble(serial_path, "serial")
        parallel = _traced_ensemble(process_path, "process", max_workers=2)
        assert serial == parallel  # the existing bit-identity contract
        canon_serial = render.canon(render.load_events(str(serial_path)))
        canon_process = render.canon(render.load_events(str(process_path)))
        assert canon_serial.encode() == canon_process.encode()
        kinds = [json.loads(l)["kind"] for l in canon_serial.splitlines()]
        assert set(kinds) == {"run", "ensemble"}


# ---------------------------------------------------------------------------
# Sweep integration
# ---------------------------------------------------------------------------


def _sweep_spec():
    return SweepSpec(
        protocols=("majority",),
        populations=(8, 12),
        schedulers=("uniform",),
        engines=("compiled",),
        repetitions=2,
        master_seed=42,
        max_steps=300,
        stability_window=50,
    )


def _pump_until_lost(store, claim, timeout=5.0):
    """Run a 50 ms pump holding ``claim`` until a beat reports it lost."""
    with _HeartbeatPump(store, interval=0.05) as pump:
        pump.hold(claim)
        deadline = time.monotonic() + timeout
        while not pump.lost and time.monotonic() < deadline:
            time.sleep(0.01)
    return pump


class TestSweepIntegration:
    def test_sweep_cell_span_tree(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _install_file_tracer(path)
        try:
            report = SweepRunner(
                _sweep_spec(), SqliteResultStore(":memory:"), backend="serial"
            ).run()
        finally:
            obs_trace.uninstall_tracer()
        assert report.executed == 2
        events = render.load_events(str(path))
        cells = [e for e in events if e.get("kind") == "sweep-cell"]
        runs = [e for e in events if e.get("kind") == "run"]
        assert len(cells) == 2
        assert all(c["attrs"]["status"] == "done" for c in cells)
        cell_ids = {c["id"] for c in cells}
        assert all(r["parent"] in cell_ids for r in runs)

    def test_sweep_canon_is_byte_identical_across_backends(self, tmp_path):
        canons = {}
        for backend in ("serial", "process"):
            path = tmp_path / f"{backend}.jsonl"
            _install_file_tracer(path)
            try:
                kwargs = {"max_workers": 2} if backend == "process" else {}
                SweepRunner(
                    _sweep_spec(), SqliteResultStore(":memory:"), backend=backend,
                    **kwargs,
                ).run()
            finally:
                obs_trace.uninstall_tracer()
            canons[backend] = render.canon(render.load_events(str(path)))
        assert canons["serial"].encode() == canons["process"].encode()

    def test_heartbeat_pump_warns_on_lost_claim(self):
        class _LostStore:
            lease_seconds = 30.0

            def heartbeat(self, claim):
                return False

        claim = type("Claim", (), {"cell": "c1", "owner": "w1"})()
        with obs_trace.capture_events() as events:
            pump = _pump_until_lost(_LostStore(), claim)
        assert pump.lost == {"c1"}
        assert "lost" in pump.warnings
        warning = next(e for e in events if e.get("kind") == "warning")
        assert warning["name"] == "heartbeat-lost"
        assert warning["attrs"]["cell"] == "c1"

    def test_heartbeat_pump_warns_when_lease_margin_gone(self):
        class _TightStore:
            # One beat of margin: every gap lands within a beat of expiry.
            lease_seconds = 0.06

            def __init__(self):
                self.beats = 0

            def heartbeat(self, claim):
                self.beats += 1
                return self.beats < 3

        claim = type("Claim", (), {"cell": "c2", "owner": "w2"})()
        pump = _pump_until_lost(_TightStore(), claim)
        assert "lease-at-risk" in pump.warnings

    def test_heartbeat_pump_warns_on_skipped_beats(self, monkeypatch):
        class _TwoBeatStore:
            lease_seconds = 30.0

            def __init__(self):
                self.beats = 0

            def heartbeat(self, claim):
                self.beats += 1
                return self.beats < 2

        # Every clock read lands a second after the previous one: each beat
        # sees a gap of many intervals, as a starved pump thread would.
        ticks = itertools.count(start=0.0, step=1.0)
        monkeypatch.setattr(sweep_runner, "monotonic_time", lambda: next(ticks))
        claim = type("Claim", (), {"cell": "c3", "owner": "w3"})()
        pump = _pump_until_lost(_TwoBeatStore(), claim)
        assert pump.warnings.count("skipped") == 2
        assert pump.warnings[-1] == "lost"

    def test_released_claims_are_never_beaten(self):
        class _CountingStore:
            lease_seconds = 30.0

            def __init__(self):
                self.beaten = []

            def heartbeat(self, claim):
                self.beaten.append(claim.cell)
                return True

        store = _CountingStore()

        def await_beats(count):
            deadline = time.monotonic() + 5.0
            while len(store.beaten) < count and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(store.beaten) >= count

        first = type("Claim", (), {"cell": "c4", "owner": "w4"})()
        second = type("Claim", (), {"cell": "c5", "owner": "w4"})()
        with _HeartbeatPump(store, interval=0.05) as pump:
            pump.hold(first)
            await_beats(1)
            # A second batch, queued behind the first: both are beaten.
            pump.hold(second)
            both_from = len(store.beaten)
            await_beats(both_from + 2)
            assert pump.release(first) == set()
            beats_with_first = len(store.beaten)
            await_beats(beats_with_first + 1)
            assert pump.release(second) == set()
            beats_in_total = len(store.beaten)
            time.sleep(0.15)  # three intervals with no claim held
        # Alone, then beside the second, the first was beaten; after its
        # release only the second was, and after the second's release
        # nothing was.
        assert set(store.beaten[:both_from]) == {"c4"}
        assert store.beaten[both_from : both_from + 2] == ["c4", "c5"]
        assert set(store.beaten[beats_with_first:]) == {"c5"}
        assert len(store.beaten) == beats_in_total
        assert pump.warnings == []

    def test_release_reports_the_lost_claims_of_its_own_batch(self):
        class _LosesOneStore:
            lease_seconds = 30.0

            def heartbeat(self, claim):
                return claim.cell != "c6"

        lost = type("Claim", (), {"cell": "c6", "owner": "w5"})()
        kept = type("Claim", (), {"cell": "c7", "owner": "w5"})()
        with _HeartbeatPump(_LosesOneStore(), interval=0.05) as pump:
            pump.hold(lost)
            pump.hold(kept)
            deadline = time.monotonic() + 5.0
            while not pump.lost and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pump.release(kept) == set()
            assert pump.release(lost) == {"c6"}
            assert not pump.lost
        assert pump.warnings.count("lost") == 1


# ---------------------------------------------------------------------------
# Serve integration
# ---------------------------------------------------------------------------


class TestServeIntegration:
    def test_idle_metrics_scrapes_are_byte_identical(self):
        server = SimulationServer(backend="serial")
        first = server.metrics_text()
        second = server.metrics_text()
        assert first.encode() == second.encode()

    def test_idle_scrapes_over_one_connection_are_byte_identical(self):
        # The scraping connection itself is open and accepted: the
        # connection metrics must not move between two scrapes over it.
        import http.client

        from repro.serve import BackgroundServer

        with BackgroundServer(backend="serial") as bg:
            connection = http.client.HTTPConnection(bg.url.split("//", 1)[1])
            try:
                scrapes = []
                for _ in range(2):
                    connection.request("GET", "/metrics")
                    scrapes.append(connection.getresponse().read())
            finally:
                connection.close()
        assert scrapes[0] == scrapes[1]
        assert b"\nrepro_serve_connections_accepted 1\n" in scrapes[0]
        assert b"\nrepro_serve_connections_open 1\n" in scrapes[0]

    def test_metrics_exposition_is_self_describing_and_sorted(self):
        server = SimulationServer(backend="serial")
        text = server.metrics_text()
        assert "# HELP repro_serve_jobs_submitted " in text
        assert "# TYPE repro_serve_jobs_submitted counter" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_job_queue_wait_seconds histogram" in text
        samples = [
            line.split("{")[0].rpartition(" ")[0] or line.rpartition(" ")[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        families = [s.split("{")[0] for s in samples]
        assert families == sorted(families)
        assert "repro_serve_uptime_seconds" not in text  # clocks break idle identity

    def test_two_servers_do_not_share_counters(self):
        first = SimulationServer(backend="serial")
        second = SimulationServer(backend="serial")
        first.metrics.inc("jobs_submitted")
        assert first.metrics.as_dict()["jobs_submitted"] == 1
        assert second.metrics.as_dict()["jobs_submitted"] == 0
        assert "repro_serve_jobs_submitted 1" in first.metrics_text()

    def test_serve_job_span_tree_reconstructs_queue_and_execution(self):
        from repro.serve import BackgroundServer, ServeClient

        job = dict(protocol="majority", population=24, repetitions=3,
                   max_steps=8000)
        with obs_trace.capture_events() as events:
            with BackgroundServer(backend="serial", concurrency=1) as bg:
                client = ServeClient(bg.url, client_id="obs1")
                client.run(job, timeout=300)
        jobs = [e for e in events if e.get("kind") == "serve-job"]
        assert len(jobs) == 1
        serve_job = jobs[0]
        assert serve_job["attrs"]["status"] == "done"
        assert serve_job["attrs"]["queue_wait"] >= 0.0
        assert serve_job["attrs"]["exec_seconds"] >= 0.0
        # The executor thread inherits the serve-job span via the copied
        # context, so the per-run spans parent under it.
        runs = [e for e in events if e.get("kind") == "run"]
        assert len(runs) == 3
        assert all(r["parent"] == serve_job["id"] for r in runs)
        assert (
            "\nrepro_serve_job_queue_wait_seconds_count 1\n"
            in bg.server.metrics_text()
        )


# ---------------------------------------------------------------------------
# Rendering and the CLI
# ---------------------------------------------------------------------------


class TestRenderAndCli:
    def _write_trace(self, path):
        _install_file_tracer(path)
        try:
            with obs_trace.span("sweep-cell", kind="sweep-cell", cell="c"):
                obs_trace.span_event(
                    "run", "run", 0.0, 0.1, engine="compiled", seed=1, steps=5
                )
                obs_trace.span_event(
                    "run", "run", 0.1, 0.2, engine="compiled", seed=2, steps=9
                )
            obs_trace.event("heartbeat-skipped", kind="warning", reason="skipped")
        finally:
            obs_trace.uninstall_tracer()

    def test_summary_counts_spans_and_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        text = render.summary(render.load_events(str(path)))
        assert "run" in text and "sweep-cell" in text
        assert "warning" in text
        # 14 steps over 0.3 s of run spans.
        assert _engine_rows(text) == [("compiled", 2, 14, "47")]

    def test_timeline_nests_children(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        text = render.timeline(render.load_events(str(path)))
        lines = text.splitlines()
        cell_line = next(i for i, l in enumerate(lines) if "sweep-cell" in l)
        run_lines = [l for l in lines if " run" in l]
        assert len(run_lines) == 2
        # Children render indented beneath their parent.
        assert all(l.index("run") > lines[cell_line].index("sweep-cell")
                   for l in run_lines)

    def test_load_events_names_the_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev":"span"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            render.load_events(str(path))

    def test_cli_summary_tail_timeline_canon(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        for command in ("summary", "tail", "timeline"):
            assert obs_main([command, str(path)]) == 0
            assert capsys.readouterr().out
        out = tmp_path / "canon.jsonl"
        assert obs_main(["canon", str(path), "-o", str(out)]) == 0
        kinds = [json.loads(l)["kind"] for l in out.read_text().splitlines()]
        assert kinds == ["run", "run", "sweep-cell"]

    def test_cli_reports_missing_file(self, tmp_path, capsys):
        assert obs_main(["summary", str(tmp_path / "absent.jsonl")]) == 1
        assert "absent" in capsys.readouterr().err
