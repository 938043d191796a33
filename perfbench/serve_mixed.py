"""The ``serve-mixed`` workload: ``python -m repro.serve --backend serial``
as a subprocess, driven by one closed-loop client with no think time.

Requests come in blocks of sixteen.  Half are content-cache hits on a
fixed hot set, smaller than the server's ``--cache-size`` so no hit is
evicted.  The other half are fresh jobs over the four protocols at small
populations, repetitions 1 and 8, each with its own ``master_seed`` derived
from the workload seed, so no miss is an accidental hit.  One fresh job per
block asks for ``analytics`` with a step budget its runs never reach: the
server preallocates the recording ring at ``max_steps``, which sets the
miss tail and the peak RSS.

Misses are polled every millisecond with ``ServeClient.status`` rather than
``ServeClient.run``, whose 50 ms poll sleep would dominate the latency.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs.render import load_events
from repro.serve.client import ServeClient
from repro.serve.jobs import JobSpec
from repro.simulation import run_ensemble

from .common import (
    PROTOCOLS,
    ROOT,
    Outcome,
    SpanTree,
    Unit,
    derive_seed,
    interval,
    median,
    process_peak_rss_mb,
    report_end_to_end,
    report_ops,
    report_split,
    report_stepper,
    reference_loop_s,
    trace_overhead,
    union_length,
)

LAUNCH_EVERY = 5
HOT_SET = 16
CACHE_SIZE = 1024
POLL_S = 0.001
BLOCK_HITS = 8
BLOCK_MISSES = 8
SEGMENT_BLOCKS = 8
ANALYTICS_MAX_STEPS = 2_000_000
MAX_STEPS = 2_000
WINDOW = 50
SAMPLE_EVERY = 16
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

PARAMS: Dict[str, Dict[str, int]] = {
    "majority": {},
    "modulo": {"modulus": 3, "remainder": 1},
    "succinct": {"threshold": 8},
    "flock": {"threshold": 5},
}

#: The fields of a served run that a direct ``run_ensemble`` must reproduce.
RUN_FIELDS = (
    "steps", "consensus", "consensus_step", "converged", "terminated",
    "interactions_sampled",
)


class Server:
    """One ``python -m repro.serve`` subprocess, ready once ``/healthz``
    answers."""

    def __init__(self, extra_env: Optional[Mapping[str, str]] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.update(extra_env or {})
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--backend", "serial",
             "--port", "0", "--cache-size", str(CACHE_SIZE), "--concurrency", "1"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("the server printed no ready line")
            self.client = ServeClient(json.loads(line)["serving"])
            while True:
                try:
                    if self.client.health() == "ok":
                        break
                except OSError:
                    pass
                if time.perf_counter() - start > START_TIMEOUT_S:
                    raise RuntimeError("the server never became healthy")
                time.sleep(POLL_S)
        except BaseException:
            self.stop()
            raise
        self.launch_s = time.perf_counter() - start

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def make_job(protocol: str, population: int, repetitions: int, master_seed: int,
             analytics: bool) -> Dict[str, Any]:
    return {
        "protocol": protocol,
        "params": PARAMS[protocol],
        "population": population,
        "repetitions": repetitions,
        "master_seed": master_seed,
        "max_steps": ANALYTICS_MAX_STEPS if analytics else MAX_STEPS,
        "stability_window": WINDOW,
        "analytics": analytics,
    }


def hot_set(seed: int) -> List[Dict[str, Any]]:
    rng = random.Random(derive_seed(seed, "serve-mixed", "hot"))
    return [
        make_job(PROTOCOLS[index % len(PROTOCOLS)], rng.randrange(12, 32), 8,
                 derive_seed(seed, "serve-mixed", "hot", index), False)
        for index in range(HOT_SET)
    ]


def blocks(seed: int) -> Iterator[List[Tuple[str, Any]]]:
    """The request sequence, in blocks of eight hits and eight fresh jobs in
    a seeded order.  The fresh jobs of a block are the four protocols at
    repetitions 1 and 8, one each; one of them asks for analytics, cycling
    through all eight over ``SEGMENT_BLOCKS`` blocks, so every segment
    asks for the same mix.  A request is ``("hit", hot index)`` or
    ``("miss", job)``."""
    rng = random.Random(derive_seed(seed, "serve-mixed", "ops"))
    kinds_of_job = [(protocol, repetitions) for repetitions in (1, 8) for protocol in PROTOCOLS]
    hot_order: List[int] = []
    fresh = 0
    for index in itertools.count():
        analytics = kinds_of_job[index % len(kinds_of_job)]
        jobs = list(kinds_of_job)
        rng.shuffle(jobs)
        kinds = ["hit"] * BLOCK_HITS + ["miss"] * BLOCK_MISSES
        rng.shuffle(kinds)
        block: List[Tuple[str, Any]] = []
        for kind in kinds:
            if kind == "hit":
                if not hot_order:
                    hot_order = list(range(HOT_SET))
                    rng.shuffle(hot_order)
                block.append(("hit", hot_order.pop()))
            else:
                protocol, repetitions = jobs.pop()
                job = make_job(
                    protocol, rng.randrange(12, 32), repetitions,
                    derive_seed(seed, "serve-mixed", "fresh", fresh),
                    (protocol, repetitions) == analytics,
                )
                fresh += 1
                block.append(("miss", job))
        yield block


@dataclass
class Miss:
    key: str
    protocol: str
    start: float
    end: float


def await_done(client: ServeClient, key: str) -> Dict[str, Any]:
    while True:
        document = client.status(key)
        if document.get("status") in ("done", "error"):
            return document
        time.sleep(POLL_S)


class Loop:
    """The closed loop against one server: fill the hot set, then request
    whole segments of ``SEGMENT_BLOCKS`` blocks until ``seconds`` pass or
    ``count`` segments are done.  ``between`` runs before and after each
    segment and returns the reference-loop time."""

    def __init__(self, server: Server, seed: int, outcome: Outcome,
                 between: Callable[[], float], seconds: float = 0.0,
                 count: int = 0) -> None:
        self.client = server.client
        self.outcome = outcome
        self.hot = hot_set(seed)
        self.hot_payloads = []
        for job in self.hot:
            response = self.client.submit(job)
            document = await_done(self.client, response["job"])
            outcome.check(document.get("status") == "done", f"hot job failed: {document}")
            self.hot_payloads.append(document.get("result"))

        self.request_ms: List[float] = []
        self.hits: List[Tuple[float, float]] = []
        self.misses: List[Miss] = []
        self.samples: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        self.segments: List[Unit] = []
        stream = blocks(seed)
        before = between()
        start = time.monotonic()
        while (
            len(self.segments) < count if count
            else len(self.segments) < 2 or time.monotonic() - start < seconds
        ):
            segment_start = time.monotonic()
            for _ in range(SEGMENT_BLOCKS):
                for kind, arg in next(stream):
                    self._request(kind, arg)
            wall = time.monotonic() - segment_start
            after = between()
            self.segments.append(
                (SEGMENT_BLOCKS * (BLOCK_HITS + BLOCK_MISSES), wall, (before + after) / 2.0)
            )
            before = after

    def _request(self, kind: str, arg: Any) -> None:
        client, outcome = self.client, self.outcome
        begin = time.monotonic()
        if kind == "hit":
            response = client.submit(self.hot[arg])
            end = time.monotonic()
            self.hits.append((begin, end))
            outcome.check(
                response.get("cached") is True and response.get("result") == self.hot_payloads[arg],
                f"hit {arg} was not the cached payload",
            )
        else:
            response = client.submit(arg)
            document = await_done(client, response["job"])
            end = time.monotonic()
            fresh = response.get("cached") is False and not response.get("coalesced")
            outcome.check(
                fresh and document.get("status") == "done",
                f"miss {response.get('job')} ended {document.get('status')}",
            )
            result = document.get("result") or {}
            self.misses.append(Miss(response["job"], arg["protocol"], begin, end))
            if len(self.misses) % SAMPLE_EVERY == 1:
                self.samples.append((arg, result))
        self.request_ms.append((end - begin) * 1000.0)


def check_samples(loop: Loop, outcome: Outcome) -> None:
    """Sampled misses must equal ``run_ensemble`` on the job's own seeds."""
    for job_dict, payload in loop.samples:
        job = JobSpec.from_dict(job_dict)
        protocol, inputs = job.cell.build()
        seeds = job.repetition_seeds()
        results = run_ensemble(
            protocol, inputs, seeds, scheduler=job.cell.make_scheduler(),
            engine=job.engine, max_steps=job.max_steps,
            stability_window=job.stability_window,
        )
        expected = [
            dict({"seed": s}, **{f: getattr(r, f) for f in RUN_FIELDS})
            for s, r in zip(seeds, results)
        ]
        outcome.check(
            payload.get("job") == job.key and payload.get("runs") == expected,
            f"served job {job.key} differs from run_ensemble",
        )


def run(workload: str, seed: int, seconds: float, traced: bool, work: Path,
        outcome: Outcome) -> None:
    launches = []
    segments = itertools.count()

    def between() -> float:
        """Every ``LAUNCH_EVERY`` segments, launch and stop one more server,
        so set-up is sampled all through the run: the host's fast and slow
        spells last seconds."""
        if next(segments) % LAUNCH_EVERY == 0:
            with Server() as extra:
                launches.append(extra.launch_s)
        return reference_loop_s()

    with Server() as server:
        launches.append(server.launch_s)
        plain = Loop(server, seed, outcome, between,
                     seconds=seconds / 2 if traced else seconds)
        peak_rss_mb = process_peak_rss_mb(server.proc.pid)
    check_samples(plain, outcome)
    if not traced:
        report_end_to_end(outcome, median(launches), peak_rss_mb, plain.segments)
        return

    trace_path = work / "serve-trace.jsonl"
    with Server({"REPRO_TRACE": "1", "REPRO_TRACE_PATH": str(trace_path)}) as server:
        traced_loop = Loop(server, seed, outcome, reference_loop_s, count=len(plain.segments))
        server_pid = server.proc.pid
    report_layers(plain, traced_loop, SpanTree(load_events(str(trace_path))),
                  server_pid, outcome)


def report_layers(plain: Loop, traced: Loop, tree: SpanTree, server_pid: int,
                  outcome: Outcome) -> None:
    """The traced loop's wall per segment, split along each request's
    interval: the server's ``run`` spans are the stepper, the rest of its
    ``serve-job`` spans (ensemble set-up, analytics, result building) the
    batch layer, and everything else (HTTP, JSON, validation, hashing, the
    cache, the queue and the client's polling) the entry layer."""
    protocol_by_key = {miss.key: miss.protocol for miss in traced.misses}
    job_spans = {
        span["attrs"].get("job"): span
        for span in tree.of_kind("serve-job")
        if span["pid"] == server_pid and span["attrs"].get("job") in protocol_by_key
    }
    split = {"stepper.wall_s": 0.0, "batch.self_s": 0.0,
             "entry.self_s": sum(end - begin for begin, end in traced.hits)}
    for miss in traced.misses:
        low, high = miss.start, miss.end
        span = job_spans.get(miss.key)
        if span is None:
            split["entry.self_s"] += high - low
            continue
        runs = [interval(r) for r in tree.children[span["id"]] if r["kind"] == "run"]
        stepped = union_length(runs, low, high)
        executing = union_length([interval(span)], low, high)
        split["stepper.wall_s"] += stepped
        split["batch.self_s"] += executing - stepped
        split["entry.self_s"] += (high - low) - executing
    report_split(
        outcome, split, len(traced.segments), sum(wall for _, wall, _ in traced.segments),
        trace_overhead([unit[1:] for unit in plain.segments],
                       [unit[1:] for unit in traced.segments]),
    )

    loop_tree = SpanTree(
        [span for job in job_spans.values() for span in [job, *tree.children[job["id"]]]]
    )
    report_stepper(
        outcome, loop_tree,
        lambda run_span: protocol_by_key.get(loop_tree.attr_up(run_span, "job")),
        len(traced.segments),
    )
    report_ops(outcome, plain.request_ms)
