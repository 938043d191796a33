"""Deploy/smoke script for the ``repro.serve`` job server.

Boots a real server subprocess (``python -m repro.serve``) the way a
deployment would, then drives the full service contract through the stdlib
client and asserts every piece of it:

1.  the ready-line protocol: one JSON line on stdout with the bound URL
    (``--port 0`` → ephemeral, so smoke runs never collide),
2.  submit → wait → result, and the result is **byte-identical** to a
    direct in-process ``Simulator.run_many`` with the same content-derived
    seeds,
3.  an identical job respelled (reordered keys, explicit defaults, engine
    case) is a content-addressed cache hit: ``cache_hits`` rises on
    ``/metrics`` and no new pool work runs,
4.  a second in-flight job under ``--max-inflight 1`` is rejected with 429,
5.  SIGTERM drains gracefully: new submissions get 503, the in-flight job
    *completes* (visible in the drain summary), and the process exits 0.

Exits non-zero on the first violated expectation.  Run from the repo root:

    PYTHONPATH=src python scripts/serve_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.serve.client import ServeClient, ServeRejected  # noqa: E402
from repro.serve.jobs import JobSpec  # noqa: E402
from repro.simulation.simulator import Simulator  # noqa: E402
from repro.sweep.spec import build_protocol_and_inputs  # noqa: E402

FAST_JOB = {
    "protocol": "majority",
    "population": 40,
    "repetitions": 4,
    "max_steps": 20000,
}

#: The same job with every field spelled differently (order, case, explicit
#: defaults, integral float) — must hash to the same content key.
FAST_JOB_RESPELLED = {
    "engine": "Auto",
    "max_steps": 20000,
    "population": 40.0,
    "repetitions": 4,
    "scheduler": "uniform",
    "protocol": " Majority ",
    "master_seed": 0,
    "stability_window": 200,
    "analytics": False,
}

#: A job slow enough to still be running when the 429 probe and the SIGTERM
#: arrive: the stability window equals the step budget, so no run can stop
#: early at consensus, and the compiled engine takes seconds for it (the
#: native engine would finish before the probes).
SLOW_JOB = {
    "protocol": "majority",
    "population": 200,
    "repetitions": 4,
    "max_steps": 1200000,
    "stability_window": 1200000,
    "engine": "compiled",
}


def fail(message):
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)
    print(f"ok: {message}")


def direct_runs(job):
    """The fast job executed in-process — the byte-identity reference."""
    spec = JobSpec.from_dict(job)
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
    # Normalize exactly like the HTTP layer does (JSON round trip), so the
    # comparison is byte-for-byte against what the server actually serves.
    return json.loads(json.dumps(rendered))


def main():
    # The server subprocess needs the same import path as this script,
    # whether repro is pip-installed (CI) or run from a source tree.
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--port", "0",
            "--backend", "process",
            "--workers", "2",
            "--concurrency", "1",
            "--max-inflight", "1",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        ready = json.loads(proc.stdout.readline())
        check("serving" in ready, f"server ready line: {ready}")
        client = ServeClient(ready["serving"], client_id="smoke")
        check(client.health() == "ok", "healthz answers ok")

        # -- submit, wait, byte-identity --------------------------------
        result = client.run(FAST_JOB, timeout=300)
        check(result["statistics"]["runs"] == 4, "fast job completed 4 runs")
        check(
            result["runs"] == direct_runs(FAST_JOB),
            "served runs byte-identical to direct Simulator.run_many",
        )

        # -- content-addressed cache hit --------------------------------
        respelled = client.submit(FAST_JOB_RESPELLED)
        check(respelled.get("cached") is True, "respelled job is a cache hit")
        check(
            respelled["result"] == result,
            "cached payload identical to the first response",
        )
        metrics = client.metrics()
        check(
            metrics["repro_serve_cache_hits"] == 1,
            "cache_hits=1 on /metrics after the duplicate",
        )
        check(
            metrics["repro_serve_jobs_completed"] == 1,
            "no new pool work for the duplicate (jobs_completed still 1)",
        )

        # -- 429 under the tiny in-flight cap ---------------------------
        submitted = client.submit(SLOW_JOB)
        check(submitted["status"] in ("queued", "running"), "slow job accepted")
        try:
            client.submit(dict(SLOW_JOB, master_seed=1))
            fail("second in-flight job was not rejected")
        except ServeRejected as error:
            check(error.status == 429, "over-cap submission rejected with 429")

        # -- graceful SIGTERM drain -------------------------------------
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.3)
        try:
            client.submit({"protocol": "modulo", "population": 30})
            fail("submission during drain was not rejected")
        except ServeRejected as error:
            check(error.status == 503, "submission during drain rejected with 503")

        out, _ = proc.communicate(timeout=300)
        check(proc.returncode == 0, "server exited 0 after drain")
        summary = json.loads(out.strip().splitlines()[-1])
        check(summary.get("drained") is True, "drain summary printed")
        check(
            summary["jobs_completed"] == 2,
            "in-flight slow job completed during drain",
        )
        check(summary["jobs_failed"] == 0, "no failed jobs")
        print("serve smoke: all checks passed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
