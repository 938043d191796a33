"""Trace a sweep: structured spans from grid cells down to single runs.

The observability layer (:mod:`repro.obs`) records what a computation *did*
— which cells ran, how long each repetition took, where the wall-clock went
between queueing and execution — without perturbing what it *computed*:
instrumentation reads clocks and result objects, never the RNG stream, so a
traced sweep is bit-identical to an untraced one.  This example:

1. runs a small majority sweep twice — serial, then over a 2-process worker
   pool — with a JSONL tracer installed, so every sweep cell, worker chunk,
   and individual run emits a span,
2. walks the span tree of the process-backed trace to show the layers
   (sweep-cell → chunk → run; the cells of a batch share one pool round
   trip, and their spans cover its wall time) and where the time went,
3. canonicalizes both traces (timing and topology attributes stripped) and
   verifies they are **byte-identical** — the logical execution does not
   depend on the backend,
4. prints the summary of the process-backed trace: the per-layer latency
   breakdown, then each engine's runs, steps and steps per second, read
   from the ``run`` spans the pool workers shipped back.

The same inspection runs from the shell against any trace file:

    REPRO_TRACE=1 REPRO_TRACE_PATH=sweep.jsonl python -m repro.sweep run ...
    python -m repro.obs summary sweep.jsonl
    python -m repro.obs timeline sweep.jsonl
    python -m repro.obs canon sweep.jsonl -o sweep.canon.jsonl

Run with:  python examples/trace_a_sweep.py
"""

import tempfile
from pathlib import Path

from repro.obs import render
from repro.obs import trace as obs_trace
from repro.sweep import SqliteResultStore, SweepRunner, SweepSpec


def build_spec() -> SweepSpec:
    return SweepSpec(
        protocols=("majority",),
        populations=(16, 24),
        schedulers=("uniform",),
        engines=("compiled",),
        repetitions=4,
        master_seed=2022,
        max_steps=2000,
        stability_window=100,
    )


def traced_sweep(path: Path, backend: str) -> None:
    obs_trace.install_tracer(obs_trace.Tracer(str(path)))
    try:
        kwargs = {"max_workers": 2} if backend == "process" else {}
        with SqliteResultStore(":memory:") as store:
            report = SweepRunner(build_spec(), store, backend=backend, **kwargs).run()
    finally:
        obs_trace.uninstall_tracer()
    print(f"  {backend}: executed {report.executed} cells -> {path.name}")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-trace-"))
    serial_path = workdir / "serial.jsonl"
    process_path = workdir / "process.jsonl"

    print("== 1. Run the sweep under a tracer, on both backends ==")
    traced_sweep(serial_path, "serial")
    traced_sweep(process_path, "process")

    print()
    print("== 2. The span tree of the process-backed sweep ==")
    events = render.load_events(str(process_path))
    print(render.timeline(events))

    print("== 3. Canonical traces are byte-identical across backends ==")
    canon_serial = render.canon(render.load_events(str(serial_path)))
    canon_process = render.canon(events)
    assert canon_serial.encode() == canon_process.encode()
    lines = canon_serial.splitlines()
    print(f"  {len(lines)} canonical records, identical bytes; first record:")
    print(f"    {lines[0]}")

    print()
    print("== 4. Per-layer time and per-engine throughput of the process-backed sweep ==")
    print(render.summary(events))

    print()
    print(f"traces kept in {workdir} — inspect with python -m repro.obs")


if __name__ == "__main__":
    main()
