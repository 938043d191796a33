"""``python -m repro.serve`` — run the simulation job server.

Binds, prints one JSON ready-line (``{"serving": ..., "pid": ...}``) so
wrapper scripts can discover the bound port (``--port 0`` asks the OS for an
ephemeral one), then serves until SIGTERM/SIGINT.  On a signal the server
drains — running and queued jobs complete, new submissions get 503 — and the
process exits 0 after printing a JSON drain summary with the final counters.

Defaults come from the ``REPRO_SERVE_*`` environment knobs (see
:mod:`repro.config`); flags override them.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import List, Optional

from ..obs import trace as _obs_trace
from .server import SimulationServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve population-protocol simulation jobs over HTTP.",
    )
    parser.add_argument("--host", default=None, help="bind host (default: REPRO_SERVE_HOST or 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None, help="bind port; 0 = ephemeral (default: REPRO_SERVE_PORT or 8765)")
    parser.add_argument("--backend", choices=("process", "serial"), default="process", help="ensemble backend (default: process)")
    parser.add_argument("--workers", type=int, default=None, help="worker-pool process count (default: REPRO_BATCH_DEFAULT_WORKERS or CPU count)")
    parser.add_argument("--concurrency", type=int, default=2, help="jobs executing at once (default: 2)")
    parser.add_argument("--cache-size", type=int, default=None, help="result-cache capacity (default: REPRO_SERVE_CACHE_SIZE or 256)")
    parser.add_argument("--max-inflight", type=int, default=None, help="per-client in-flight cap (default: REPRO_SERVE_MAX_INFLIGHT or 8)")
    parser.add_argument("--job-timeout", type=float, default=None, help="per-job wall-clock budget in seconds, --backend process only (default: none)")
    parser.add_argument("--start-method", default=None, help="multiprocessing start method (default: platform)")
    return parser


async def _amain(server: SimulationServer) -> None:
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_drain)
        except NotImplementedError:  # pragma: no cover - non-Unix loops
            signal.signal(
                signum,
                lambda *_args: loop.call_soon_threadsafe(server.request_drain),
            )
    print(
        json.dumps(
            {
                "serving": f"http://{server.host}:{server.port}",
                "pid": os.getpid(),
                "backend": server.backend,
                "concurrency": server.concurrency,
            }
        ),
        flush=True,
    )
    await server.wait_drained()
    await server.shutdown()
    print(
        json.dumps({"drained": True, **server.metrics.as_dict()}),
        flush=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        server = SimulationServer(
            host=args.host,
            port=args.port,
            backend=args.backend,
            max_workers=args.workers,
            cache_size=args.cache_size,
            max_inflight=args.max_inflight,
            concurrency=args.concurrency,
            start_method=args.start_method,
            job_timeout=args.job_timeout,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _obs_trace.tracer_from_env()
    try:
        asyncio.run(_amain(server))
    finally:
        _obs_trace.uninstall_tracer()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
