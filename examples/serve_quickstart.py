"""Serving simulations: the job server, its cache, and the client.

The serve layer turns the engine stack into a shared service: a long-lived
process fronts one worker pool, and any number of clients submit ensemble
jobs over HTTP.  Identical requests are *content-addressed* — the job key
hashes what is simulated, not how the request was spelled — so the second
client asking a question the first already asked gets the answer from cache
in microseconds.  This example:

1. starts an in-process server (``BackgroundServer``, ephemeral port — the
   deployment shape is ``python -m repro.serve``),
2. submits a majority-ensemble job through ``ServeClient``; a job this
   quick ends while the server holds its submission, so the result comes
   back on the submission itself,
3. resubmits the same job with the fields spelled differently (reordered,
   defaults written out, engine case changed) and shows it never touches
   the pool: a pure cache hit,
4. reads ``/metrics`` and demonstrates the per-client 429 backpressure cap
   (exiting non-zero if the cap lets a third job through),
5. drains the server gracefully, like SIGTERM would in production.

Run with:  python examples/serve_quickstart.py
"""

from repro.serve import BackgroundServer, ServeClient, ServeRejected

JOB = {
    "protocol": "majority",
    "population": 60,
    "repetitions": 8,
    "max_steps": 400000,
}

# The same job, spelled as differently as JSON allows: keys reordered,
# optional fields written out at their defaults, the engine name cased
# freely.  Canonicalization maps both spellings to one content key.
SAME_JOB_RESPELLED = {
    "max_steps": 400000,
    "engine": "Auto",
    "repetitions": 8,
    "population": 60.0,
    "scheduler": "uniform",
    "protocol": "  MAJORITY ",
    "master_seed": 0,
}


def main() -> None:
    with BackgroundServer(backend="process", max_workers=2, concurrency=1,
                          max_inflight=2) as background:
        client = ServeClient(background.url, client_id="quickstart")
        print(f"server up at {background.url}  (health: {client.health()})")

        print("\n-- submit and wait ----------------------------------------")
        result = client.run(JOB, timeout=120)
        stats = result["statistics"]
        print(f"ensemble of {stats['runs']}: "
              f"convergence rate {stats['convergence_rate']:.2f}, "
              f"mean steps {stats['mean_steps']:.1f}, "
              f"accuracy {result['accuracy']}")

        print("\n-- identical job, different spelling ----------------------")
        response = client.submit(SAME_JOB_RESPELLED)
        assert response["cached"], "expected a content-addressed cache hit"
        print(f"cached: {response['cached']}  (job key {response['job'][:16]}…)")

        metrics = client.metrics()
        print(f"cache hits {metrics['repro_serve_cache_hits']:.0f}, "
              f"misses {metrics['repro_serve_cache_misses']:.0f}, "
              f"jobs completed {metrics['repro_serve_jobs_completed']:.0f}")

        print("\n-- backpressure -------------------------------------------")
        # Two slow jobs fill the in-flight cap; the third bounces with 429.
        # Each runs its whole 8 x 4,000,000-step budget, about a second on
        # two workers, so both are still in flight long after the server's
        # 50 ms submission holds have answered them 202.
        slow = dict(JOB, population=150, max_steps=4_000_000,
                    stability_window=4_000_000)
        client.submit(slow)
        client.submit(dict(slow, master_seed=1))
        try:
            client.submit(dict(slow, master_seed=2))
        except ServeRejected as error:
            print(f"third concurrent job rejected: HTTP {error.status}")
        else:
            raise SystemExit("no backpressure: the third concurrent job was accepted")

        print("\n-- graceful drain -----------------------------------------")
        print("draining (in-flight jobs finish, like SIGTERM in production)…")
    print("server drained and shut down cleanly")


if __name__ == "__main__":
    main()
