"""A tiny stdlib client for the :mod:`repro.serve` job server.

``http.client`` only — scripting a served simulation needs nothing more
than submit / poll / wait:

.. code-block:: python

    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8765")
    result = client.run({"protocol": "majority", "population": 60})
    print(result["statistics"]["convergence_rate"])

A client keeps one persistent connection and sends its requests over it
one at a time, from any number of threads.  When the server closes that
connection (its idle timeout, a drain, ``Connection: close``) the next
request opens a new one.

Error mapping is deliberately typed: 4xx/5xx answers raise
:class:`ServeError` carrying the HTTP status and decoded payload, with the
retryable rejections (429 backpressure, 503 draining) narrowed to
:class:`ServeRejected` so callers can back off without string-matching.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["JobFailedError", "ServeClient", "ServeError", "ServeRejected"]


class ServeError(RuntimeError):
    """An HTTP-level failure from the job server."""

    def __init__(self, status: int, payload: Any) -> None:
        message = payload.get("error") if isinstance(payload, Mapping) else payload
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class ServeRejected(ServeError):
    """A retryable rejection: 429 (over the in-flight cap) or 503 (draining)."""


class JobFailedError(RuntimeError):
    """The server executed the job and it errored (status ``error``)."""


class ServeClient:
    """Submit, poll, and await jobs against one server base URL.

    ``client_id`` names this client to the server's per-client in-flight
    cap (the ``X-Client-Id`` header); unset, the server buckets by peer
    address.  ``timeout`` bounds each HTTP request, not a whole job — use
    the ``timeout`` argument of :meth:`wait` / :meth:`run` for that.
    """

    def __init__(
        self,
        base_url: str,
        client_id: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme == "http":
            connection_class = http.client.HTTPConnection
        elif url.scheme == "https":
            connection_class = http.client.HTTPSConnection
        else:
            raise ValueError(
                f"base_url must be http:// or https://, got {base_url!r}"
            )
        self._path = url.path
        #: The kept connection; http.client opens its socket on first use and
        #: again after :meth:`close`, so a failed connect keeps no socket.
        self._connection = connection_class(url.netloc, timeout=timeout)
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the kept connection; the next request opens a new one."""
        with self._lock:
            self._connection.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Any:
        headers = {"Content-Type": "application/json"}
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        with self._lock:
            status, kind, raw = self._exchange(
                method, self._path + path, body, headers
            )
        if not 200 <= status < 300:
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = raw.decode("utf-8", "replace")
            if status in (429, 503):
                raise ServeRejected(status, payload)
            raise ServeError(status, payload)
        if kind.startswith("application/json"):
            return json.loads(raw.decode("utf-8"))
        return raw.decode("utf-8")

    def _exchange(
        self, method: str, url: str, body: Optional[bytes], headers: Dict[str, str]
    ) -> Tuple[int, str, bytes]:
        """One round trip on the kept connection; the caller holds the lock.

        Any failure closes the connection.  A reused connection that fails
        before the response's status line arrives was most likely closed by
        the server while idle, so the request is sent once more on a fresh
        connection.  That is safe: a submission is content-addressed, so a
        resent one hits the cache or coalesces onto the first.
        """
        connection = self._connection
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, url, body=body, headers=headers)
                response = connection.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                connection.close()
                connection.request(method, url, body=body, headers=headers)
                response = connection.getresponse()
            # A response with Connection: close has already closed the
            # connection inside getresponse(); it still reads its body.
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        return response.status, response.getheader("Content-Type", ""), raw

    # ------------------------------------------------------------------
    # The API
    # ------------------------------------------------------------------
    def submit(self, job: Mapping[str, Any]) -> Dict[str, Any]:
        """``POST /jobs``: returns the submission response (see server docs).

        A content-cache hit comes back with ``"cached": True`` and the full
        ``"result"`` inline; otherwise the response carries the job key to
        poll.
        """
        body = json.dumps(dict(job)).encode("utf-8")
        return self._request("POST", "/jobs", body)

    def status(self, key: str) -> Dict[str, Any]:
        """``GET /jobs/<key>``: the job's current status document."""
        return self._request("GET", f"/jobs/{key}")

    def wait(
        self, key: str, timeout: float = 300.0, poll_interval: float = 0.05
    ) -> Dict[str, Any]:
        """Poll until the job completes; return its result payload.

        Raises :class:`JobFailedError` if the server reports the job
        errored, and :class:`TimeoutError` after ``timeout`` seconds
        (monotonic — a client-side budget, never a simulation input).
        """
        deadline = time.monotonic() + timeout
        while True:
            document = self.status(key)
            state = document.get("status")
            if state == "done":
                return document["result"]
            if state == "error":
                raise JobFailedError(document.get("error", "job failed"))
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {key} still {state!r} after {timeout:.1f}s"
                )
            time.sleep(poll_interval)

    def run(
        self, job: Mapping[str, Any], timeout: float = 300.0
    ) -> Dict[str, Any]:
        """Submit and wait in one call; returns the result payload."""
        response = self.submit(job)
        if response.get("cached"):
            return response["result"]
        return self.wait(response["job"], timeout=timeout)

    def metrics(self) -> Dict[str, float]:
        """``GET /metrics`` parsed into a ``{name: value}`` mapping.

        The payload is Prometheus text exposition: ``# HELP``/``# TYPE``
        comment lines are skipped, and a histogram bucket keeps its label
        in the key (``repro_serve_job_exec_seconds_bucket{le="0.5"}``).
        """
        text = self._request("GET", "/metrics")
        parsed: Dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            if name and value:
                parsed[name] = float(value)
        return parsed

    def health(self) -> str:
        """``GET /healthz``: ``"ok"`` or ``"draining"``."""
        return self._request("GET", "/healthz").strip()
