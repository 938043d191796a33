"""A tiny stdlib client for the :mod:`repro.serve` job server.

A plain socket speaking just enough HTTP/1.1 for the server's four
endpoints — scripting a served simulation needs nothing more than
submit / poll / wait:

.. code-block:: python

    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8765")
    result = client.run({"protocol": "majority", "population": 60})
    print(result["statistics"]["convergence_rate"])

A client keeps one persistent connection and sends its requests over it
one at a time, from any number of threads, each request (head and body)
in one write.  When the server closes that connection (its idle timeout,
a drain, ``Connection: close``) the next request opens a new one.  A
response is framed by its ``Content-Length``; the client reads only that,
``Content-Type`` and ``Connection`` from its head.

Error mapping is deliberately typed: 4xx/5xx answers raise
:class:`ServeError` carrying the HTTP status and decoded payload, with the
retryable rejections (429 backpressure, 503 draining) narrowed to
:class:`ServeRejected` so callers can back off without string-matching.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from typing import Any, BinaryIO, Dict, Mapping, Optional, Tuple

__all__ = ["JobFailedError", "ServeClient", "ServeError", "ServeRejected"]

#: The longest response head line and the most head lines a response may
#: carry; a longer or larger head is not from a :mod:`repro.serve` server.
_MAX_LINE = 65536
_MAX_HEADERS = 100


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


def _read_response(stream: BinaryIO, status_line: bytes) -> Tuple[int, str, bytes, bool]:
    """The rest of the response led by ``status_line`` off ``stream``: its
    status, content type and body, and whether the connection stays open.

    Raises :class:`ConnectionError` for a response that cannot be framed.
    """
    version, _, rest = status_line.partition(b" ")
    code = rest[:3]
    if not (
        version.startswith(b"HTTP/1.") and code.isdigit() and status_line.endswith(b"\n")
    ):
        raise ConnectionError(f"malformed status line {status_line[:80]!r}")
    fields: Dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = stream.readline(_MAX_LINE)
        if line in (b"\r\n", b"\n"):
            break
        if not line.endswith(b"\n"):
            raise ConnectionError("response head truncated or too long")
        name, _, value = line.partition(b":")
        fields[name.strip().lower()] = value.strip()
    else:
        raise ConnectionError(f"response head over {_MAX_HEADERS} lines")
    tokens = {token.strip() for token in fields.get(b"connection", b"").lower().split(b",")}
    keep_alive = version == b"HTTP/1.1" and b"close" not in tokens
    length = fields.get(b"content-length", b"")
    if not length.isdigit():
        raise ConnectionError(f"missing or invalid Content-Length {length[:80]!r}")
    raw = stream.read(int(length))
    if len(raw) < int(length):
        raise ConnectionError("the connection closed inside a response body")
    kind = fields.get(b"content-type", b"").decode("latin-1")
    return int(code), kind, raw, keep_alive


class ServeClient:
    """Submit, poll, and await jobs against one server base URL.

    ``client_id`` names this client to the server's per-client in-flight
    cap (the ``X-Client-Id`` header); unset, the server buckets by peer
    address.  ``timeout`` bounds each HTTP request, not a whole job — use
    the ``timeout`` argument of :meth:`wait` / :meth:`run` for that — and
    must be positive.
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
        if url.scheme not in ("http", "https"):
            raise ValueError(
                f"base_url must be http:// or https://, got {base_url!r}"
            )
        if client_id and any(char in client_id for char in "\r\n\0"):
            raise ValueError(f"client_id must be one header line, got {client_id!r}")
        # A zero timeout would make the socket non-blocking and a negative
        # one is out of socket's range; NaN fails the test too.
        if not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        default_port = 443 if url.scheme == "https" else 80
        self._address = (url.hostname or "", url.port or default_port)
        self._path = url.path
        #: The TLS context of an https URL, None for http; ``ssl`` is
        #: imported only when one is needed.
        self._tls: Any = None
        if url.scheme == "https":
            import ssl

            self._tls = ssl.create_default_context()
        #: The head lines every request carries.
        self._fields = f"Host: {url.netloc.rpartition('@')[2]}\r\n"
        if client_id:
            self._fields += f"X-Client-Id: {client_id}\r\n"
        #: The kept connection and its buffered reader: None until the first
        #: request, and again after any failure or :meth:`close`.
        self._connection: Optional[Tuple[socket.socket, BinaryIO]] = None
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the kept connection; the next request opens a new one."""
        with self._lock:
            self._disconnect()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Any:
        target = self._path + path
        if " " in target or not target.isprintable():
            raise ValueError(f"request target must not hold spaces or controls: {target!r}")
        head = f"{method} {target} HTTP/1.1\r\n{self._fields}"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        request = (head + "\r\n").encode("latin-1") + (body or b"")
        with self._lock:
            status, kind, raw = self._exchange(request)
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

    def _exchange(self, request: bytes) -> Tuple[int, str, bytes]:
        """One round trip on the kept connection; the caller holds the lock.

        Any failure closes the connection.  A reused connection that fails
        before the response's status line arrives was most likely closed by
        the server while idle, so the request is sent once more on a fresh
        connection.  That is safe: a submission is content-addressed, so a
        resent one hits the cache or coalesces onto the first.
        """
        reused = self._connection is not None
        try:
            try:
                stream, status_line = self._send(request)
            except ConnectionError:
                if not reused:
                    raise
                self._disconnect()
                stream, status_line = self._send(request)
            status, kind, raw, keep_alive = _read_response(stream, status_line)
        except BaseException:
            self._disconnect()
            raise
        if not keep_alive:
            self._disconnect()
        return status, kind, raw

    def _send(self, request: bytes) -> Tuple[BinaryIO, bytes]:
        """Write ``request`` in one ``sendall``, connecting first if no
        connection is kept; return the connection's reader and the
        response's status line."""
        if self._connection is None:
            sock = socket.create_connection(self._address, timeout=self.timeout)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self._tls is not None:
                    sock = self._tls.wrap_socket(
                        sock, server_hostname=self._address[0]
                    )
            except BaseException:
                sock.close()
                raise
            self._connection = (sock, sock.makefile("rb"))
        sock, stream = self._connection
        sock.sendall(request)
        status_line = stream.readline(_MAX_LINE)
        if not status_line:
            raise ConnectionError("the server closed the connection without a response")
        return stream, status_line

    def _disconnect(self) -> None:
        """Drop the kept connection, if any; the caller holds the lock."""
        if self._connection is not None:
            sock, stream = self._connection
            self._connection = None
            stream.close()
            sock.close()

    # ------------------------------------------------------------------
    # The API
    # ------------------------------------------------------------------
    def submit(self, job: Mapping[str, Any]) -> Dict[str, Any]:
        """``POST /jobs``: returns the submission response (see server docs).

        A content-cache hit comes back ``"done"`` with ``"cached": True`` and
        the full ``"result"`` inline.  A job the server starts or joins is
        held until it ends or the server's hold passes: one that ended comes
        back ``"done"`` with ``"cached": False`` and the result, or
        ``"error"`` with the message; one still queued or running carries
        the job key to poll.
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
        """Submit and wait in one call; returns the result payload.

        A submission answered with its job's outcome (a cache hit, or a job
        that ended while the server held the submission) needs no status
        request: its result is returned, its error raised as
        :class:`JobFailedError`.  Only a job still queued or running is
        waited for.
        """
        response = self.submit(job)
        state = response.get("status")
        if state == "done":
            return response["result"]
        if state == "error":
            raise JobFailedError(response.get("error", "job failed"))
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
