"""HTTP front-end of the sweep service (stdlib only).

A :class:`ThreadingHTTPServer` shell over
:class:`~repro.serve.service.SweepService`:

* ``POST /sweeps`` — submit a JSON :mod:`~repro.serve.protocol`
  request.  202 queued/attached, 200 replayed from the store (zero
  jobs executed), 400 invalid, 429 queue full, 503 draining.
* ``GET /sweeps`` — all known sweeps.
* ``GET /sweeps/<id>`` — one status snapshot; ``?wait=<s>`` blocks
  until terminal (capped), ``?stream=1`` switches to NDJSON: one
  ``{"type": "job", ...}`` line per completed job as it happens, then
  one final ``{"type": "status", ...}`` line.
* ``GET /healthz`` — liveness, drain state, request-level
  :class:`~repro.obs.metrics.ServiceMetrics` counters.

Connections speak HTTP/1.0 with ``Connection: close`` so the NDJSON
stream needs no chunked framing; per-connection socket timeouts keep a
stalled peer from pinning a handler thread.  SIGTERM/SIGINT trigger a
graceful drain — in-flight sweeps finish, new submissions get 503 —
before the listener closes.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import SweepService

#: Hard cap on ``?wait=`` long-polls (seconds): clients re-poll, the
#: server never holds a handler thread hostage indefinitely.
MAX_WAIT_S = 60.0

#: Per-connection socket timeout; also the stream's poll granularity.
SOCKET_TIMEOUT_S = 30.0

#: Largest accepted request body (a sweep request is tiny).
MAX_BODY_BYTES = 1 << 20


class SweepHTTPServer(ThreadingHTTPServer):
    """The listener; carries the service for its handler threads."""

    daemon_threads = True

    def __init__(self, address, service: SweepService, quiet: bool = True):
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.0 + the implied Connection: close lets the NDJSON stream
    # end by EOF instead of chunked transfer-encoding.
    protocol_version = "HTTP/1.0"
    timeout = SOCKET_TIMEOUT_S
    server: SweepHTTPServer

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
        if not self.server.quiet:
            sys.stderr.write(
                f"{self.address_string()} {fmt % args}\n"
            )

    def _send_json(self, code: int, payload) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "bad Content-Length"})
            return None
        try:
            return json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and bytes that are not
            # UTF-8; RecursionError is nesting too deep to decode.
            self._send_json(400, {"error": f"invalid JSON body: {exc}"})
            return None

    # -- routes --------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        url = urlsplit(self.path)
        if url.path.rstrip("/") != "/sweeps":
            self._send_json(404, {"error": f"no such endpoint: {url.path}"})
            return
        payload = self._read_body()
        if payload is None:
            return
        snapshot, code = self.server.service.submit(payload)
        self._send_json(code, snapshot)

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        service = self.server.service
        path = url.path.rstrip("/") or "/"
        if path == "/healthz":
            status = "draining" if service.draining else "ok"
            self._send_json(200, {
                "status": status,
                "cache_dir": str(service.cache_dir),
                "workers": service.workers,
                "queue_limit": service.queue_limit,
                "sweeps": service.sweep_count(),
                "metrics": service.metrics.to_dict(),
            })
            return
        if path == "/sweeps":
            self._send_json(200, {"sweeps": service.list_sweeps()})
            return
        if path.startswith("/sweeps/"):
            sweep_id = path[len("/sweeps/"):]
            if "stream" in query:
                self._stream(sweep_id)
                return
            wait_s = 0.0
            if "wait" in query:
                try:
                    wait_s = min(float(query["wait"][0]), MAX_WAIT_S)
                except ValueError:
                    self._send_json(400, {"error": "bad wait= value"})
                    return
            snapshot = service.status(sweep_id, wait_s=wait_s)
            if snapshot is None:
                self._send_json(
                    404, {"error": f"unknown sweep {sweep_id!r}"}
                )
                return
            self._send_json(200, snapshot)
            return
        self._send_json(404, {"error": f"no such endpoint: {url.path}"})

    def _stream(self, sweep_id: str) -> None:
        """NDJSON progress: job events as they complete, then the final
        status snapshot.  Ends by connection close (HTTP/1.0)."""
        service = self.server.service
        if service.status(sweep_id) is None:
            self._send_json(404, {"error": f"unknown sweep {sweep_id!r}"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        seq = 0
        try:
            while True:
                polled = service.events_since(
                    sweep_id, seq, wait_s=min(5.0, SOCKET_TIMEOUT_S / 2)
                )
                if polled is None:
                    return
                events, seq, terminal = polled
                for event in events:
                    self.wfile.write(
                        json.dumps(event, sort_keys=True).encode() + b"\n"
                    )
                if not events and not terminal:
                    # Keepalive: a blank line every poll so an idle
                    # stream still moves bytes past client timeouts.
                    self.wfile.write(b"\n")
                self.wfile.flush()
                if terminal:
                    # events_since snapshots the list and the terminal
                    # flag under one lock, and terminal records gain no
                    # events — everything to the end was in this batch.
                    break
            snapshot = service.status(sweep_id)
            if snapshot is not None:
                snapshot = dict(snapshot, type="status")
                self.wfile.write(
                    json.dumps(snapshot, sort_keys=True).encode() + b"\n"
                )
            self.wfile.flush()
        except (BrokenPipeError, ConnectionError):
            pass  # client went away mid-stream; nothing to clean up


def serve(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 8077,
    quiet: bool = True,
    install_signals: bool = True,
    ready=None,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain and exit.

    ``ready`` (if given) is called with the bound ``(host, port)`` once
    the listener is up — port 0 resolves to the kernel-assigned port.
    Returns 0 after a clean drain, 1 when the drain timed out.
    """
    server = SweepHTTPServer((host, port), service, quiet=quiet)
    service.start()
    drained: list[bool] = []

    def _shutdown(signum=None, frame=None) -> None:
        # Runs in a helper thread: serve_forever() must not be stopped
        # from inside its own handler, and signal handlers must be
        # quick.  Drain first so 503s replace new work immediately.
        def _go() -> None:
            drained.append(service.stop())
            server.shutdown()

        threading.Thread(target=_go, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)
    if ready is not None:
        ready(server.server_address[0], server.server_address[1])
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    return 0 if (not drained or drained[0]) else 1
