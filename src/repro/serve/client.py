"""Stdlib client for the sweep service (``repro submit`` / ``status``).

Thin ``urllib`` wrappers over the JSON endpoints in
:mod:`repro.serve.http`; every helper takes the service base URL
(``http://host:port``) and returns parsed payloads.  Error responses
raise :class:`ServiceError` carrying the HTTP status and the server's
JSON error body, so CLI callers can print exactly what the service
said.  :func:`submit` long-polls its POST, so a sweep that finishes
within :data:`POLL_WAIT_S` costs one exchange.
"""

from __future__ import annotations

import json
import time
from typing import Iterator
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro.errors import ReproError

#: Default per-request timeout (seconds); long-polls add their wait.
DEFAULT_TIMEOUT_S = 30.0

#: How long one long-poll asks the service to hold a request (seconds):
#: :func:`submit`'s POST and each :func:`wait_done` poll.
POLL_WAIT_S = 10.0


class ServiceError(ReproError):
    """An error response (or no response) from the sweep service."""

    def __init__(self, message: str, status: int | None = None,
                 payload: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


def _request(url: str, body: dict | None = None,
             timeout: float = DEFAULT_TIMEOUT_S) -> dict:
    data = None
    headers = {"Accept": "application/json"}
    if body is not None:
        data = json.dumps(body).encode()
        headers["Content-Type"] = "application/json"
    try:
        with urlopen(Request(url, data=data, headers=headers),
                     timeout=timeout) as response:
            return json.loads(response.read() or b"{}")
    except HTTPError as exc:
        try:
            payload = json.loads(exc.read() or b"{}")
        except json.JSONDecodeError:
            payload = {}
        message = payload.get("error") or f"HTTP {exc.code}"
        raise ServiceError(
            f"sweep service: {message}", status=exc.code, payload=payload
        ) from None
    except (URLError, OSError) as exc:
        raise ServiceError(
            f"cannot reach sweep service at {url}: {exc}"
        ) from None


def _waited(url: str, wait_s: float | None,
            timeout: float) -> tuple[str, float]:
    """``url`` asking the service to hold it ``wait_s`` seconds, and
    the socket timeout that allows for the wait."""
    if wait_s and wait_s > 0:
        return f"{url}?wait={wait_s:g}", timeout + wait_s
    return url, timeout


def submit(base_url: str, payload: dict,
           wait_s: float | None = POLL_WAIT_S,
           timeout: float = DEFAULT_TIMEOUT_S) -> dict:
    """POST one sweep request; returns the service's status snapshot.

    The POST long-polls: a sweep that finishes within ``wait_s``
    seconds (capped by the server) comes back terminal, ``done`` or
    ``failed``, in this one exchange, and a completed spec comes back
    at once as a zero-execution replay.  A sweep still going when the
    wait runs out comes back ``queued`` or ``running``;
    :func:`wait_done` then long-polls its status.  ``wait_s=None``
    sends no wait and returns the accepted snapshot at once.
    """
    url, timeout = _waited(f"{base_url.rstrip('/')}/sweeps", wait_s,
                           timeout)
    return _request(url, body=payload, timeout=timeout)


def status(base_url: str, sweep_id: str, wait_s: float | None = None,
           timeout: float = DEFAULT_TIMEOUT_S) -> dict:
    url, timeout = _waited(f"{base_url.rstrip('/')}/sweeps/{sweep_id}",
                           wait_s, timeout)
    return _request(url, timeout=timeout)


def wait_done(base_url: str, sweep_id: str, poll_s: float = POLL_WAIT_S,
              timeout: float | None = None,
              started: float | None = None) -> dict:
    """Long-poll until the sweep is terminal; returns the final
    snapshot.  Each poll waits at most ``poll_s`` and never past
    ``timeout`` seconds from ``started`` (a :func:`time.monotonic`
    reading, default now), so a caller whose :func:`submit` already
    waited keeps one budget; ``timeout=None`` waits indefinitely."""
    if started is None:
        started = time.monotonic()
    deadline = None if timeout is None else started + timeout
    while True:
        wait_s = poll_s
        if deadline is not None:
            wait_s = min(poll_s, max(0.0, deadline - time.monotonic()))
        snapshot = status(base_url, sweep_id, wait_s=wait_s)
        if snapshot.get("state") in ("done", "failed"):
            return snapshot
        if deadline is not None and time.monotonic() >= deadline:
            raise ServiceError(
                f"sweep {sweep_id[:12]} still {snapshot.get('state')!r} "
                f"after {timeout:g}s"
            )


def stream(base_url: str, sweep_id: str,
           timeout: float = DEFAULT_TIMEOUT_S) -> Iterator[dict]:
    """Yield NDJSON progress events, ending with the ``type: "status"``
    final snapshot line."""
    url = f"{base_url.rstrip('/')}/sweeps/{sweep_id}?stream=1"
    try:
        with urlopen(Request(url, headers={"Accept": "application/x-ndjson"}),
                     timeout=timeout) as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
    except HTTPError as exc:
        try:
            payload = json.loads(exc.read() or b"{}")
        except json.JSONDecodeError:
            payload = {}
        raise ServiceError(
            f"sweep service: {payload.get('error') or f'HTTP {exc.code}'}",
            status=exc.code, payload=payload,
        ) from None
    except (URLError, OSError) as exc:
        raise ServiceError(
            f"cannot reach sweep service at {base_url}: {exc}"
        ) from None


def healthz(base_url: str, timeout: float = DEFAULT_TIMEOUT_S) -> dict:
    return _request(f"{base_url.rstrip('/')}/healthz", timeout=timeout)


def list_sweeps(base_url: str,
                timeout: float = DEFAULT_TIMEOUT_S) -> list[dict]:
    return _request(f"{base_url.rstrip('/')}/sweeps",
                    timeout=timeout).get("sweeps", [])
