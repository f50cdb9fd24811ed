"""How the fleet coordinator reaches a host.

A transport only builds command lines — process supervision stays in
the coordinator, so every transport gets heartbeats, leases, retries
and quarantine for free.  The address grammar: ``"local"`` spawns the
worker directly in this interpreter's environment (the zero-setup path
and the one the tests exercise); anything else is wrapped in ``ssh
<addr> ...`` and assumes a shared filesystem plus an importable
``repro`` package on the far side.

The injected-failure seam lives here too: :meth:`Transport.launch`
raises :class:`TransportDown` when the coordinator's fault plan drops
the host, exactly where a real connection failure would surface.
"""

from __future__ import annotations

import asyncio
import os
import sys
from pathlib import Path


class TransportDown(Exception):
    """The host could not be reached (real or injected)."""


class Transport:
    """Builds and launches worker/probe commands for one address."""

    def __init__(self, remote_python: str = "python3") -> None:
        self.remote_python = remote_python

    def _wrap(self, addr: str, worker_args: list[str]) -> list[str]:
        if addr == "local":
            return [sys.executable, *worker_args]
        return ["ssh", addr, self.remote_python, *worker_args]

    def worker_command(
        self,
        addr: str,
        jobs_file: Path,
        out_file: Path,
        heartbeat_file: Path,
        heartbeat_s: float,
    ) -> list[str]:
        return self._wrap(addr, [
            "-m", "repro", "worker",
            "--jobs-file", str(jobs_file),
            "--out", str(out_file),
            "--heartbeat-file", str(heartbeat_file),
            "--heartbeat-s", str(heartbeat_s),
            # Progress would land in a stderr PIPE nobody drains until
            # the process exits; keep it off (stderr still carries
            # tracebacks for the failure report).
            "--quiet",
        ])

    def probe_command(self, addr: str) -> list[str]:
        return self._wrap(addr, ["-m", "repro", "worker", "--probe"])

    async def launch(
        self, command: list[str], env: dict[str, str]
    ) -> asyncio.subprocess.Process:
        """Start a worker/probe process; raises :class:`TransportDown`
        when the host is unreachable."""
        try:
            return await asyncio.create_subprocess_exec(
                *command,
                stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.PIPE,
                env=env,
            )
        except OSError as exc:  # e.g. ssh binary missing
            raise TransportDown(str(exc)) from exc


def worker_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for a spawned worker: the caller's, with the package
    importable and any inherited worker fault directive stripped (the
    coordinator injects its own, per dispatch, via ``extra``)."""
    from repro.fleet.faults import WORKER_FAULT_ENV

    env = dict(os.environ)
    env.pop(WORKER_FAULT_ENV, None)
    package_parent = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{package_parent}{os.pathsep}{existing}"
        if existing else package_parent
    )
    if extra:
        env.update(extra)
    return env
