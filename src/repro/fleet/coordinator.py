"""The supervised ``remote-fleet`` backend: an asyncio coordinator.

One coordinator drives a set of hosts through the existing
``python -m repro worker`` jobs-file/JSONL boundary and makes host
failure a *recoverable* event:

* **Probing** — before a host runs anything, ``repro worker --probe``
  must report a matching jobs-file schema and simulator code salt (a
  host on different sources would compute results the local cache keys
  don't describe) plus its CPU count, which sizes per-host concurrency.
* **Leases** — every worker renews a heartbeat file; a worker silent
  past its lease (or past the per-job deadline) is killed and its
  unfinished jobs migrate to a healthy host.
* **Retry with deterministic backoff** — lost jobs are re-dispatched
  under the shared :class:`~repro.fleet.policy.RetryPolicy`: bounded
  attempts, exponential backoff, jitter keyed off the task's sweep
  position, so retry order is reproducible run to run.
* **Quarantine** — a host that fails ``quarantine_after`` times in a
  row sits out ``cooldown_s``, then must pass a fresh probe to
  re-enter; one quarantine past ``max_quarantines`` and it goes down
  for good.
* **Graceful degradation** — when every host is gone, the remaining
  jobs run on the local ``pool`` backend with a warning instead of
  failing the sweep.

Typed error rows from the worker mark *deterministic* job failures:
those are never retried (they would fail identically anywhere) and
fail the sweep with the host, job index and traceback tail attached.

Everything is observable: per-host jobs/dispatches/failures/
quarantines, global retries/migrations and fired chaos faults land in
``SweepBackend.metrics`` → :class:`~repro.obs.SweepMetrics` → the sweep
trace → ``repro stats`` / ``repro fleet status``.

The acceptance contract is the platform's standing one: a
``remote-fleet`` sweep aggregates **byte-identically** to ``serial`` —
clean, and under every fault in :mod:`repro.fleet.faults`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import shutil
import sys
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError
from repro.exp.backend import (
    EmitFn,
    RunOneFn,
    SweepBackend,
    Task,
    register_backend,
    resolve_backend,
)
from repro.exp.cache import spool_dir
from repro.exp.worker import (
    JOBS_FILE_VERSION,
    parse_worker_row,
    write_jobs_file,
)
from repro.fleet.faults import (
    TRANSPORT_FAULT_KINDS,
    WORKER_FAULT_ENV,
    WORKER_FAULT_KINDS,
    FleetFaultPlan,
)
from repro.fleet.policy import (
    DEFAULT_LEASE_POLICY,
    DEFAULT_RETRY_POLICY,
    LeasePolicy,
    RetryPolicy,
)
from repro.fleet.transport import Transport, TransportDown, worker_env

#: Supervision poll cadence (row tailing, lease checks).
POLL_S = 0.05

#: Terminal host states: a host in one of these never runs again.
TERMINAL_STATES = ("down", "incompatible")

#: Most tasks one dispatch carries (batches shrink as the queue drains).
BATCH_CAP = 8

#: Seconds a capability probe may take before it counts as a failure.
PROBE_TIMEOUT_S = 120.0


@dataclass
class HostState:
    """One supervised host (a position in the ``hosts`` list)."""

    hid: str            # unique id, e.g. "local" / "local@1"
    addr: str           # transport address ("local" or an ssh host)
    status: str = "probing"   # probing|active|quarantined|down|incompatible
    slots: int = 1
    probe: dict = field(default_factory=dict)
    reason: str = ""    # why the host left service (for metrics)
    jobs_done: int = 0
    dispatches: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    quarantines: int = 0


def evaluate_probe(payload: object, local_salt: str) -> str | None:
    """Reason a probe payload disqualifies its host, or ``None`` if the
    host is admissible."""
    if not isinstance(payload, dict):
        return "unparseable probe payload"
    if payload.get("schema") != JOBS_FILE_VERSION:
        return (
            f"jobs-file schema mismatch (host {payload.get('schema')!r}, "
            f"local {JOBS_FILE_VERSION})"
        )
    if payload.get("code_salt") != local_salt:
        return "code-salt mismatch (host runs different simulator sources)"
    local_python = ".".join(str(v) for v in sys.version_info[:2])
    remote = str(payload.get("python", ""))
    if ".".join(remote.split(".")[:2]) != local_python:
        return f"python version mismatch (host {remote}, local {local_python})"
    return None


class _RowTail:
    """Incremental reader over a growing worker output file."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._offset = 0
        self._buf = b""

    def poll(self) -> list[dict]:
        try:
            with self.path.open("rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        self._offset += len(data)
        self._buf += data
        *complete, self._buf = self._buf.split(b"\n")
        rows = []
        for raw in complete:
            row = parse_worker_row(raw.decode("utf-8", errors="replace"))
            if row is not None:
                rows.append(row)
        return rows


class FleetCoordinator:
    """Runs one task set across the fleet; see the module docstring."""

    def __init__(
        self, backend: "RemoteFleetBackend", run_one: RunOneFn, emit: EmitFn
    ) -> None:
        self.hosts = []
        seen: dict[str, int] = {}
        for addr in backend.hosts:
            n = seen.get(addr, 0)
            seen[addr] = n + 1
            hid = addr if n == 0 else f"{addr}@{n}"
            self.hosts.append(HostState(hid=hid, addr=addr))
        self._run_one = run_one
        self._emit = emit
        self.retry = backend.retry
        self.lease = backend.lease
        self.plan = backend.fault_plan
        self.transport = Transport()
        self.slots_per_host = backend.jobs
        self._spool_root = backend.spool_root
        # Run state (created in run()).
        self._tasks: dict[int, object] = {}
        self._pending: deque[int] = deque()
        self._done: set[int] = set()
        self._retries: dict[int, int] = {}
        self._last_host: dict[int, str] = {}
        self._migrations = 0
        self._quarantines = 0
        self._probes = 0
        self._fatal: ReproError | None = None
        self._degraded = False
        self._seq = 0
        self._retry_handles: set[asyncio.Task] = set()

    # -- shared-state helpers -----------------------------------------

    def _should_stop(self) -> bool:
        return (
            self._fatal is not None
            or self._degraded
            or len(self._done) == len(self._tasks)
        )

    async def _notify_all(self) -> None:
        async with self._cond:
            self._cond.notify_all()

    async def _fail_sweep(self, exc: ReproError) -> None:
        if self._fatal is None:
            self._fatal = exc
        await self._notify_all()

    async def _degrade(self) -> None:
        if not self._degraded:
            self._degraded = True
        await self._notify_all()

    async def _maybe_degrade(self) -> None:
        if all(h.status in TERMINAL_STATES for h in self.hosts):
            await self._degrade()

    # -- probing ------------------------------------------------------

    async def _probe_once(self, host: HostState) -> None:
        """One probe attempt; moves the host to active, quarantined,
        incompatible or down."""
        from repro.exp.serialize import code_version_salt

        self._probes += 1
        reason: str | None = None
        payload: dict = {}
        try:
            if self.plan.fire(TRANSPORT_FAULT_KINDS, host.hid) is not None:
                raise TransportDown("injected: drop-host")
            proc = await self.transport.launch(
                self.transport.probe_command(host.addr), worker_env()
            )
            try:
                out, err = await asyncio.wait_for(
                    proc.communicate(), PROBE_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                with contextlib.suppress(ProcessLookupError):
                    proc.kill()
                await proc.wait()
                raise TransportDown(
                    f"probe timed out after {PROBE_TIMEOUT_S}s"
                )
            if proc.returncode != 0:
                tail = err.decode(errors="replace").strip()[-500:]
                raise TransportDown(
                    f"probe exited with status {proc.returncode}: {tail}"
                )
            try:
                payload = json.loads(out.decode(errors="replace"))
            except json.JSONDecodeError:
                payload = {}
            reject = evaluate_probe(payload, code_version_salt())
            if reject is not None:
                # Incompatibility is not transient: no cooldown heals a
                # code-salt mismatch, so the host leaves for good.
                host.status = "incompatible"
                host.reason = reject
                await self._maybe_degrade()
                return
        except TransportDown as exc:
            reason = str(exc)
        if reason is not None:
            self._host_failure_mark(host, reason)
            await self._maybe_degrade()
            return
        host.probe = {
            "python": payload.get("python"),
            "cpus": payload.get("cpus"),
        }
        host.slots = max(
            1, min(self.slots_per_host, int(payload.get("cpus") or 1))
        )
        host.status = "active"
        host.consecutive_failures = 0
        host.reason = ""

    def _host_failure_mark(self, host: HostState, reason: str) -> None:
        """Count a host-level failure; quarantine or retire on repeats."""
        host.failures += 1
        host.consecutive_failures += 1
        host.reason = reason
        if host.consecutive_failures >= self.retry.quarantine_after:
            host.quarantines += 1
            self._quarantines += 1
            host.consecutive_failures = 0
            if host.quarantines > self.retry.max_quarantines:
                host.status = "down"
            else:
                host.status = "quarantined"
        # Otherwise the host keeps its status: a failed probe with
        # failures to spare probes again directly.

    # -- claiming and retrying ----------------------------------------

    def _batch_target(self, host: HostState) -> int:
        active_slots = sum(
            h.slots for h in self.hosts if h.status == "active"
        ) or host.slots
        return max(
            1,
            min(math.ceil(len(self._pending) / (active_slots * 2)), BATCH_CAP),
        )

    async def _claim_batch(self, host: HostState) -> list[Task] | None:
        async with self._cond:
            while True:
                if self._should_stop() or host.status != "active":
                    return None
                if self._pending:
                    want = min(self._batch_target(host), len(self._pending))
                    indexes = [self._pending.popleft() for _ in range(want)]
                    for index in indexes:
                        previous = self._last_host.get(index)
                        if previous is not None and previous != host.hid:
                            self._migrations += 1
                        self._last_host[index] = host.hid
                    return [(i, self._tasks[i]) for i in indexes]
                await self._cond.wait()

    async def _schedule_retry(
        self, host: HostState, index: int, reason: str, stderr_tail: str
    ) -> None:
        count = self._retries.get(index, 0) + 1
        self._retries[index] = count
        if self.retry.attempts_exhausted(count):
            tail = f"; worker stderr tail: {stderr_tail}" if stderr_tail else ""
            await self._fail_sweep(ReproError(
                f"sweep task {index} lost {count} workers in a row "
                f"(last on host {host.hid}: {reason}); giving up{tail}"
            ))
            return
        delay = self.retry.backoff_s(count, key=f"task:{index}")
        handle = asyncio.create_task(self._requeue_after(index, delay))
        self._retry_handles.add(handle)
        handle.add_done_callback(self._retry_handles.discard)

    async def _requeue_after(self, index: int, delay: float) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        async with self._cond:
            if index not in self._done and not self._should_stop():
                self._pending.append(index)
            self._cond.notify_all()

    def _complete(self, host: HostState, index: int, payload: dict) -> bool:
        if index in self._done:
            return False
        self._done.add(index)
        host.jobs_done += 1
        host.consecutive_failures = 0
        self._emit(index, payload)
        return True

    # -- dispatch and supervision -------------------------------------

    async def _dispatch(self, host: HostState, batch: list[Task]) -> None:
        host.dispatches += 1
        self._seq += 1
        stem = self._spool / f"d{self._seq:04d}"
        jobs_file = stem.with_suffix(".jobs.pkl")
        out_file = stem.with_suffix(".out.jsonl")
        hb_file = stem.with_suffix(".hb")
        write_jobs_file(jobs_file, self._run_one, batch)

        extra: dict[str, str] = {}
        dropped = self.plan.fire(TRANSPORT_FAULT_KINDS, host.hid)
        if dropped is None:
            worker_fault = self.plan.fire(WORKER_FAULT_KINDS, host.hid)
            if worker_fault is not None:
                hold = None
                if worker_fault.kind == "heartbeat" and not worker_fault.hold_s:
                    # The held job must outlive the startup grace plus a
                    # lease so the supervisor provably expires it.
                    hold = (
                        self.lease.startup_grace_s
                        + self.lease.lease_timeout_s + 0.5
                    )
                extra[WORKER_FAULT_ENV] = worker_fault.directive(hold_s=hold)
        try:
            if dropped is not None:
                raise TransportDown("injected: drop-host")
            proc = await self.transport.launch(
                self.transport.worker_command(
                    host.addr, jobs_file, out_file, hb_file,
                    self.lease.heartbeat_s,
                ),
                worker_env(extra),
            )
        except TransportDown as exc:
            await self._abandon_dispatch(
                host, batch, f"transport down: {exc}", ""
            )
            return
        await self._supervise(host, proc, out_file, hb_file, batch)

    async def _supervise(
        self,
        host: HostState,
        proc: asyncio.subprocess.Process,
        out_file: Path,
        hb_file: Path,
        batch: list[Task],
    ) -> None:
        tail = _RowTail(out_file)
        stderr_task = asyncio.ensure_future(proc.stderr.read())
        stdout_task = asyncio.ensure_future(proc.stdout.read())
        waiter = asyncio.ensure_future(proc.wait())
        started = time.time()
        last_progress = started
        first_beat = False
        last_beat = started
        killed_reason: str | None = None
        error_rows: list[dict] = []

        def _consume(rows: list[dict]) -> bool:
            nonlocal last_progress
            advanced = False
            for row in rows:
                if "payload" in row:
                    if self._complete(host, row["index"], row["payload"]):
                        advanced = True
                    last_progress = time.time()
                else:
                    error_rows.append(row)
            return advanced

        while True:
            if _consume(tail.poll()):
                await self._notify_all()
            if waiter.done():
                break
            now = time.time()
            try:
                beat = hb_file.stat().st_mtime
            except FileNotFoundError:
                beat = None
            if beat is not None:
                first_beat = True
                last_beat = beat
            if not first_beat:
                if now - max(started, last_progress) > self.lease.startup_grace_s:
                    killed_reason = (
                        "no heartbeat within the "
                        f"{self.lease.startup_grace_s}s startup grace"
                    )
            elif now - max(last_beat, last_progress) > self.lease.lease_timeout_s:
                killed_reason = (
                    f"heartbeat lease expired ({self.lease.lease_timeout_s}s)"
                )
            if (
                killed_reason is None
                and self.lease.job_deadline_s is not None
                and now - last_progress > self.lease.job_deadline_s
            ):
                killed_reason = (
                    f"per-job deadline expired ({self.lease.job_deadline_s}s)"
                )
            if killed_reason is not None or self._should_stop():
                # The worker may have exited before ``waiter`` resolved:
                # its transport is closed, and kill() would raise.
                with contextlib.suppress(ProcessLookupError):
                    proc.kill()
                break
            try:
                await asyncio.wait_for(asyncio.shield(waiter), POLL_S)
            except asyncio.TimeoutError:
                pass
        await waiter
        stderr = await stderr_task
        await stdout_task
        if _consume(tail.poll()):
            await self._notify_all()
        stderr_tail = stderr.decode(errors="replace").strip()[-2000:]

        if error_rows:
            # A typed error row is a deterministic job failure: the job
            # would raise identically on any host, so never retry it.
            row = error_rows[0]
            error = row["error"]
            await self._fail_sweep(ReproError(
                f"sweep task {row['index']} failed deterministically on "
                f"host {host.hid}: {error.get('type')}: "
                f"{error.get('message')}\n{error.get('traceback', '')}"
            ))
            return
        missing = [
            (index, obj) for index, obj in batch if index not in self._done
        ]
        if not missing:
            host.consecutive_failures = 0
            host.reason = ""
            return
        if self._should_stop():
            return
        reason = killed_reason or (
            f"worker exited with status {proc.returncode} before "
            "finishing its batch"
            if proc.returncode != 0
            else "worker exited cleanly but returned no result "
            "(lost or corrupt rows)"
        )
        await self._abandon_dispatch(host, missing, reason, stderr_tail)

    async def _abandon_dispatch(
        self,
        host: HostState,
        missing: list[Task],
        reason: str,
        stderr_tail: str,
    ) -> None:
        """Host-death path: schedule every unfinished job for retry and
        count the failure against the host."""
        for index, _obj in missing:
            await self._schedule_retry(host, index, reason, stderr_tail)
        self._host_failure_mark(host, reason)
        await self._maybe_degrade()
        await self._notify_all()

    # -- host loops ---------------------------------------------------

    async def _slot_loop(self, host: HostState) -> None:
        while host.status == "active" and not self._should_stop():
            batch = await self._claim_batch(host)
            if batch is None:
                return
            await self._dispatch(host, batch)

    async def _host_main(self, host: HostState) -> None:
        while not self._should_stop():
            if host.status in TERMINAL_STATES:
                await self._maybe_degrade()
                return
            if host.status == "probing":
                await self._probe_once(host)
                continue
            if host.status == "quarantined":
                await asyncio.sleep(self.retry.cooldown_s)
                if self._should_stop():
                    return
                host.status = "probing"
                continue
            # Active: run this host's slots until it leaves service.
            await asyncio.gather(
                *[self._slot_loop(host) for _ in range(host.slots)]
            )
            if host.status == "active":
                return  # slots drained because the work is done

    # -- entry point --------------------------------------------------

    async def run(self, tasks: Sequence[Task]) -> list[Task]:
        """Execute ``tasks``; returns the leftover tasks when the fleet
        degraded (empty on full success); raises on deterministic job
        failure or an exhausted retry budget."""
        self._tasks = {index: obj for index, obj in tasks}
        self._pending = deque(index for index, _obj in tasks)
        self._cond = asyncio.Condition()
        self._spool = (
            spool_dir(self._spool_root) / f"fleet-{uuid.uuid4().hex[:10]}"
        )
        self._spool.mkdir(parents=True, exist_ok=True)
        try:
            await asyncio.gather(
                *[self._host_main(host) for host in self.hosts]
            )
        finally:
            for handle in list(self._retry_handles):
                handle.cancel()
            if self._retry_handles:
                await asyncio.gather(
                    *self._retry_handles, return_exceptions=True
                )
            shutil.rmtree(self._spool, ignore_errors=True)
        if self._fatal is not None:
            raise self._fatal
        return [
            (index, obj) for index, obj in tasks if index not in self._done
        ]

    def metrics(self) -> dict:
        """JSON-able operational counters (per host and fleet-wide)."""
        hosts = {}
        for host in self.hosts:
            entry: dict = {
                "addr": host.addr,
                "status": host.status,
                "slots": host.slots,
                "jobs": host.jobs_done,
                "dispatches": host.dispatches,
                "failures": host.failures,
                "quarantines": host.quarantines,
            }
            if host.probe:
                entry["probe"] = host.probe
            if host.reason:
                entry["reason"] = host.reason
            hosts[host.hid] = entry
        return {
            "hosts": hosts,
            "probes": self._probes,
            "retries": sum(self._retries.values()),
            "migrations": self._migrations,
            "quarantines": self._quarantines,
            "faults_fired": self.plan.fired(),
        }


# ----------------------------------------------------------------------
# remote-fleet
# ----------------------------------------------------------------------
@register_backend("remote-fleet")
class RemoteFleetBackend(SweepBackend):
    """Supervised multi-host fleet: probing, leases, retry/migration,
    quarantine, and graceful fallback to the local ``pool``.

    ``hosts`` uses the :mod:`repro.fleet.transport` grammar
    (``"local"`` spawns plain subprocesses; anything else goes through
    ssh and assumes a shared filesystem); ``jobs`` caps concurrent
    workers *per host* (the effective count is ``min(jobs, probed CPU
    count)``).  Chaos is injected through a
    :class:`~repro.fleet.faults.FleetFaultPlan` (``fault_plan=``; none
    by default).  ``spool_root`` names the cache dir whose ``spool/``
    holds the batch files (``None``: the default cache dir).  The
    coordinator of each :meth:`execute` is built from these settings.
    """

    def __init__(
        self,
        jobs: int = 1,
        hosts: Sequence[str] | None = None,
        retry: RetryPolicy | None = None,
        lease: LeasePolicy | None = None,
        fault_plan: FleetFaultPlan | None = None,
        spool_root: str | Path | None = None,
    ) -> None:
        self.hosts = tuple(hosts) if hosts else ("local",)
        self.jobs = max(1, jobs)
        self.retry = retry or DEFAULT_RETRY_POLICY
        self.lease = lease or DEFAULT_LEASE_POLICY
        self.fault_plan = (
            fault_plan if fault_plan is not None else FleetFaultPlan()
        )
        self.spool_root = spool_root

    def execute(
        self, tasks: Sequence[Task], run_one: RunOneFn, emit: EmitFn
    ) -> None:
        if not tasks:
            self.metrics = {"hosts": {}, "tasks": 0, "wall_s": 0.0}
            return
        started = time.perf_counter()
        emitted: set[int] = set()

        def emit_once(index: int, payload: dict) -> None:
            if index in emitted:
                return
            emitted.add(index)
            emit(index, payload)

        coordinator = FleetCoordinator(self, run_one, emit_once)
        leftover = asyncio.run(coordinator.run(tasks))
        metrics = coordinator.metrics()
        if leftover:
            # Every host is gone: degrade to local execution rather
            # than failing a sweep the machine can still finish.
            print(
                f"remote-fleet: all {len(self.hosts)} host(s) "
                f"unavailable; running {len(leftover)} remaining job(s) "
                "on the local pool backend",
                file=sys.stderr,
            )
            fallback_jobs = max(1, min(len(leftover), os.cpu_count() or 1))
            pool = resolve_backend("pool", jobs=fallback_jobs)
            pool.execute(leftover, run_one, emit_once)
            metrics["fallback"] = {
                "backend": "pool",
                "tasks": len(leftover),
                "workers": fallback_jobs,
            }
        metrics["tasks"] = len(tasks)
        metrics["wall_s"] = time.perf_counter() - started
        self.metrics = metrics
