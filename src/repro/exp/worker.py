"""The out-of-process sweep worker (``python -m repro worker``).

This is the far side of the serialization boundary the ``remote-fleet``
backend exercises: a jobs file (pickle) carries the task list plus a
reference to the module-level executor that runs one task, and the
worker streams JSONL rows to its output file, flushing after every task
so a killed worker leaves a readable prefix behind.

Row types:

* ``{"index": <int>, "payload": <dict>}`` — one finished task.
* ``{"index": <int>, "error": {"type", "message", "traceback"}}`` — the
  task raised.  A typed failure row is how a supervisor distinguishes a
  *deterministic* job failure (the row exists: retrying would raise the
  same way — never retry) from *host death* (the row is missing: the
  worker died under the job — always safe to migrate).

The worker can also renew a heartbeat lease (``--heartbeat-file``: the
file's mtime is the lease; the supervisor polls it) and answer
capability probes (``--probe``: JSON with python version, code salt,
CPU count on stdout) — everything a fleet coordinator needs to decide
whether and how hard to use a host.

The format is deliberately the minimum a real cluster backend needs —
nothing here knows about sweeps, caches or defenses.  A jobs file is::

    {"version": 1, "run_one": <picklable callable>, "tasks": [(index, obj), ...]}

and the executor (:func:`repro.exp.runner.execute_job`,
:func:`repro.exp.attack.execute_attack_job`, ...) must be a module-level
function so pickling it records only its qualified name.

Chaos: when :data:`~repro.fleet.faults.WORKER_FAULT_ENV` carries a
directive (injected per dispatch by the fleet coordinator), the worker
misbehaves on purpose — dies mid-batch, truncates or corrupts a result
row, or withholds heartbeats.  See :mod:`repro.fleet.faults`.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.errors import ReproError
from repro.fleet.faults import WorkerFault

#: Jobs-file layout version; bump on incompatible changes.
JOBS_FILE_VERSION = 1

#: ``os._exit`` codes for injected worker deaths (distinct from real
#: crashes so a supervisor log reads unambiguously).
FAULT_EXIT_KILLED = 23
FAULT_EXIT_TRUNCATED = 24


def write_jobs_file(
    path: str | Path,
    run_one: Callable[[object], dict],
    tasks: Sequence[tuple[int, object]],
) -> None:
    """Serialize a task batch for one worker invocation."""
    record = {
        "version": JOBS_FILE_VERSION,
        "run_one": run_one,
        "tasks": list(tasks),
    }
    with open(path, "wb") as handle:
        pickle.dump(record, handle)


def load_jobs_file(path: str | Path):
    """Read a jobs file back; returns ``(run_one, tasks)``."""
    try:
        with open(path, "rb") as handle:
            record = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError) as exc:
        raise ReproError(f"unreadable jobs file {path}: {exc}") from exc
    if (
        not isinstance(record, dict)
        or record.get("version") != JOBS_FILE_VERSION
        or "run_one" not in record
        or not isinstance(record.get("tasks"), list)
    ):
        raise ReproError(
            f"jobs file {path} is not a version-{JOBS_FILE_VERSION} "
            "worker jobs file"
        )
    return record["run_one"], record["tasks"]


def probe_payload() -> dict:
    """Host-capability facts for ``python -m repro worker --probe``.

    The coordinator admits a host only when its ``code_salt`` matches
    the local one — a host running different simulator sources would
    compute payloads the local cache keys don't describe — and sizes
    per-host concurrency from ``cpus``.
    """
    from repro.exp.serialize import code_version_salt

    return {
        "schema": JOBS_FILE_VERSION,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "code_salt": code_version_salt(),
        "cpus": os.cpu_count() or 1,
    }


def _start_heartbeat(
    path: str | Path, interval_s: float, fault: WorkerFault | None
) -> Callable[[], None]:
    """Touch ``path`` every ``interval_s`` from a daemon thread.

    A ``heartbeat`` fault delays the first touch by ``delay_s``
    (``None`` suppresses the thread entirely).  Returns a stop
    callable."""
    delay_s = 0.0
    if fault is not None and fault.kind == "heartbeat":
        if fault.delay_s is None:
            return lambda: None  # suppressed: the lease must expire
        delay_s = fault.delay_s
    stop = threading.Event()
    target = Path(path)
    if not delay_s:
        target.touch()  # first beat lands before any job runs

    def beat() -> None:
        if delay_s and stop.wait(delay_s):
            return
        while True:
            target.touch()
            if stop.wait(interval_s):
                return

    threading.Thread(target=beat, daemon=True).start()
    return stop.set


def _error_row(index: int, exc: BaseException) -> str:
    """Serialize a typed per-job failure (deterministic: never retry)."""
    tail = traceback.format_exc(limit=8)
    return json.dumps({
        "index": index,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": tail[-2000:],
        },
    }, sort_keys=True)


def run_worker(
    jobs_file: str | Path,
    out_path: str | Path,
    progress: Callable[[str], None] | None = None,
    heartbeat_path: str | Path | None = None,
    heartbeat_s: float = 0.5,
    fault: WorkerFault | None = None,
) -> int:
    """Execute every task in ``jobs_file``; stream results to ``out_path``.

    Each row is written and flushed the moment its task finishes, so an
    interrupted worker leaves a valid JSONL prefix the caller can still
    consume.  A task that raises produces a typed error row and the
    worker moves on — one poisoned job never takes the batch's other
    results down with it.  Returns the number of *completed* tasks
    (error rows do not count).

    ``heartbeat_path`` names a lease file touched every ``heartbeat_s``
    while the worker lives.  ``fault`` (default: decoded from
    :data:`~repro.fleet.faults.WORKER_FAULT_ENV`) injects a chaos
    directive; see :mod:`repro.fleet.faults`.
    """
    if fault is None:
        fault = WorkerFault.from_env()
    run_one, tasks = load_jobs_file(jobs_file)
    stop_heartbeat = (
        _start_heartbeat(heartbeat_path, heartbeat_s, fault)
        if heartbeat_path is not None else lambda: None
    )
    if fault is not None and fault.kind == "heartbeat" and fault.hold_s:
        # Model a long-running job behind the dead heartbeat channel:
        # the supervisor must expire the lease, not wait this out.
        time.sleep(fault.hold_s)
    completed = 0
    try:
        with open(out_path, "w") as handle:
            for ordinal, (index, obj) in enumerate(tasks):
                if (
                    fault is not None
                    and fault.kind == "kill-worker"
                    and ordinal == fault.after_jobs
                ):
                    handle.flush()
                    os._exit(FAULT_EXIT_KILLED)
                if (
                    fault is not None
                    and fault.kind == "corrupt-result"
                    and ordinal == fault.after_jobs
                ):
                    handle.write("XX-not-json corrupt result row XX\n")
                    handle.flush()
                    continue  # the row (and the job) is simply lost
                try:
                    payload = run_one(obj)
                except Exception as exc:
                    handle.write(_error_row(index, exc) + "\n")
                    handle.flush()
                    if progress is not None:
                        progress(f"task {index} FAILED: {exc!r}")
                    continue
                line = json.dumps(
                    {"index": index, "payload": payload}, sort_keys=True
                )
                if (
                    fault is not None
                    and fault.kind == "truncate-result"
                    and ordinal == fault.after_jobs
                ):
                    handle.write(line[: max(1, len(line) // 2)])
                    handle.flush()
                    os._exit(FAULT_EXIT_TRUNCATED)
                handle.write(line + "\n")
                handle.flush()
                completed += 1
                if progress is not None:
                    progress(f"[{completed}/{len(tasks)}] task {index} done")
    finally:
        stop_heartbeat()
    return completed


def parse_worker_row(line: str) -> dict | None:
    """Decode one output line into a row dict, or ``None`` for damaged
    or foreign lines (a worker killed mid-write, injected corruption).

    Valid rows have an int ``index`` (JSON ``true`` is not one) and
    either a dict ``payload`` (finished) or a dict ``error`` (typed
    deterministic failure)."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict) or type(record.get("index")) is not int:
        return None
    if isinstance(record.get("payload"), dict):
        return {"index": record["index"], "payload": record["payload"]}
    if isinstance(record.get("error"), dict):
        return {"index": record["index"], "error": record["error"]}
    return None


def read_worker_rows(path: str | Path) -> Iterator[dict]:
    """Yield every valid row — results *and* typed failures — from a
    worker output file, skipping damaged lines."""
    path = Path(path)
    if not path.exists():
        return
    for line in path.read_text().split("\n"):
        row = parse_worker_row(line)
        if row is not None:
            yield row
