"""The sweep service: a deduplicating job queue over ``run_sweep``.

:class:`SweepService` owns a bounded queue of sweep records keyed by
content identity (:func:`~repro.obs.sweep_id_for`) and a small pool of
worker threads that drain it through the ordinary orchestrator.  The
HTTP front-end (:mod:`repro.serve.http`) is a thin shell over this
class; tests drive it directly.  :meth:`SweepService.submit` only
accepts; :meth:`SweepService.submit_and_wait` (``POST /sweeps?wait=``)
then blocks on the same wait as a status long-poll, so a short sweep's
submitter gets the answer without a status request.

Dedup and replay semantics:

* Submitting a spec that is already queued or running *attaches* to the
  existing record — no second execution, both submitters poll the same
  sweep id.
* Submitting a spec whose record already completed is a *replay*: the
  service answers from the record (and, transitively, the result
  store) with zero jobs executed — ``executed=0``,
  ``cache_hits=total``, the same digest.  After a service restart the
  record is gone but the store is not: the sweep re-runs and every job
  cache-hits, reporting the same numbers the replay would.
* A failed record re-queues on resubmission, within the queue bound
  like a new sweep (429 past it, and the record stays failed).
* Finished records are capped (:data:`MAX_FINISHED_RECORDS`, oldest
  finished first; queued and running records are never dropped).  A
  resubmitted evicted sweep re-runs with every job a cache hit, exactly
  as after a restart.

Store safety: each worker thread keeps one long-lived
:class:`~repro.exp.ResultStore`, opened on its first sweep (start-up
parses nothing) and brought up to date before every later sweep by
:meth:`~repro.exp.ResultStore.refresh`.  The refresh stats the data
file and, only when its size or inode moved since the last sync, takes
the store's sidecar flock to absorb rows other writers appended or to
reload after another process compacted the file; then it applies the
auto-compaction policy a fresh open would.  Worker threads never share
an in-memory index, and appends from any number of writers stay safe
and visible.  A cached replay therefore costs O(jobs in the request),
not O(rows in the store), and on an unchanged file it takes no lock:
keying each job (shared objects encoded once), one dict lookup per key,
and hashing the rows' canonical texts, which the store encodes once per
row.  It writes no trace; its store block rides on the record instead.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from repro.errors import ReproError
from repro.obs.metrics import ServiceMetrics, fleet_backend_metrics
from repro.serve.protocol import SweepRequest

#: Terminal record states.
DONE_STATES = frozenset({"done", "failed"})

#: Finished (terminal) records kept for status queries and replays.
#: Past it the oldest finished record is forgotten; its results stay in
#: the store.
MAX_FINISHED_RECORDS = 256


@dataclass
class SweepRecord:
    """One sweep the service knows about, keyed by content identity."""

    sweep_id: str
    request: SweepRequest
    total_jobs: int
    state: str = "queued"  # queued | running | done | failed
    submissions: int = 1
    completed: int = 0
    cached_so_far: int = 0
    executed: int = 0
    cache_hits: int = 0
    digest: str | None = None
    error: str | None = None
    trace_path: str | None = None
    #: Per-host fleet metrics of the run (fleet-shaped backends only).
    fleet_hosts: dict | None = None
    #: The run's store block (``SweepMetrics.store``): its own hits,
    #: puts and reconciled rows, and the store's state after it.  Kept
    #: here because a run that executed nothing writes no trace.
    store: dict | None = None
    aggregates: list | None = None
    created_s: float = dc_field(default_factory=time.time)
    finished_s: float | None = None
    #: Structured job events (run_sweep's EventsFn dicts), seq = index.
    events: list = dc_field(default_factory=list)

    def snapshot(self, replay: bool = False) -> dict:
        """JSON-able status view; ``replay=True`` reports the
        zero-execution answer a duplicate submission gets."""
        payload = {
            "sweep_id": self.sweep_id,
            "state": self.state,
            "total_jobs": self.total_jobs,
            "completed": self.completed,
            "executed": 0 if replay else self.executed,
            "cache_hits": self.total_jobs if replay else self.cache_hits,
            "submissions": self.submissions,
            "replay": replay,
            "digest": self.digest,
            "error": self.error,
            "trace_path": self.trace_path,
            "request": self.request.to_payload(),
            "events_seq": len(self.events),
        }
        if self.aggregates is not None:
            payload["aggregates"] = self.aggregates
        if self.fleet_hosts is not None:
            payload["fleet"] = {"hosts": self.fleet_hosts}
        if self.store is not None:
            payload["store"] = self.store
        if self.finished_s is not None:
            payload["elapsed_s"] = round(self.finished_s - self.created_s, 3)
        return payload


class SweepService:
    """Bounded, deduplicating sweep queue with graceful drain.

    Parameters
    ----------
    cache_dir:
        Result-cache directory of the workers' stores (``None`` resolves
        like the CLI: ``$REPRO_CACHE_DIR`` or the default).
    workers:
        Concurrent sweep executions (each is one ``run_sweep`` call;
        parallelism *within* a sweep is the request's ``jobs``/backend).
    queue_limit:
        Maximum queued-not-yet-running sweeps; beyond it submissions
        are rejected (HTTP 429) rather than buffered without bound.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        workers: int = 1,
        queue_limit: int = 8,
    ) -> None:
        from repro.exp import default_cache_dir

        self.cache_dir = Path(
            default_cache_dir() if cache_dir is None else cache_dir
        )
        self.workers = max(1, workers)
        self.queue_limit = max(1, queue_limit)
        self.metrics = ServiceMetrics()
        self._records: dict[str, SweepRecord] = {}
        #: Ids of terminal records, oldest finished first.
        self._finished: OrderedDict[str, None] = OrderedDict()
        self._queue: deque[str] = deque()
        #: Each worker thread's own store (``.store``), opened lazily.
        self._local = threading.local()
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._draining = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SweepService":
        for n in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"sweep-worker-{n}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work, finish what is queued/running.

        Returns ``True`` when everything reached a terminal state
        within ``timeout`` (``None`` waits indefinitely).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            while True:
                busy = bool(self._queue) or any(
                    r.state == "running" for r in self._records.values()
                )
                if not busy:
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining)

    def stop(self, timeout: float | None = 10.0) -> bool:
        """Drain, then terminate the worker threads."""
        drained = self.drain(timeout=timeout)
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        return drained

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission ----------------------------------------------------
    def submit(self, payload: dict) -> tuple[dict, int]:
        """Accept one submission; returns ``(status_payload, http_code)``.

        Codes mirror the HTTP front-end: 202 queued/attached, 200
        replayed-from-store, 400 invalid, 429 queue full, 503 draining.
        """
        with self._cond:
            self.metrics.submissions += 1
            if self._draining:
                self.metrics.rejected += 1
                return {"error": "service is draining"}, 503
        try:
            request = SweepRequest.from_payload(payload)
            spec = request.spec()  # the one validation built
            total = spec.job_count
        except ReproError as exc:
            with self._cond:
                self.metrics.rejected += 1
            return {"error": str(exc)}, 400
        sweep_id = spec.sweep_id
        with self._cond:
            record = self._records.get(sweep_id)
            if record is not None and record.state != "failed":
                record.submissions += 1
                if record.state == "done":
                    self.metrics.replays += 1
                    return record.snapshot(replay=True), 200
                self.metrics.attached += 1
                return record.snapshot(), 202
            # A new sweep and a failed one both join the queue, so both
            # meet its bound; a rejected failed record stays failed.
            if len(self._queue) >= self.queue_limit:
                self.metrics.rejected += 1
                return {"error": "submission queue is full"}, 429
            if record is not None:
                # A failed sweep re-queues: the store kept whatever
                # completed, so the retry resumes from there.
                record.submissions += 1
                record.state = "queued"
                record.error = None
                record.completed = 0
                record.request = request
                del self._finished[sweep_id]
            else:
                record = SweepRecord(
                    sweep_id=sweep_id, request=request, total_jobs=total
                )
                self._records[sweep_id] = record
            self._queue.append(sweep_id)
            self._cond.notify_all()
            return record.snapshot(), 202

    def submit_and_wait(self, payload: dict,
                        wait_s: float) -> tuple[dict, int]:
        """:meth:`submit`, then block up to ``wait_s`` for the accepted
        sweep to reach a terminal state (``POST /sweeps?wait=``).

        A sweep that gets there answers ``(terminal snapshot, 200)``;
        when the wait runs out the submission keeps its own code with
        the latest snapshot.  Answers other than 202 (a replay, a
        rejection) and a ``wait_s`` of 0 return :meth:`submit`'s answer
        at once.  The sweep still runs on a worker thread, and the wait
        is not a status request.
        """
        snapshot, code = self.submit(payload)
        if code != 202 or wait_s <= 0:
            return snapshot, code
        with self._cond:
            record = self._records.get(snapshot["sweep_id"])
            if record is None:  # finished and evicted meanwhile
                return snapshot, code
            self._wait_terminal(record, wait_s)
            if record.state in DONE_STATES:
                return record.snapshot(), 200
            return record.snapshot(), code

    # -- status --------------------------------------------------------
    def status(self, sweep_id: str, wait_s: float = 0.0) -> dict | None:
        """Status snapshot by (prefix of a) sweep id; ``wait_s`` blocks
        until the record is terminal or the wait expires."""
        with self._cond:
            self.metrics.status_requests += 1
            record = self._lookup(sweep_id)
            if record is None:
                return None
            self._wait_terminal(record, wait_s)
            return record.snapshot()

    def _wait_terminal(self, record: SweepRecord, wait_s: float) -> None:
        """Block up to ``wait_s`` until ``record`` is terminal.  Caller
        holds the lock."""
        deadline = time.monotonic() + max(0.0, wait_s)
        while record.state not in DONE_STATES:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._cond.wait(timeout=remaining)

    def list_sweeps(self) -> list[dict]:
        with self._cond:
            return [
                self._records[sid].snapshot()
                for sid in sorted(self._records)
            ]

    def sweep_count(self) -> int:
        """Records currently held (``/healthz``), without snapshots."""
        with self._cond:
            return len(self._records)

    def events_since(self, sweep_id: str, seq: int,
                     wait_s: float = 0.0) -> tuple[list, int, bool] | None:
        """Job events after ``seq`` for one sweep: ``(events, next_seq,
        terminal)``; blocks up to ``wait_s`` for news.  ``None`` for an
        unknown id."""
        deadline = time.monotonic() + max(0.0, wait_s)
        with self._cond:
            record = self._lookup(sweep_id)
            if record is None:
                return None
            while (
                len(record.events) <= seq
                and record.state not in DONE_STATES
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            fresh = list(record.events[seq:])
            return fresh, seq + len(fresh), record.state in DONE_STATES

    def _lookup(self, sweep_id: str) -> SweepRecord | None:
        """Exact match first, then unambiguous prefix (CLI ergonomics)."""
        record = self._records.get(sweep_id)
        if record is not None or not sweep_id:
            return record
        matches = [
            r for sid, r in self._records.items()
            if sid.startswith(sweep_id)
        ]
        return matches[0] if len(matches) == 1 else None

    # -- execution -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if self._stopped and not self._queue:
                    return
                sweep_id = self._queue.popleft()
                record = self._records[sweep_id]
                record.state = "running"
                self._cond.notify_all()
            try:
                self._run(record)
            except BaseException as exc:  # never kill the worker thread
                # The failure may have left this worker's index half
                # updated: the next sweep reopens the store from disk.
                self._local.store = None
                with self._cond:
                    record.state = "failed"
                    record.error = f"{type(exc).__name__}: {exc}"
                    self._finish(record)
                    self.metrics.failed += 1
                    self._cond.notify_all()
            else:
                with self._cond:
                    self._cond.notify_all()

    def _finish(self, record: SweepRecord) -> None:
        """Stamp a record terminal and forget the oldest finished ones
        past :data:`MAX_FINISHED_RECORDS`.  Caller holds the lock."""
        record.finished_s = time.time()
        self._finished[record.sweep_id] = None
        while len(self._finished) > MAX_FINISHED_RECORDS:
            oldest, _ = self._finished.popitem(last=False)
            del self._records[oldest]

    def _worker_store(self):
        """This worker thread's store: opened on its first sweep, then
        refreshed (other writers' rows, external compactions, the
        auto-compaction policy) before every later one."""
        from repro.exp import ResultStore

        store = getattr(self._local, "store", None)
        if store is None:
            store = self._local.store = ResultStore(self.cache_dir)
        else:
            store.refresh()
        return store

    def _run(self, record: SweepRecord) -> None:
        from repro.exp import run_sweep, sweep_digest

        request = record.request
        spec = request.spec()  # the one submit() validated and counted
        store = self._worker_store()

        def on_event(event: dict) -> None:
            with self._cond:
                record.events.append(event)
                record.completed = event.get("completed", record.completed)
                if event.get("cached"):
                    record.cached_so_far += 1
                self._cond.notify_all()

        sweep = run_sweep(
            spec,
            jobs=request.jobs,
            store=store,
            backend=request.build_backend(self.cache_dir),
            hosts=request.hosts,
            telemetry=request.trace,
            events=on_event,
        )
        digest = sweep_digest(sweep)
        fleet = fleet_backend_metrics(sweep.metrics) if sweep.metrics else None
        aggregates = None
        try:
            comparison = sweep.comparison()
            aggregates = [
                {
                    "workload": name,
                    "defense": label,
                    "slowdown_pct": round(
                        comparison.slowdown_pct(label, name), 4
                    ),
                    "alerts_per_trefi": round(
                        comparison.results[label][name].alerts_per_trefi, 6
                    ),
                }
                for name in comparison.workloads
                for label in comparison.results
            ]
        except Exception:
            # Multi-override or baseline-less grids have no single
            # comparison table; the digest is still the full answer.
            aggregates = None
        with self._cond:
            record.state = "done"
            record.executed = sweep.executed
            record.cache_hits = sweep.cache_hits
            record.completed = sweep.total_jobs
            record.digest = digest
            record.trace_path = sweep.trace_path
            record.fleet_hosts = fleet["hosts"] if fleet else None
            record.store = sweep.metrics.store
            record.aggregates = aggregates
            self._finish(record)
            self.metrics.completed += 1
            self._cond.notify_all()
