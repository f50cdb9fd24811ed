"""Sweep execution: cache lookup, backend dispatch, aggregation.

:func:`run_batch` is the one cached batch loop, behind workload sweeps
(:func:`run_sweep`) and bandwidth-attack jobs
(:func:`~repro.exp.attack.run_attack_jobs`).  It satisfies whatever it
can from the :class:`~repro.exp.cache.ResultStore`, hands the uncached
remainder to a :class:`~repro.exp.backend.SweepBackend` resolved by name
(``serial``, ``pool``, ``remote-fleet``, or anything registered via
:func:`~repro.exp.backend.register_backend`), and persists every fresh
row.  :func:`run_sweep` returns a :class:`SweepResult` whose outcomes
are always in spec-expansion order.

Determinism: every backend returns results through the same dict
serialization used by the cache, and outcomes are reassembled
positionally, so any backend at any worker count aggregates
byte-identically to a serial in-process run (and to a fully cached
replay).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cpu.system import SystemResult
from repro.errors import ReproError
from repro.exp.backend import RunOneFn, SweepBackend, resolve_backend
from repro.exp.cache import ResultStore
from repro.exp.serialize import (
    code_version_salt,
    result_from_dict,
    result_to_dict,
)
from repro.exp.spec import Job, Overrides, SweepSpec, overrides_label
from repro.obs import (
    SweepMetrics,
    Telemetry,
    max_samples_from_env,
    read_trace,
    sweep_id_for,
    trace_path_for,
    write_sweep_trace,
)

ProgressFn = Callable[[str], None]

#: Structured progress hook: receives one JSON-able dict per completed
#: job (``{"type": "job", "index", "label", "cached", "completed",
#: "total"}``), called from the orchestrating process/thread in
#: completion order.  The machine-readable twin of ``progress`` — the
#: sweep service streams these to HTTP clients.
EventsFn = Callable[[dict], None]

#: :func:`run_batch`'s per-task hook: ``(completed, index, cached)``,
#: where ``completed`` is a monotonic done-count (tasks finish out of
#: submission order under parallel dispatch).
ReportFn = Callable[[int, int, bool], None]

#: Per-job telemetry fields carried between the worker payload, the
#: in-memory result, and the sweep trace file.
_OBS_FIELDS = ("latency", "samples", "samples_total")


def execute_job(job: Job, telemetry: bool = False) -> dict:
    """Run one job to completion; returns the serialized result payload.

    Module-level so it pickles cleanly into worker processes, bare or
    bound as ``functools.partial(execute_job, telemetry=True)``.  Every
    backend routes results through this dict form — the single
    canonical representation shared with the cache.

    With ``telemetry``, a recorder observes the run, its export capped
    at :func:`~repro.obs.max_samples_from_env` of the process that runs
    the job, and the export rides as an ``"_obs"`` side channel on the
    payload — *beside* the canonical result fields, never among them,
    so cache rows and aggregate digests stay byte-identical with
    telemetry on or off.
    """
    from repro.sim.runner import simulate_workload

    recorder = (
        Telemetry(max_samples=max_samples_from_env()) if telemetry else None
    )
    result = simulate_workload(
        job.workload, config=job.config, defense=job.defense,
        n_entries=job.n_entries, seed=job.seed, engine=job.engine,
        telemetry=recorder,
    )
    payload = result_to_dict(result)
    if recorder is not None:
        payload["_obs"] = recorder.export()
    return payload


@dataclass
class BatchRun:
    """What :func:`run_batch` did, per task in task order."""

    payloads: list[dict]
    cached: list[bool]
    #: Cache key per task (``None`` when the batch ran without a store).
    keys: list[str | None]
    #: Telemetry by index: executed tasks' ``"_obs"`` exports
    #: (``run_sweep`` adds the rows it carries for cached jobs).
    observations: dict[int, dict]
    #: The backend that ran the uncached remainder, and its wall time.
    backend: SweepBackend
    exec_elapsed_s: float

    @property
    def executed(self) -> int:
        return len(self.cached) - sum(self.cached)


def run_batch(
    tasks: Sequence,
    run_one: RunOneFn,
    store: ResultStore | None,
    backend: str | SweepBackend,
    jobs: int,
    hosts: Sequence[str] | None,
    report: ReportFn,
) -> BatchRun:
    """Run cacheable tasks: one lookup → dispatch → put loop.

    Each task (anything with a ``cache_key()``) is looked up in
    ``store``, and cached tasks are reported first, in task order.  The
    pending rest runs through ``run_one`` on ``backend``, resolved with
    the pending count (so ``"auto"`` stays in process for one task).
    Each fresh payload loses its ``"_obs"`` side channel, is persisted
    the moment it arrives (an interrupted batch resumes from the store)
    and is reported once.  Raises :class:`ReproError` when the backend
    does not finish every pending task.
    """
    total = len(tasks)
    payloads: list = [None] * total
    cached = [False] * total
    keys: list[str | None] = [None] * total
    observations: dict[int, dict] = {}
    completed = 0
    pending: list[int] = []
    for index, task in enumerate(tasks):
        if store is not None:
            keys[index] = task.cache_key()
            payloads[index] = store.get(keys[index])
            if payloads[index] is not None:
                cached[index] = True
                completed += 1
                report(completed, index, True)
                continue
        pending.append(index)

    def finish(index: int, payload: dict) -> None:
        nonlocal completed
        # Telemetry rides beside the canonical payload: strip it before
        # anything durable or digestable sees the dict.
        obs = payload.pop("_obs", None)
        if obs is not None:
            observations[index] = obs
        payloads[index] = payload
        if store is not None:
            # Tag the row with the salt baked into its key, so cache
            # compaction can identify rows stranded by code changes.
            store.put(keys[index], payload, salt=code_version_salt())
        completed += 1
        report(completed, index, False)

    chosen = resolve_backend(backend, jobs, hosts, pending=len(pending))
    started = time.perf_counter()
    if pending:
        chosen.execute(
            [(index, tasks[index]) for index in pending], run_one, finish
        )
    elapsed = time.perf_counter() - started
    executed = completed - (total - len(pending))
    if executed != len(pending):
        raise ReproError(
            f"backend {chosen.name!r} finished {executed} of "
            f"{len(pending)} pending jobs"
        )
    return BatchRun(payloads, cached, keys, observations, chosen, elapsed)


@dataclass
class JobOutcome:
    """One finished job: where its result came from and what it was."""

    job: Job
    result: SystemResult
    from_cache: bool


@dataclass
class SweepResult:
    """All outcomes of one sweep, in spec-expansion order."""

    spec: SweepSpec
    outcomes: list[JobOutcome]
    cache_hits: int
    executed: int
    elapsed_s: float
    #: Name of the backend that ran the uncached remainder.
    backend: str = "serial"
    #: Wall time spent inside the backend (cache scanning excluded), so
    #: throughput numbers never credit cached jobs to the backend.
    exec_elapsed_s: float = 0.0
    #: Operational metrics of this run (:class:`~repro.obs.SweepMetrics`).
    metrics: SweepMetrics | None = None
    #: Path of the JSONL sweep trace written next to the cache
    #: (``None`` for storeless runs).
    trace_path: str | None = None

    @property
    def total_jobs(self) -> int:
        return len(self.outcomes)

    @property
    def exec_rate(self) -> float:
        """Honest backend throughput: executed jobs per second of
        backend wall time; 0.0 when nothing was executed."""
        if self.executed == 0 or self.exec_elapsed_s <= 0:
            return 0.0
        return self.executed / self.exec_elapsed_s

    def baselines(self) -> dict[str, SystemResult]:
        """Baseline runs by workload (shared across all override sets)."""
        return {
            o.job.workload.name: o.result
            for o in self.outcomes
            if o.job.defense.is_baseline
        }

    def results_by_variant(
        self, overrides: Overrides = ()
    ) -> dict[str, dict[str, SystemResult]]:
        """``{defense_label: {workload: result}}`` for one override set."""
        table: dict[str, dict[str, SystemResult]] = {}
        for outcome in self.outcomes:
            if outcome.job.overrides != overrides:
                continue
            per_workload = table.setdefault(outcome.job.defense.label, {})
            per_workload[outcome.job.workload.name] = outcome.result
        if not table:
            raise ReproError(
                f"no results for override set {overrides_label(overrides)!r}"
            )
        return table

    def comparison(self, overrides: Overrides | None = None):
        """Reconstitute a :class:`~repro.sim.runner.VariantComparison`.

        ``overrides=None`` resolves to the spec's only override set (the
        common case); multi-set sweeps must name one.
        """
        from repro.exp.aggregate import comparison_from_sweep

        return comparison_from_sweep(self, overrides=overrides)


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    store: ResultStore | None = None,
    progress: ProgressFn | None = None,
    backend: str | SweepBackend = "auto",
    hosts: Sequence[str] | None = None,
    telemetry: bool = False,
    events: EventsFn | None = None,
) -> SweepResult:
    """Execute a sweep, reusing cached results where available.

    Parameters
    ----------
    jobs:
        Worker processes for the multi-process backends.  ``1`` (the
        default, under ``backend="auto"``) runs everything in process.
    store:
        Result cache.  ``None`` disables caching entirely: every job is
        simulated and nothing is persisted.
    progress:
        Callback receiving one human-readable line per completed job,
        plus a final line summarising executed-vs-cached throughput.
    backend:
        Execution backend, by registry name or as a built
        :class:`~repro.exp.backend.SweepBackend`.  ``"auto"`` runs in
        process for ``jobs=1`` (or when at most one job is pending) and
        on ``pool`` otherwise.
    hosts:
        Host list for the ``remote-fleet`` backend (``"local"`` spawns
        a plain subprocess); ignored by the others.
    telemetry:
        Record per-request latency telemetry in every executed job: the
        backend runs ``execute_job`` with ``telemetry=True`` bound, so
        the switch travels with each task into any worker.  Results and
        cache rows are byte-identical either way; the summaries land on
        each outcome's ``result.latency`` and in the sweep trace file.
    events:
        Structured progress hook (:data:`EventsFn`): one dict per
        completed job, emitted alongside the human ``progress`` lines
        and from the same (orchestrating) thread.

    Every run aggregates a :class:`~repro.obs.SweepMetrics` block onto
    the result, and — when a store is present — writes a JSONL sweep
    trace next to the cache (``<cache_dir>/traces/``) for ``repro
    stats`` / ``repro trace``.  Cached jobs carry their telemetry
    forward from the previous trace of the same sweep, onto their
    ``result.latency`` and into the new trace, so a fully cached re-run
    never erases observed latencies.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    expanded = spec.expand()
    total = len(expanded)

    def report(completed: int, index: int, cached: bool) -> None:
        _report(progress, events, completed, total, index, expanded[index],
                cached)

    run_one = (
        functools.partial(execute_job, telemetry=True) if telemetry
        else execute_job
    )
    batch = run_batch(expanded, run_one, store, backend, jobs, hosts, report)
    outcomes = [
        JobOutcome(job=job, result=result_from_dict(payload),
                   from_cache=was_cached)
        for job, payload, was_cached in zip(
            expanded, batch.payloads, batch.cached
        )
    ]
    chosen = batch.backend
    exec_elapsed = batch.exec_elapsed_s
    sweep = SweepResult(
        spec=spec,
        outcomes=outcomes,
        cache_hits=sum(batch.cached),
        executed=batch.executed,
        elapsed_s=time.perf_counter() - started,
        backend=chosen.name,
        exec_elapsed_s=exec_elapsed,
    )

    if progress is not None and total:
        # The printed jobs/s is SweepResult.exec_rate itself, so the
        # line can never diverge from the recorded rate.
        rate = (
            f" ({sweep.exec_rate:.2f} jobs/s)"
            if sweep.executed and exec_elapsed > 0 else ""
        )
        progress(
            f"{sweep.executed} executed on {chosen.name} in "
            f"{exec_elapsed:.2f}s{rate}, {sweep.cache_hits} from cache"
        )

    sweep.metrics = SweepMetrics(
        sweep_id=sweep_id_for(spec),
        backend=chosen.name,
        total_jobs=total,
        executed=sweep.executed,
        cache_hits=sweep.cache_hits,
        elapsed_s=sweep.elapsed_s,
        exec_elapsed_s=exec_elapsed,
        exec_rate=sweep.exec_rate,
        telemetry=bool(telemetry),
        backend_metrics=dict(getattr(chosen, "metrics", {}) or {}),
        store=store.sweep_health() if store is not None else None,
    )
    if store is not None:
        path = trace_path_for(store.directory, sweep.metrics.sweep_id)
        batch.observations.update(_carried_rows(path, batch))
        sweep.trace_path = str(
            _write_trace(path, sweep.metrics, expanded, batch)
        )
    for index, obs in batch.observations.items():
        if isinstance(obs.get("latency"), dict):
            outcomes[index].result.latency = obs["latency"]
    return sweep


def _carried_rows(path, batch: BatchRun) -> dict[int, dict]:
    """Cached jobs' rows in the previous trace of the same sweep.

    Matched by cache key, so stale observations from an older code
    version are never carried forward.  The previous trace is read only
    when some job is cached: after a simulator edit every key changes,
    so none of it could be reused.
    """
    if not any(batch.cached) or not path.exists():
        return {}
    previous = {
        row["key"]: row
        for row in read_trace(path)["jobs"]
        if isinstance(row.get("key"), str)
    }
    return {
        index: previous[key]
        for index, key in enumerate(batch.keys)
        if batch.cached[index] and key in previous
    }


def _write_trace(path, metrics: SweepMetrics, expanded: list[Job],
                 batch: BatchRun):
    """Write (or refresh) the sweep's JSONL trace next to the cache.

    Each job's telemetry fields come from ``batch.observations``: the
    worker's export for an executed job, the previous trace's row for a
    cached one, passed through as stored, in either sample layout.
    """
    job_rows = []
    for index, job in enumerate(expanded):
        row: dict = {
            "type": "job",
            "index": index,
            "label": job.label,
            "overrides": overrides_label(job.overrides),
            "key": batch.keys[index],
            "engine": job.engine.label,
            "from_cache": batch.cached[index],
        }
        obs = batch.observations.get(index)
        if obs:
            for field_name in _OBS_FIELDS:
                if obs.get(field_name) is not None:
                    row[field_name] = obs[field_name]
        job_rows.append(row)
    return write_sweep_trace(path, metrics, job_rows)


def sweep_digest(sweep: SweepResult) -> str:
    """Byte-stable sha256 of the full aggregate (every outcome payload,
    in spec-expansion order) — the equivalence probe behind ``repro
    sweep --print-digest``, the CI backend-equivalence job, and the
    sweep service's completion report.  Identical across backends,
    engines' cached replays, and worker counts by construction."""
    import hashlib

    from repro.exp.serialize import canonical_json, result_to_dict

    return hashlib.sha256(canonical_json(
        [result_to_dict(o.result) for o in sweep.outcomes]
    ).encode()).hexdigest()


def stderr_progress(line: str) -> None:
    """Default CLI progress sink (stderr keeps stdout machine-readable)."""
    print(line, file=sys.stderr)


def _report(
    progress: ProgressFn | None, events: EventsFn | None, completed: int,
    total: int, index: int, job: Job, cached: bool,
) -> None:
    """Emit one progress line and/or one structured event; ``completed``
    is a monotonic done-count (jobs finish out of submission order under
    parallel dispatch)."""
    if events is not None:
        events({
            "type": "job",
            "index": index,
            "label": job.label,
            "cached": cached,
            "completed": completed,
            "total": total,
        })
    if progress is None:
        return
    tag = overrides_label(job.overrides)
    source = "cached" if cached else "simulated"
    progress(f"[{completed}/{total}] {job.label} ({tag}) {source}")
