"""Sweep execution: cache lookup, backend dispatch, aggregation.

:func:`run_sweep` is the orchestrator's entry point.  It expands a
:class:`~repro.exp.spec.SweepSpec`, satisfies whatever it can from the
:class:`~repro.exp.cache.ResultStore`, hands the uncached remainder to a
:class:`~repro.exp.backend.SweepBackend` resolved by name (``serial``,
``pool``, ``remote-fleet``, or anything registered via
:func:`~repro.exp.backend.register_backend`), and returns a
:class:`SweepResult` whose outcomes are always in spec-expansion order.

Determinism: every backend returns results through the same dict
serialization used by the cache, and outcomes are reassembled
positionally, so any backend at any worker count aggregates
byte-identically to a serial in-process run (and to a fully cached
replay).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cpu.system import SystemResult
from repro.errors import ReproError
from repro.exp.backend import SweepBackend, resolve_backend
from repro.exp.cache import ResultStore
from repro.exp.serialize import (
    code_version_salt,
    result_from_dict,
    result_to_dict,
)
from repro.exp.spec import Job, Overrides, SweepSpec, overrides_label
from repro.obs import (
    TELEMETRY_ENV,
    SweepMetrics,
    read_trace,
    sweep_id_for,
    telemetry_from_env,
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

#: Per-job telemetry fields carried between the worker payload, the
#: in-memory result, and the sweep trace file.
_OBS_FIELDS = ("latency", "samples", "samples_total")


def execute_job(job: Job) -> dict:
    """Run one job to completion; returns the serialized result payload.

    Module-level so it pickles cleanly into worker processes.  Every
    backend routes results through this dict form — the single canonical
    representation shared with the cache.

    Telemetry crosses the process boundary through the environment
    (:data:`~repro.obs.TELEMETRY_ENV`, set by ``run_sweep``): when
    enabled, the recorder's export rides as an ``"_obs"`` side channel
    on the payload — *beside* the canonical result fields, never among
    them, so cache rows and aggregate digests stay byte-identical with
    telemetry on or off.
    """
    from repro.sim.runner import simulate_workload

    telemetry = telemetry_from_env()
    result = simulate_workload(
        job.workload, config=job.config, defense=job.defense,
        n_entries=job.n_entries, seed=job.seed, engine=job.engine,
        telemetry=telemetry,
    )
    payload = result_to_dict(result)
    if telemetry is not None:
        payload["_obs"] = telemetry.export()
    return payload


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
        :class:`~repro.exp.backend.SweepBackend`.  ``"auto"`` keeps the
        historical behaviour: in-process for ``jobs=1`` (or when at most
        one job is pending), ``pool`` otherwise.
    hosts:
        Host list for the ``remote-fleet`` backend (``"local"`` spawns
        a plain subprocess); ignored by the others.
    telemetry:
        Record per-request latency telemetry in every executed job
        (enabled across worker processes via
        :data:`~repro.obs.TELEMETRY_ENV`).  Results and cache rows are
        byte-identical either way; the summaries land on each outcome's
        ``result.latency`` and in the sweep trace file.
    events:
        Structured progress hook (:data:`EventsFn`): one dict per
        completed job, emitted alongside the human ``progress`` lines
        and from the same (orchestrating) thread.

    Every run aggregates a :class:`~repro.obs.SweepMetrics` block onto
    the result, and — when a store is present — writes a JSONL sweep
    trace next to the cache (``<cache_dir>/traces/``) for ``repro
    stats`` / ``repro trace``.  Cached jobs carry their telemetry
    forward from the previous trace of the same sweep, so a fully
    cached re-run never erases observed latencies.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    expanded = spec.expand()
    total = len(expanded)
    payloads: list[dict | None] = [None] * total
    cached: list[bool] = [False] * total
    #: Per-index telemetry exports, carried outside the payloads.
    observations: dict[int, dict] = {}
    cached_done = 0
    executed_done = 0

    pending: list[int] = []
    keys: list[str | None] = [None] * total
    for index, job in enumerate(expanded):
        if store is not None:
            keys[index] = job.cache_key()
            payload = store.get(keys[index])
            if payload is not None:
                payloads[index] = payload
                cached[index] = True
                cached_done += 1
                _report(progress, events, cached_done + executed_done,
                        total, index, job, cached=True)
                continue
        pending.append(index)

    def finish(index: int, payload: dict) -> None:
        nonlocal executed_done
        # Telemetry rides beside the canonical payload: strip it before
        # anything durable or digestable sees the dict.
        obs = payload.pop("_obs", None)
        if obs is not None:
            observations[index] = obs
        payloads[index] = payload
        if store is not None:
            assert keys[index] is not None
            # Tag the row with the salt baked into its key, so cache
            # compaction can identify rows stranded by code changes.
            store.put(keys[index], payload, salt=code_version_salt())
        executed_done += 1
        _report(progress, events, cached_done + executed_done, total,
                index, expanded[index], cached=False)

    if backend == "auto" and (jobs == 1 or len(pending) <= 1):
        backend = "serial"
    chosen = resolve_backend(backend, jobs=jobs, hosts=hosts)
    exec_started = time.perf_counter()
    if pending:
        previous_env = os.environ.get(TELEMETRY_ENV)
        if telemetry:
            os.environ[TELEMETRY_ENV] = "1"
        try:
            chosen.execute(
                [(index, expanded[index]) for index in pending],
                execute_job,
                finish,
            )
        finally:
            if telemetry:
                if previous_env is None:
                    os.environ.pop(TELEMETRY_ENV, None)
                else:
                    os.environ[TELEMETRY_ENV] = previous_env
    exec_elapsed = time.perf_counter() - exec_started
    if executed_done != len(pending):
        raise ReproError(
            f"backend {chosen.name!r} finished {executed_done} of "
            f"{len(pending)} pending jobs"
        )

    outcomes = [
        JobOutcome(
            job=job,
            result=result_from_dict(payload),  # type: ignore[arg-type]
            from_cache=was_cached,
        )
        for job, payload, was_cached in zip(expanded, payloads, cached)
    ]
    sweep = SweepResult(
        spec=spec,
        outcomes=outcomes,
        cache_hits=sum(cached),
        executed=len(pending),
        elapsed_s=time.perf_counter() - started,
        backend=chosen.name,
        exec_elapsed_s=exec_elapsed,
    )

    if progress is not None and total:
        # The printed jobs/s is SweepResult.exec_rate itself, so the
        # line can never diverge from the recorded rate.
        rate = (
            f" ({sweep.exec_rate:.2f} jobs/s)"
            if pending and exec_elapsed > 0 else ""
        )
        progress(
            f"{sweep.executed} executed on {chosen.name} in "
            f"{exec_elapsed:.2f}s{rate}, {cached_done} from cache"
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
    for index, obs in observations.items():
        latency = obs.get("latency")
        if latency is not None:
            outcomes[index].result.latency = latency
    if store is not None:
        sweep.trace_path = str(_write_trace(
            store, sweep.metrics, expanded, keys, cached, observations
        ))
    return sweep


def _write_trace(
    store: ResultStore,
    metrics: SweepMetrics,
    expanded: list[Job],
    keys: list[str | None],
    cached: list[bool],
    observations: dict[int, dict],
):
    """Write (or refresh) the sweep's JSONL trace next to the cache.

    Cached jobs re-use the telemetry recorded in the previous trace of
    the same sweep (matched by cache key, so stale observations from an
    older code version are never carried forward): a fully cached
    re-run refreshes the metrics header without erasing latencies.
    Their fields pass through as stored, in either sample layout.  The
    previous trace is read only when some job is cached: after a
    simulator edit every key changes, so none of it could be reused.
    """
    path = trace_path_for(store.directory, metrics.sweep_id)
    previous: dict[str, dict] = {}
    if any(cached) and path.exists():
        previous = {
            row["key"]: row
            for row in read_trace(path)["jobs"]
            if isinstance(row.get("key"), str)
        }
    job_rows = []
    for index, job in enumerate(expanded):
        row: dict = {
            "type": "job",
            "index": index,
            "label": job.label,
            "overrides": overrides_label(job.overrides),
            "key": keys[index],
            "engine": job.engine.label,
            "from_cache": cached[index],
        }
        obs = observations.get(index)
        if obs is None and cached[index]:
            obs = previous.get(keys[index])
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
