"""Sweep/backend metrics and the JSONL sweep-trace files.

A sweep run aggregates its operational counters — jobs executed vs
cached, backend wall time and throughput, per-backend internals
(``pool`` workers and chunks; ``remote-fleet`` per-host jobs, retries,
migrations and quarantines), store flush/compaction latencies — into
one :class:`SweepMetrics` block attached to the
:class:`~repro.exp.runner.SweepResult`.

When the sweep has a cache, the same block plus the per-job telemetry
(latency summaries and capped request samples) is written as a JSONL
*trace file* under ``<cache_dir>/traces/``, named by the sweep's
content identity so re-running the same spec updates the same file.
Line 1 is the header (``type: "sweep"``), every following line is one
job (``type: "job"``) in spec-expansion order.

Schema-2 job rows carry their ``samples`` as the packed sample field of
:func:`~repro.obs.telemetry.pack_samples` (base64 columns, inline in
the row: one file keeps the write a single atomic rename).  Schema-1
rows carried the same samples as a list of ``[arrive, latency,
is_write, core]`` rows; they still load, and a cached re-run carries
them forward unchanged, so one file may hold both layouts.
:func:`~repro.obs.telemetry.decode_samples` reads either.

NOTE this module must not import :mod:`repro.exp` at module scope: the
controller imports :mod:`repro.obs`, which would close an import cycle
through ``exp.serialize`` → ``cpu.system`` → controller.  The one spec
hash lives behind a lazy import instead.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Bump when the trace-file layout changes; readers stay tolerant.
SWEEP_TRACE_SCHEMA = 2

#: Subdirectory of the result-cache directory holding trace files.
TRACE_DIR_NAME = "traces"


@dataclass
class SweepMetrics:
    """Operational metrics of one sweep run (JSON-able)."""

    #: Content identity of the sweep spec (not salted by code version:
    #: the same grid keeps the same trace file across simulator edits).
    sweep_id: str
    backend: str
    total_jobs: int
    executed: int
    cache_hits: int
    elapsed_s: float
    exec_elapsed_s: float
    #: Executed jobs per second of backend wall time — by construction
    #: the same value :attr:`SweepResult.exec_rate` reports.
    exec_rate: float
    #: Whether sim-level telemetry was enabled for the executed jobs.
    telemetry: bool = False
    #: Backend-specific counters (workers, chunks, per-host retries...).
    backend_metrics: dict = field(default_factory=dict)
    #: Store health taken after the sweep, with this sweep's counters
    #: (:meth:`~repro.exp.cache.ResultStore.sweep_health`); ``None`` for
    #: storeless runs.
    store: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepMetrics":
        known = {f for f in cls.__dataclass_fields__}  # tolerant reader
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class ServiceMetrics:
    """Request-level counters of one sweep-service process (JSON-able).

    The service front-end (:mod:`repro.serve`) increments these per
    HTTP request and reports them at ``GET /healthz``; per-sweep
    operational metrics stay in :class:`SweepMetrics` (and the trace
    files), keyed by sweep-id as everywhere else.
    """

    submissions: int = 0
    #: Submissions answered straight from a completed record / the
    #: result store — the "near-free repeated query" path.
    replays: int = 0
    #: Submissions coalesced onto an already queued/running sweep.
    attached: int = 0
    completed: int = 0
    failed: int = 0
    #: Submissions refused (draining, queue full, invalid spec).
    rejected: int = 0
    status_requests: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def fleet_backend_metrics(metrics: "dict | SweepMetrics") -> dict | None:
    """The fleet-shaped slice of a sweep's backend metrics, or ``None``.

    A backend is fleet-shaped when it reports a per-host dict of dicts
    under ``"hosts"`` (``remote-fleet`` does) — the shape ``repro
    fleet status`` and the stats fleet section render.  Free-form
    scalar backend metrics stay untouched in the generic
    ``backend.*`` rows.
    """
    if isinstance(metrics, SweepMetrics):
        backend = metrics.backend_metrics or {}
    else:
        backend = metrics.get("backend_metrics") or {}
    hosts = backend.get("hosts")
    if not isinstance(hosts, dict) or not hosts:
        return None
    if not all(isinstance(entry, dict) for entry in hosts.values()):
        return None
    return backend


def sweep_id_for(spec) -> str:
    """Content identity of a :class:`~repro.exp.spec.SweepSpec`.

    Everything that shapes the grid — workloads, defenses, overrides,
    config, n_entries, seed, engine — but *not* the code-version salt:
    trace files should survive simulator edits, unlike cache rows.
    """
    import hashlib

    from repro.exp.serialize import canonical_json

    identity = {
        "workloads": [w.name for w in spec.workloads],
        "defenses": [d.to_dict() for d in spec.defenses],
        "overrides": spec.overrides,
        "config": spec.config,
        "include_baseline": spec.include_baseline,
        "n_entries": spec.n_entries,
        "seed": spec.seed,
        "engine": spec.engine.to_dict(),
    }
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


def traces_dir(cache_dir: str | Path) -> Path:
    return Path(cache_dir) / TRACE_DIR_NAME


def trace_path_for(cache_dir: str | Path, sweep_id: str) -> Path:
    """Canonical trace-file path for one sweep identity."""
    return traces_dir(cache_dir) / f"sweep-{sweep_id[:12]}.jsonl"


def write_sweep_trace(
    path: str | Path, metrics: SweepMetrics, job_rows: list[dict]
) -> Path:
    """Write one sweep's trace file atomically (header + job lines).

    ``job_rows`` are ``type: "job"`` dicts in spec-expansion order.  The
    write goes through a same-directory temp file and an atomic rename,
    so a concurrently reading ``repro stats`` never sees a torn file.
    The temp file's name is unique per write: two writers of one trace
    (the service and a ``repro sweep`` of the same grid on one cache
    dir) each rename their own complete file, and the last one wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "type": "sweep",
        "schema": SWEEP_TRACE_SCHEMA,
        "sweep_id": metrics.sweep_id,
        "metrics": metrics.to_dict(),
    }
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with tmp.open("x", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for row in job_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_trace(path: str | Path) -> dict:
    """Load one trace file: ``{"header": ..., "jobs": [...]}``.

    Tolerant of unknown line types (future schema growth) and of
    damaged lines (a crashed writer), which are skipped.
    """
    header: dict | None = None
    jobs: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(row, dict):
                continue
            kind = row.get("type")
            if kind == "sweep" and header is None:
                header = row
            elif kind == "job":
                jobs.append(row)
    if header is None:
        header = {"type": "sweep", "schema": 0, "sweep_id": "?", "metrics": {}}
    return {"header": header, "jobs": jobs}


def list_trace_paths(cache_dir: str | Path) -> list[Path]:
    """Trace files under a cache directory, most recent last."""
    directory = traces_dir(cache_dir)
    if not directory.is_dir():
        return []
    return sorted(
        directory.glob("sweep-*.jsonl"),
        key=lambda p: (p.stat().st_mtime, p.name),
    )


def latest_trace_path(cache_dir: str | Path) -> Path | None:
    paths = list_trace_paths(cache_dir)
    return paths[-1] if paths else None


def resolve_trace_path(cache_dir: str | Path, selector: str | None) -> Path:
    """Resolve a CLI selector to a trace file.

    ``None`` or ``"latest"`` picks the most recently written trace; a
    (prefix of a) sweep id picks by name; an existing file path is used
    as-is.  Raises ``FileNotFoundError`` with the available choices.
    """
    if selector and Path(selector).is_file():
        return Path(selector)
    if selector in (None, "latest"):
        latest = latest_trace_path(cache_dir)
        if latest is None:
            raise FileNotFoundError(
                f"no sweep traces under {traces_dir(cache_dir)} "
                "(run a sweep with --trace first)"
            )
        return latest
    for path in list_trace_paths(cache_dir):
        if path.stem.removeprefix("sweep-").startswith(selector):
            return path
    known = ", ".join(
        p.stem.removeprefix("sweep-") for p in list_trace_paths(cache_dir)
    ) or "(none)"
    raise FileNotFoundError(
        f"no sweep trace matching {selector!r}; known traces: {known}"
    )
