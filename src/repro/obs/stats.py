"""Rendering for ``repro stats`` and ``repro trace``.

Both subcommands read the JSONL sweep traces written by
:func:`repro.exp.runner.run_sweep` next to the result cache:
``repro stats`` summarises one sweep — operational metrics, backend
internals, store health, and per-job latency percentiles — while
``repro trace`` dumps the capped per-request samples of one job.

Trace files are outside input, so a job row with a bad value never
stops either command: a latency block ``repro stats`` cannot use
renders as ``-``, and samples that do not decode render as
``<label>: samples unreadable`` while the other jobs still print.

Kept out of :mod:`repro.obs`'s package ``__init__`` on purpose: the
simulation controller imports the package, and rendering must never be
on the hot path's import chain.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.report import render_table
from repro.obs.metrics import fleet_backend_metrics
from repro.obs.telemetry import decode_samples, is_number


def format_ns(value) -> str:
    """Human-scale simulated-time duration (ns are the native unit)."""
    if value is None:
        return "-"
    value = float(value)
    if value >= 1e9:
        return f"{value / 1e9:.2f}s"
    if value >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.2f}us"
    return f"{value:.0f}ns"


def _metric_rows(metrics: dict) -> list[list[object]]:
    rows: list[list[object]] = [
        ["backend", metrics.get("backend", "?")],
        ["jobs", metrics.get("total_jobs", "?")],
        ["executed", metrics.get("executed", "?")],
        ["cache hits", metrics.get("cache_hits", "?")],
        ["elapsed (s)", round(float(metrics.get("elapsed_s", 0.0)), 3)],
        ["backend wall (s)",
         round(float(metrics.get("exec_elapsed_s", 0.0)), 3)],
        ["exec rate (jobs/s)",
         round(float(metrics.get("exec_rate", 0.0)), 2)],
        ["telemetry", "on" if metrics.get("telemetry") else "off"],
    ]
    for key, value in sorted(
        (metrics.get("backend_metrics") or {}).items()
    ):
        if key == "hosts" and isinstance(value, dict):
            continue  # rendered as the per-host fleet table
        if isinstance(value, float):
            value = round(value, 3)
        elif isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        rows.append([f"backend.{key}", value])
    return rows


#: Column order of the per-host fleet table (stats and fleet status).
FLEET_HOST_COLUMNS = [
    "host", "status", "slots", "jobs", "dispatches", "failures",
    "quarantines", "note",
]


def _fleet_host_rows(fleet: dict) -> list[list[object]]:
    """Per-host rows from fleet-shaped backend metrics; absent fields
    render as ``-``."""
    rows = []
    hosts = fleet.get("hosts") or {}
    for hid in sorted(hosts):
        entry = hosts[hid] or {}
        note = entry.get("reason") or ""
        probe = entry.get("probe") or {}
        if not note and probe:
            note = f"py {probe.get('python')}, {probe.get('cpus')} cpu(s)"
        rows.append([
            hid,
            entry.get("status", "-"),
            entry.get("slots", "-"),
            entry.get("jobs", "-"),
            entry.get("dispatches", "-"),
            entry.get("failures", "-"),
            entry.get("quarantines", "-"),
            note or "-",
        ])
    return rows


def _fleet_counter_rows(fleet: dict) -> list[list[object]]:
    rows: list[list[object]] = []
    for key in (
        "tasks", "probes", "retries", "migrations", "quarantines", "wall_s"
    ):
        if key in fleet:
            value = fleet[key]
            rows.append([
                key, round(value, 3) if isinstance(value, float) else value,
            ])
    for key in ("fallback", "faults_fired"):
        value = fleet.get(key)
        if value:
            rows.append([key, json.dumps(value, sort_keys=True)])
    return rows


def render_fleet_status(trace: dict, path: str | Path | None = None) -> str:
    """``repro fleet status`` output: the per-host and fleet-wide
    supervision counters of one sweep trace."""
    header = trace.get("header") or {}
    metrics = header.get("metrics") or {}
    sweep_id = str(header.get("sweep_id", "?"))
    title = f"Fleet status: sweep {sweep_id[:12]}"
    if path is not None:
        title += f" ({path})"
    fleet = fleet_backend_metrics(metrics)
    if fleet is None:
        return (
            f"{title}\nbackend {metrics.get('backend', '?')!r} reported "
            "no per-host fleet metrics (run the sweep with --backend "
            "remote-fleet)"
        )
    return "\n\n".join([
        render_table(title, FLEET_HOST_COLUMNS, _fleet_host_rows(fleet)),
        render_table(
            "Fleet counters", ["metric", "value"], _fleet_counter_rows(fleet)
        ),
    ])


def _store_rows(store: dict) -> list[list[object]]:
    flush = store.get("flush") or {}
    compaction = store.get("compaction") or {}
    rows = [
        ["path", store.get("path", "?")],
        ["size (bytes)", store.get("size_bytes", 0)],
        ["live entries", store.get("live_keys", 0)],
        ["dead records", store.get("dead_records", 0)],
        ["stale entries", store.get("stale_records", 0)],
        ["damaged lines", store.get("damaged_lines", 0)],
        ["hits / misses",
         f"{store.get('hits', 0)} / {store.get('misses', 0)}"],
        ["flushes",
         f"{flush.get('count', 0)} "
         f"({flush.get('total_s', 0.0):.3f}s total, "
         f"{flush.get('max_s', 0.0):.3f}s max)"],
        ["fsyncs",
         f"{flush.get('fsync_count', 0)} "
         f"({flush.get('fsync_total_s', 0.0):.3f}s total, "
         f"{flush.get('fsync_max_s', 0.0):.3f}s max)"],
        ["compactions",
         f"{compaction.get('count', 0)} "
         f"(auto {store.get('auto_compactions', 0)})"],
        ["last compaction (s)",
         "-" if compaction.get("last_s") is None
         else round(compaction["last_s"], 3)],
    ]
    if store.get("reconciled_records"):
        rows.append(["reconciled records", store["reconciled_records"]])
    spool = store.get("spool")
    if spool is not None:
        rows.append([
            "fleet spool",
            f"{spool.get('dirs', 0)} dir(s), {spool.get('files', 0)} "
            f"file(s), {spool.get('bytes', 0)} bytes",
        ])
    return rows


def _usable_latency(latency) -> dict | None:
    """A job's latency block if ``repro stats`` can render it, else
    ``None``: its percentiles must be numbers (or absent) and its
    blackouts a dict of dicts with numeric counts."""
    if not isinstance(latency, dict):
        return None
    for key in ("p50_ns", "p95_ns", "p99_ns", "max_ns"):
        value = latency.get(key)
        if value is not None and not is_number(value):
            return None
    blackouts = latency.get("blackouts") or {}
    if not isinstance(blackouts, dict) or not all(
        isinstance(b, dict) and is_number(b.get("count", 0))
        for b in blackouts.values()
    ):
        return None
    return latency


def _latency_rows(
    jobs: list[dict], latencies: list[dict | None]
) -> list[list[object]]:
    rows = []
    for job, latency in zip(jobs, latencies):
        latency = latency or {}
        blackouts = latency.get("blackouts") or {}
        rows.append([
            job.get("label", "?"),
            job.get("engine", "?"),
            "cache" if job.get("from_cache") else "run",
            latency.get("count", "-"),
            format_ns(latency.get("p50_ns")),
            format_ns(latency.get("p95_ns")),
            format_ns(latency.get("p99_ns")),
            format_ns(latency.get("max_ns")),
            sum(b.get("count", 0) for b in blackouts.values()) or "-",
            latency.get("psq_high_water", "-") if latency else "-",
        ])
    return rows


def render_stats(trace: dict, path: str | Path | None = None) -> str:
    """Full ``repro stats`` output for one parsed trace."""
    header = trace.get("header") or {}
    metrics = header.get("metrics") or {}
    jobs = trace.get("jobs") or []
    sweep_id = str(header.get("sweep_id", "?"))
    title = f"Sweep {sweep_id[:12]}"
    if path is not None:
        title += f" ({path})"
    sections = [
        render_table(title, ["metric", "value"], _metric_rows(metrics)),
    ]
    store = metrics.get("store")
    if store:
        sections.append(render_table(
            "Store health", ["metric", "value"], _store_rows(store)
        ))
    fleet = fleet_backend_metrics(metrics)
    if fleet is not None:
        sections.append(render_table(
            "Fleet hosts", FLEET_HOST_COLUMNS, _fleet_host_rows(fleet)
        ))
    latencies = [_usable_latency(job.get("latency")) for job in jobs]
    sections.append(render_table(
        "Per-job request latency (simulated time)",
        ["job", "engine", "source", "requests", "p50", "p95", "p99",
         "max", "blackouts", "psq hw"],
        _latency_rows(jobs, latencies),
    ))
    observed = sum(1 for latency in latencies if latency)
    if observed < len(jobs):
        sections.append(
            f"{len(jobs) - observed} of {len(jobs)} job(s) have no "
            "telemetry (run the sweep with --trace to record it)"
        )
    return "\n\n".join(sections)


def render_trace(
    trace: dict, job: str | None = None, limit: int = 20,
    path: str | Path | None = None,
) -> str:
    """``repro trace`` output: per-request samples of the matching jobs.

    ``job`` filters by label substring; ``limit`` caps the printed
    samples per job (the recorder itself caps what it stores — the
    footer reports both truncations).
    """
    jobs = trace.get("jobs") or []
    if job is not None:
        jobs = [j for j in jobs if job in str(j.get("label", ""))]
        if not jobs:
            known = ", ".join(
                str(j.get("label", "?"))
                for j in (trace.get("jobs") or [])
            ) or "(none)"
            return f"no job matching {job!r}; jobs in trace: {known}"
    sections = []
    for row in jobs:
        label = row.get("label", "?")
        try:
            samples = decode_samples(row.get("samples") or [])
        except ValueError:
            sections.append(f"{label}: samples unreadable")
            continue
        if not samples:
            sections.append(f"{label}: no recorded samples")
            continue
        body = [
            [format_ns(arrive), format_ns(latency),
             "write" if is_write else "read",
             "-" if core is None else core]
            for arrive, latency, is_write, core in samples[:limit]
        ]
        table = render_table(
            f"{label} ({row.get('engine', '?')})",
            ["arrive", "latency", "op", "core"],
            body,
        )
        total = row.get("samples_total")
        if not isinstance(total, int):
            total = len(samples)
        if len(samples) > limit or total > len(samples):
            table += (
                f"\n({min(limit, len(samples))} of {total} requests shown; "
                f"{len(samples)} stored in the trace)"
            )
        sections.append(table)
    return "\n\n".join(sections)
