"""Deterministic observability: sim telemetry, sweep metrics, stats surface.

Three layers, one package:

* :mod:`repro.obs.telemetry` — the per-request latency seam threaded
  through the simulation engines (simulated-clock data only; zero
  overhead and byte-identical results when off).
* :mod:`repro.obs.metrics` — ``SweepMetrics`` aggregation plus the
  JSONL sweep-trace writer/reader that lives next to the result cache.
* :mod:`repro.obs.stats` — rendering helpers behind ``repro stats`` and
  ``repro trace``.

Deliberately *not* listed in ``exp.serialize.SIMULATION_SOURCES``:
observability edits must never rotate the simulation code salt and
invalidate caches, which is only sound because telemetry cannot change
simulation results.
"""

from repro.obs.metrics import (
    SWEEP_TRACE_SCHEMA,
    SweepMetrics,
    latest_trace_path,
    list_trace_paths,
    read_trace,
    resolve_trace_path,
    sweep_id_for,
    trace_path_for,
    traces_dir,
    write_sweep_trace,
)
from repro.obs.telemetry import (
    DEFAULT_MAX_SAMPLES,
    NULL_TELEMETRY,
    SAMPLES_LAYOUT,
    TELEMETRY_MAX_SAMPLES_ENV,
    NullTelemetry,
    Telemetry,
    active_telemetry,
    decode_samples,
    max_samples_from_env,
    percentile,
    summarize_latencies,
)

__all__ = [
    "DEFAULT_MAX_SAMPLES",
    "NULL_TELEMETRY",
    "SAMPLES_LAYOUT",
    "SWEEP_TRACE_SCHEMA",
    "TELEMETRY_MAX_SAMPLES_ENV",
    "NullTelemetry",
    "SweepMetrics",
    "Telemetry",
    "active_telemetry",
    "decode_samples",
    "latest_trace_path",
    "list_trace_paths",
    "max_samples_from_env",
    "percentile",
    "read_trace",
    "resolve_trace_path",
    "summarize_latencies",
    "sweep_id_for",
    "trace_path_for",
    "traces_dir",
    "write_sweep_trace",
]
