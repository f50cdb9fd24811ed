"""Per-layer metrics of the traced run, and the map of what they move.

:func:`instrument` wraps each layer's public functions with spans from
outside the program.  :func:`layer_metrics` turns a traced phase into the
``per_layer`` metrics of ``BENCHMARK.json`` (which holds their units).
:data:`LAYER_MAP` records, for each of them, which end-to-end metric on
which workload it should move; ``BENCHMARK.json`` has no field for that,
so it lives here and ``run.py --trace 1`` prints it beside the table.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class LayerMetric:
    name: str
    #: End-to-end metrics this one should move ...
    moves: tuple[str, ...]
    #: ... on these workloads (empty: it moves no end-to-end metric).
    workloads: tuple[str, ...]
    #: Why a metric with no workloads is kept.
    note: str = ""


_SWEEPS = ("sweep-epoch", "sweep-event")
_EPOCH = ("sweep-epoch", "hunt-epoch")
_ALL = ("sweep-epoch", "sweep-event", "hunt-epoch", "replay-serve")
_REPLAY = ("op_ms_p50", "op_ms_p90", "ops_per_s")
#: Cold jobs sit in the tail.
_COLD = ("op_ms_p90", "ops_per_s")


def _m(name, moves, workloads, note=""):
    return LayerMetric(name, tuple(moves), tuple(workloads), note)


_REPEATS = "a simulated count: repeats exactly for a seed"


LAYER_MAP: tuple[LayerMetric, ...] = (
    _m("cli.import_ms", ["setup_s"], _ALL),
    _m("workloads.generate_trace.calls", _COLD, _SWEEPS),
    _m("workloads.generate_trace.self_ms", _COLD, _SWEEPS),
    _m("epoch.simulate.self_ms", ["op_ms_p50", "ops_per_s"], _EPOCH),
    _m("epoch.simulate.cold_ms_p50", _COLD, _EPOCH),
    _m("epoch.simulate.warm_ms_p50", ["op_ms_p50", "ops_per_s"], _EPOCH),
    _m("epoch.dram_reqs_per_s", ["op_ms_p50", "ops_per_s"], _EPOCH),
    _m("event.simulate.self_ms", ["op_ms_p50", "ops_per_s"], ["sweep-event"]),
    _m("event.events_per_s", ["op_ms_p50", "ops_per_s"], ["sweep-event"]),
    _m("core.on_activation.calls", ["op_ms_p50"], ["sweep-epoch"]),
    _m("core.on_activation.self_ms", ["op_ms_p50"], ["sweep-epoch"]),
    _m("core.on_ref.calls", ["op_ms_p90"], ["sweep-epoch"]),
    _m("core.on_ref.self_ms", ["op_ms_p90"], ["sweep-epoch"]),
    _m("core.on_rfm.calls", ["op_ms_p50"], ["hunt-epoch"]),
    _m("core.on_rfm.self_ms", ["op_ms_p50"], ["hunt-epoch"]),
    _m("attacks.build_trace.calls", ["ops_per_s"], ["hunt-epoch"]),
    _m("attacks.build_trace.self_ms", ["ops_per_s"], ["hunt-epoch"]),
    _m("obs.record_request.calls", ["op_ms_p50"], ["hunt-epoch"]),
    _m("obs.telemetry.self_ms", ["op_ms_p50"], ["hunt-epoch"]),
    _m("exp.store.open_ms", _REPLAY, ["replay-serve"]),
    _m("exp.store.rows", _REPLAY, ["replay-serve"]),
    _m("exp.store.hit_ratio", _REPLAY, ["replay-serve"]),
    _m("exp.store.put_ms", ["ops_per_s"], _SWEEPS),
    _m("exp.store.fsync_ms", ["ops_per_s"], _SWEEPS),
    _m("exp.cache_key.self_ms", _REPLAY, ["replay-serve"]),
    _m("exp.result_decode.self_ms", _REPLAY, ["replay-serve"]),
    _m("exp.trace_write.self_ms", _REPLAY, ["replay-serve"]),
    _m("exp.trace_read.self_ms", _REPLAY, ["replay-serve"]),
    _m("exp.run_sweep.self_ms", _REPLAY, ["replay-serve"]),
    _m("serve.submit.self_ms", _REPLAY, ["replay-serve"]),
    _m("serve.queue_wait_ms", _REPLAY, ["replay-serve"]),
    _m("serve.http_ms", _REPLAY, ["replay-serve"]),
    _m("serve.polls_per_req", _REPLAY, ["replay-serve"]),
    _m("sim.acts", [], [], _REPEATS),
    _m("sim.alerts", [], [], _REPEATS),
    _m("sim.refs", [], [], _REPEATS),
    _m("sim.instructions", [], [], _REPEATS),
    _m("trace.overhead_pct", [], [],
       "the tracing cost: traced vs untraced time per op"),
)


def _subclasses(cls) -> set:
    """``cls`` and all of its subclasses."""
    found = {cls}
    for sub in cls.__subclasses__():
        found |= _subclasses(sub)
    return found


def instrument(tracer, stores: list) -> None:
    """Wrap every traced layer; ``stores`` collects each ``ResultStore``
    opened while the wrappers are in place (for its counters)."""
    import repro.attacks.hunt as hunt
    import repro.cli  # noqa: F401 - loads every layer before patching
    import repro.defenses  # noqa: F401 - registers every defense class
    from repro.attacks.registry import AttackWorkload
    from repro.core.defense import BankDefense
    from repro.exp import runner, serialize
    from repro.exp.cache import ResultStore
    from repro.exp.spec import Job
    from repro.obs import metrics as obs_metrics
    from repro.obs.telemetry import Telemetry
    from repro.serve.http import _Handler
    from repro.serve.service import SweepService
    from repro.sim.engines.epoch import EpochEngine
    from repro.sim.engines.event import EventEngine
    from repro.workloads import synthetic

    def engine_attrs(args, kwargs, _result, attrs):
        attrs["workload"] = args[1].name
        attrs["seed"] = kwargs.get("seed", 0)
        attrs["work_units"] = args[0].work_units

    def capture_store(args, _kwargs, _result, _attrs):
        stores.append(args[0])

    tracer.patch_function(synthetic.generate_trace, "workloads.generate_trace")
    tracer.patch_method(EpochEngine, "simulate", "epoch.simulate",
                        on_exit=engine_attrs)
    tracer.patch_method(EventEngine, "simulate", "event.simulate",
                        on_exit=engine_attrs)
    for cls in _subclasses(BankDefense):
        for hook in ("on_activation", "on_ref", "on_rfm"):
            method = cls.__dict__.get(hook)
            if method is None or getattr(method, "__isabstractmethod__",
                                         False):
                continue
            tracer.patch_method(cls, hook, f"core.{hook}", leaf=True)
    tracer.patch_method(AttackWorkload, "build_trace", "attacks.build_trace")
    for hook in ("record_request", "record_blackout", "record_ref",
                 "export"):
        tracer.patch_method(Telemetry, hook, f"obs.{hook}", leaf=True)
    tracer.patch_method(ResultStore, "__init__", "exp.store.open",
                        on_exit=capture_store)
    tracer.patch_method(Job, "cache_key", "exp.cache_key", leaf=True)
    tracer.patch_function(serialize.result_from_dict, "exp.result_decode",
                          leaf=True)
    tracer.patch_function(obs_metrics.write_sweep_trace, "exp.trace_write")
    tracer.patch_function(obs_metrics.read_trace, "exp.trace_read")
    tracer.patch_function(runner.run_sweep, "exp.run_sweep")
    tracer.patch_function(runner.sweep_digest, "exp.sweep_digest")
    tracer.patch_function(hunt.run_hunt, "attacks.run_hunt")
    tracer.patch_method(SweepService, "submit", "serve.submit")
    tracer.patch_method(SweepService, "_run", "serve.run")
    tracer.patch_method(_Handler, "do_POST", "serve.http.post")
    tracer.patch_method(_Handler, "do_GET", "serve.http.get")


@dataclass
class TracedPhase:
    """What :func:`layer_metrics` reads from one traced phase."""

    tracer: object
    clock: object
    #: :func:`store_counters` of the stores the traced phase opened.
    store_counters: dict
    outcomes: list
    #: Replay only: raw client latency (s) and status polls per request.
    client_latency_s: list
    polls: list
    cli_import_ms: float
    overhead_pct: float


def store_counters(stores: list) -> dict:
    """``ResultStore`` counters summed over ``stores`` (rows: the
    largest store)."""
    return {
        "hits": sum(store.hits for store in stores),
        "misses": sum(store.misses for store in stores),
        "rows": max((len(store) for store in stores), default=0),
        "put_s": sum(store.flush_total_s for store in stores),
        "fsync_s": sum(store.fsync_total_s for store in stores),
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _engine_metrics(phase: TracedPhase, span_name: str) -> dict:
    """Calibrated durations of one engine's simulate spans, split into
    cold (first run of a workload trace) and warm, plus throughput."""
    seen = set()
    cold, warm = [], []
    units = 0
    seconds = 0.0
    for span in phase.tracer.named(span_name):
        _id, _name, _parent, _thread, start, end, _child, attrs = span
        duration_s = (end - start) * phase.clock.factor_at(start) / 1e9
        key = (attrs["workload"], attrs["seed"])
        (warm if key in seen else cold).append(duration_s * 1e3)
        seen.add(key)
        units += attrs["work_units"]
        seconds += duration_s
    return {
        "cold_ms_p50": _median(cold),
        "warm_ms_p50": _median(warm),
        "units_per_s": units / seconds if seconds else 0.0,
    }


def _serve_metrics(phase: TracedPhase) -> dict:
    """Queue wait and HTTP overhead per request (one client, so the i-th
    submit, run and client request belong together)."""
    tracer, clock = phase.tracer, phase.clock
    submits = sorted(tracer.named("serve.submit"), key=lambda s: s[4])
    runs = sorted(tracer.named("serve.run"), key=lambda s: s[4])
    run_ids = {span[0] for span in runs}
    sweeps = sorted(
        (s for s in tracer.named("exp.run_sweep") if s[2] in run_ids),
        key=lambda s: s[4],
    )
    waits = [
        (run[4] - submit[5]) * clock.factor_at(submit[5]) / 1e6
        for submit, run in zip(submits, runs)
    ]
    http = []
    for latency_s, sweep, op in zip(phase.client_latency_s, sweeps,
                                    clock.ops()):
        factor = clock.factor(op)
        http.append((latency_s - (sweep[5] - sweep[4]) / 1e9) * factor * 1e3)
    return {
        "queue_wait_ms": statistics.fmean(waits) if waits else 0.0,
        "http_ms": statistics.fmean(http) if http else 0.0,
        "polls_per_req": (statistics.fmean(phase.polls)
                          if phase.polls else 0.0),
    }


def layer_metrics(phase: TracedPhase) -> tuple[dict, dict]:
    """``(metrics, table)``: the per-layer metrics by name, and the full
    calibrated per-span table (calls, total ms, self ms)."""
    clock = phase.clock
    table = phase.tracer.table(clock.factor_at)
    empty = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}

    def row(name):
        return table.get(name, empty)

    epoch = _engine_metrics(phase, "epoch.simulate")
    event = _engine_metrics(phase, "event.simulate")
    serve = _serve_metrics(phase)
    median_factor = clock.factor_at(None)
    counters = phase.store_counters
    hits = counters["hits"]
    lookups = hits + counters["misses"]
    opens = row("exp.store.open")
    metrics = {
        "cli.import_ms": phase.cli_import_ms,
        "workloads.generate_trace.calls":
            row("workloads.generate_trace")["calls"],
        "workloads.generate_trace.self_ms":
            row("workloads.generate_trace")["self_ms"],
        "epoch.simulate.self_ms": row("epoch.simulate")["self_ms"],
        "epoch.simulate.cold_ms_p50": epoch["cold_ms_p50"],
        "epoch.simulate.warm_ms_p50": epoch["warm_ms_p50"],
        "epoch.dram_reqs_per_s": epoch["units_per_s"],
        "event.simulate.self_ms": row("event.simulate")["self_ms"],
        "event.events_per_s": event["units_per_s"],
        "attacks.build_trace.calls": row("attacks.build_trace")["calls"],
        "attacks.build_trace.self_ms": row("attacks.build_trace")["self_ms"],
        "obs.record_request.calls": row("obs.record_request")["calls"],
        "obs.telemetry.self_ms": sum(
            values["self_ms"] for name, values in table.items()
            if name.startswith("obs.")
        ),
        "exp.store.open_ms": (opens["total_ms"] / opens["calls"]
                              if opens["calls"] else 0.0),
        "exp.store.rows": counters["rows"],
        "exp.store.hit_ratio": hits / lookups if lookups else 0.0,
        "exp.store.put_ms": counters["put_s"] * median_factor * 1e3,
        "exp.store.fsync_ms": counters["fsync_s"] * median_factor * 1e3,
        "serve.submit.self_ms": row("serve.submit")["self_ms"],
        "serve.queue_wait_ms": serve["queue_wait_ms"],
        "serve.http_ms": serve["http_ms"],
        "serve.polls_per_req": serve["polls_per_req"],
        "sim.acts": sum(o.result.acts for o in phase.outcomes),
        "sim.alerts": sum(o.result.alerts for o in phase.outcomes),
        "sim.refs": sum(o.result.refs for o in phase.outcomes),
        "sim.instructions": sum(
            o.result.instructions for o in phase.outcomes
        ),
        "trace.overhead_pct": phase.overhead_pct,
    }
    for hook in ("on_activation", "on_ref", "on_rfm"):
        metrics[f"core.{hook}.calls"] = row(f"core.{hook}")["calls"]
        metrics[f"core.{hook}.self_ms"] = row(f"core.{hook}")["self_ms"]
    for name in ("cache_key", "result_decode", "trace_write", "trace_read",
                 "run_sweep"):
        metrics[f"exp.{name}.self_ms"] = row(f"exp.{name}")["self_ms"]
    return metrics, table
