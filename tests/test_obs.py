"""Tests for the deterministic telemetry tier (:mod:`repro.obs`).

The tier's core promise is *observability without perturbation*: golden
digests, cache rows and backend-equivalence aggregates must be
byte-identical with telemetry on or off, the seam must cost nothing
when disabled, and everything recorded is keyed to the simulated clock
so traces are reproducible.
"""

from __future__ import annotations

import base64
import copy
import hashlib
import json
import math
import re
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_determinism_golden import (
    GOLDEN_DEFENSE_HASHES,
    needs_golden_env,
    result_digest,
)

from repro.exp import ResultStore, SweepBackend, SweepSpec, run_sweep
from repro.obs import (
    SAMPLES_LAYOUT,
    SweepMetrics,
    Telemetry,
    decode_samples,
    percentile,
    read_trace,
    resolve_trace_path,
    summarize_latencies,
    sweep_id_for,
    trace_path_for,
)
from repro.obs.stats import render_stats, render_trace
from repro.sim import simulate_workload


# ----------------------------------------------------------------------
# Percentile math and the recorder itself
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
    assert percentile(values, 0.50) == 50.0
    assert percentile(values, 0.95) == 100.0
    assert percentile(values, 0.99) == 100.0
    assert percentile(values, 0.0) == 10.0
    assert percentile([42.0], 0.5) == 42.0


def test_summarize_latencies_empty():
    summary = summarize_latencies([])
    assert summary["count"] == 0
    assert summary["p50_ns"] == 0.0
    assert summary["histogram"] == []


def test_summarize_latencies_fields_and_histogram():
    summary = summarize_latencies([15.0, 100.0, 100.0, 5000.0])
    assert summary["count"] == 4
    assert summary["p50_ns"] == 100.0
    assert summary["max_ns"] == 5000.0
    assert summary["mean_ns"] == pytest.approx(1303.75)
    total_binned = sum(count for _, count in summary["histogram"])
    assert total_binned == 4


_REFERENCE_EDGES = tuple(float(1 << exp) for exp in range(4, 21))


def _reference_summarize_latencies(latencies):
    """The pure-Python summary the vectorized one replaced."""
    values = sorted(latencies)
    count = len(values)
    if not count:
        return {
            "count": 0, "mean_ns": 0.0, "p50_ns": 0.0, "p95_ns": 0.0,
            "p99_ns": 0.0, "max_ns": 0.0, "histogram": [],
        }
    buckets = {}
    edges = _REFERENCE_EDGES
    for value in values:
        for edge in edges:
            if value <= edge:
                buckets[edge] = buckets.get(edge, 0) + 1
                break
        else:
            buckets[None] = buckets.get(None, 0) + 1
    histogram = [
        [edge, buckets[edge]] for edge in edges if edge in buckets
    ]
    if None in buckets:
        histogram.append([None, buckets[None]])
    return {
        "count": count,
        "mean_ns": sum(values) / count,
        "p50_ns": percentile(values, 0.50),
        "p95_ns": percentile(values, 0.95),
        "p99_ns": percentile(values, 0.99),
        "max_ns": values[-1],
        "histogram": histogram,
    }


_EDGE_VALUES = [
    neighbour
    for exp in range(0, 24)
    for neighbour in (
        math.nextafter(2.0 ** exp, 0.0), 2.0 ** exp,
        math.nextafter(2.0 ** exp, math.inf),
    )
]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from(_EDGE_VALUES),
            st.floats(min_value=2.0 ** 20, max_value=1e12),
            st.floats(min_value=-50.0, max_value=5e6, allow_nan=False),
        ),
        max_size=80,
    ),
    repeat=st.integers(1, 3),
    as_generator=st.booleans(),
)
@example(values=[], repeat=1, as_generator=True)
@example(values=[0.0, -0.0, 0.0, -0.0], repeat=1, as_generator=False)
@example(values=[2.0 ** 20 + 1.0, 1.0, 16.0, 17.0], repeat=3,
         as_generator=True)
def test_summarize_latencies_matches_reference(values, repeat, as_generator):
    """The vectorized summary is value- and repr-identical to the
    reference on values on and beside every log2 edge, above the last
    edge, duplicated, signed zeros, empty input, and generator input."""
    values = values * repeat
    got = summarize_latencies(
        (v for v in values) if as_generator else values
    )
    want = _reference_summarize_latencies(values)
    assert got == want
    assert repr(got) == repr(want)


#: (engine, target, defense) cells of the latency pin, at
#: LATENCY_PIN_ENTRIES entries and seed 0: benign workloads, two
#: Alert-raising attack patterns (their sample counts pass the default
#: export cap) and one event-engine cell.
LATENCY_PIN_CELLS = (
    ("epoch", {"workload": "429.mcf"}, "qprac"),
    ("epoch", {"workload": "541.leela"}, "qprac+proactive"),
    ("epoch", {"workload": "470.lbm"}, "moat"),
    ("epoch", {"attack": "many-sided:sides=8"}, "qprac"),
    ("epoch", {"attack": "double-sided:pairs=6"}, "moat"),
    ("event", {"workload": "429.mcf"}, "qprac"),
)
LATENCY_PIN_ENTRIES = 4000
#: sha256 over each cell's ``result.latency`` plus ``Telemetry.export()``
#: with its samples decoded back to schema-1 ``[arrive, latency,
#: is_write, core]`` rows (sorted-key JSON, in cell order), recorded
#: under the golden environment before the summary was vectorized and
#: before the samples were packed.
LATENCY_PIN = (
    "10384e1432e2e10181bf06d8fc921455728066921246dc1dc5a46b94f2fb275a"
)


@needs_golden_env
def test_latency_summaries_and_exports_match_pin():
    digest = hashlib.sha256()
    for engine, target, defense in LATENCY_PIN_CELLS:
        recorder = Telemetry()
        result = simulate_workload(
            **target, defense=defense, n_entries=LATENCY_PIN_ENTRIES,
            seed=0, engine=engine, telemetry=recorder,
        )
        export = recorder.export()
        export["samples"] = decode_samples(export["samples"])
        digest.update(json.dumps(
            {"latency": result.latency, "export": export},
            sort_keys=True,
        ).encode())
    assert digest.hexdigest() == LATENCY_PIN


def test_summary_dicts_never_alias():
    recorder = Telemetry()
    for i in range(5):
        recorder.record_request(0.0, 20.0 * (i + 1), False, 0)
    first = recorder.summary_dict()
    first["histogram"][0][1] = -1
    first["p50_ns"] = -1.0
    assert recorder.export()["latency"] == recorder.summary_dict()
    assert recorder.summary_dict()["p50_ns"] == 60.0
    assert recorder.summary_dict()["histogram"] == [
        [32.0, 1], [64.0, 2], [128.0, 2],
    ]
    # A grown population is summarized afresh.
    recorder.record_request(0.0, 1e7, True, 1)
    assert recorder.summary_dict()["count"] == 6
    assert recorder.summary_dict()["max_ns"] == 1e7


@pytest.mark.parametrize("engine", ["event", "epoch"])
def test_one_latency_summary_per_telemetry_job(engine, monkeypatch,
                                               tmp_path):
    """The engine's summary and the worker's export of one job share a
    single ``summarize_latencies`` pass."""
    import repro.obs.telemetry as telemetry_module

    calls = []
    real = telemetry_module.summarize_latencies

    def spy(latencies):
        calls.append(len(latencies))
        return real(latencies)

    monkeypatch.setattr(telemetry_module, "summarize_latencies", spy)
    spec = SweepSpec.build(
        ["541.leela", "429.mcf"], ["qprac", "moat"], n_entries=400,
        engine=engine,
    )
    sweep = run_sweep(spec, store=ResultStore(tmp_path), telemetry=True)
    assert sweep.executed == len(sweep.outcomes) > 2
    assert len(calls) == sweep.executed
    assert all(o.result.latency["count"] > 0 for o in sweep.outcomes)


def test_telemetry_sample_cap_keeps_full_percentiles():
    recorder = Telemetry(max_samples=3)
    for i in range(10):
        recorder.record_request(float(i), float(i) + 50.0, False, 0)
    export = recorder.export()
    assert export["samples"]["n"] == 3
    assert decode_samples(export["samples"]) == [
        [0.0, 50.0, False, 0], [1.0, 50.0, False, 0], [2.0, 50.0, False, 0],
    ]
    assert export["samples_total"] == 10
    assert export["latency"]["count"] == 10  # percentiles see every request


# ----------------------------------------------------------------------
# Non-perturbation: digests identical with telemetry on and off
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["event", "epoch"])
def test_digest_identical_with_telemetry_on_and_off(engine):
    off = simulate_workload(
        "429.mcf", defense="qprac", n_entries=1000, engine=engine
    )
    recorder = Telemetry()
    on = simulate_workload(
        "429.mcf", defense="qprac", n_entries=1000, engine=engine,
        telemetry=recorder,
    )
    assert result_digest(off) == result_digest(on)
    assert off.latency is None
    assert on.latency is not None and on.latency["count"] > 0
    assert recorder.latencies  # the recorder actually saw the requests


@needs_golden_env
@pytest.mark.parametrize("defense", sorted(GOLDEN_DEFENSE_HASHES))
def test_golden_hashes_hold_with_telemetry_enabled(defense):
    """The strongest non-perturbation claim: every pinned defense digest
    is reproduced byte-for-byte *while the recorder is on*."""
    result = simulate_workload(
        "429.mcf", defense=defense, n_entries=2000, seed=0,
        telemetry=Telemetry(),
    )
    assert result_digest(result) == GOLDEN_DEFENSE_HASHES[defense]
    assert result.latency is not None


#: sha256 of ``canonical_json(result_to_dict(r))`` for every registered
#: defense on both engines (429.mcf, 600 entries, seed 0), pinned before
#: ``result_to_dict`` stopped going through ``dataclasses.asdict``.
PINNED_RESULT_DIGESTS = {
    ("baseline", "event"):
        "48a1dc00c8ab53bf76e9156b8360526ed512a5d85e0d4391bc9d0691ac06dacc",
    ("qprac", "event"):
        "05c00d27aa376c981a01b40b624999beedd66196e70c350ec6853f310b28a8f1",
    ("qprac-noop", "event"):
        "3c1bba9e74d22495c7dfa920d90632d205aca394674a7468a5cc9ddcff765ffa",
    ("qprac+proactive", "event"):
        "cf6fc2e053eab886d5ca8acaa9ae464087af7fcc9313abe1580e7f78ac2aa61a",
    ("qprac+proactive-ea", "event"):
        "0675afb74e7272a0b1fae79e52cf354e7d3f63a04be634df7c403f22c1b6489b",
    ("qprac-ideal", "event"):
        "6e041b2fe6a5d56059e97bc1292322fefa29c73f453af2ce02d20a7e70c0fd78",
    ("moat", "event"):
        "4685452abc027babf3a73bb044a319aa29d52ce94d6f882ced156a0f1070b4f3",
    ("panopticon", "event"):
        "f66b0ee078c63570f64facb99997432be462319598414e2df7f8fb74ad6f0c91",
    ("pride:t_rh=256", "event"):
        "85611eefe686fae107ce478332902577c78c4771ad41ada5215610bc1112d415",
    ("mithril:t_rh=256", "event"):
        "363d508c438b895bd4fc80b2af8e4290e42462191f3cefd81053949f27983a25",
    ("uprac", "event"):
        "959e4a688d499f0af5c54d1e0d35b8864631cad17e5b7e67507f3866b301304a",
    ("baseline", "epoch"):
        "d2e8a91fb5e0230ade818c385e95e3d27b63784e4f8979e4cccc43591a2c2680",
    ("qprac", "epoch"):
        "0f015aa0df94abf779aa5047a420f7e76aaa5719d37291f777c23913ce2f6c22",
    ("qprac-noop", "epoch"):
        "a6e0713d08d0a30174d61cf57eafc244833e2508f6a5a52cfbab42565bb0e253",
    ("qprac+proactive", "epoch"):
        "0ef1681fbb2ffbfb973b2ef3460adb80a6a3fc9c97d5eb792f7b25fbdbb4f8da",
    ("qprac+proactive-ea", "epoch"):
        "ec6df729c9c97355f70aae5a3e6aa5f5b9b4bf4f7490aee2a2f9b4db33c80cad",
    ("qprac-ideal", "epoch"):
        "b3f4a6189fc7b1a548da2274bee181af93d96e1ed91daf1a474c5bdee4864086",
    ("moat", "epoch"):
        "07dcece73a1f9b718ff66cd482c6b350a46d3c3561c85d958e76bb76c1598a23",
    ("panopticon", "epoch"):
        "4ae8ffce6937ac08165fe4f396cb0c933bfd708131b28078510ad477cb4cdc35",
    ("pride:t_rh=256", "epoch"):
        "898f33e0faa9dcfc77abe215246b91c0587e3bcdc8ef7d83894b0e386aea7b9d",
    ("mithril:t_rh=256", "epoch"):
        "cfa02118f0cd717998987bfff82a2638714edae947726199db466b5c439b4f64",
    ("uprac", "epoch"):
        "b21650a4df6b64a8ed06932f602d5f34cae791540c0cb8e2d2c38ea23c3f5a63",
}


def test_result_digest_pins_cover_every_registered_defense():
    from repro.defenses import registered_defenses

    pinned = {name.split(":")[0] for name, _engine in PINNED_RESULT_DIGESTS}
    assert pinned == {entry.name for entry in registered_defenses()}


@needs_golden_env
@pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
@pytest.mark.parametrize(
    "defense,engine", sorted(PINNED_RESULT_DIGESTS), ids=lambda v: str(v)
)
def test_result_digests_are_pinned(defense, engine, telemetry):
    """The serialized result, latency summary populated or not, hashes
    to the digest pinned for its defense and engine."""
    result = simulate_workload(
        "429.mcf", defense=defense, n_entries=600, seed=0, engine=engine,
        telemetry=Telemetry() if telemetry else None,
    )
    assert (result.latency is not None) is telemetry
    assert result_digest(result) == PINNED_RESULT_DIGESTS[(defense, engine)]


# ----------------------------------------------------------------------
# Event vs epoch: same requests, equivalent latency distributions
# ----------------------------------------------------------------------
def test_engines_agree_on_latency_percentiles_within_tolerance():
    """Both engines must observe the *same request population* on the
    reference cell (exact count equality — every LLC miss plus
    writebacks exists in both), and their latency percentiles must
    agree within the epoch engine's documented approximation: the epoch
    engine replays tREFI chunks against precomputed bank availability,
    which smooths queueing spikes, so tail percentiles sit below the
    event engine's (measured on this cell: p50 ~1.1x, p95 ~1.9x,
    p99 ~1.3x apart).  Bounds mirror ``slowdown_within_tolerance`` in
    test_engines.py: generous enough to be stable, tight enough that a
    broken latency definition (wrong arrival anchor, dropped
    writebacks) fails immediately."""
    summaries = {}
    for engine in ("event", "epoch"):
        result = simulate_workload(
            "429.mcf", defense="qprac", n_entries=2000, engine=engine,
            telemetry=Telemetry(),
        )
        summaries[engine] = result.latency
    event, epoch = summaries["event"], summaries["epoch"]
    assert event["count"] == epoch["count"]
    assert 0.5 <= event["p50_ns"] / epoch["p50_ns"] <= 2.0
    for key in ("p95_ns", "p99_ns"):
        assert 0.25 <= event[key] / epoch[key] <= 4.0
    # Both engines drain the same REF schedule and sample PSQ occupancy
    # at the same observation point (after the on-REF drain).
    assert event["blackouts"]["ref"]["count"] > 0
    assert epoch["blackouts"]["ref"]["count"] > 0
    assert event["psq_high_water"] == epoch["psq_high_water"]


# ----------------------------------------------------------------------
# Sweep integration: traces, carry-forward, byte-identical aggregates
# ----------------------------------------------------------------------
def _tiny_spec():
    return SweepSpec.build(
        ["541.leela"], ["qprac"], n_entries=400,
    )


def _aggregate(sweep) -> str:
    from repro.exp import canonical_json, result_to_dict

    return canonical_json(
        [result_to_dict(o.result) for o in sweep.outcomes]
    )


def test_sweep_aggregate_identical_with_telemetry(tmp_path):
    plain = run_sweep(_tiny_spec(), store=ResultStore(tmp_path / "off"))
    observed = run_sweep(
        _tiny_spec(), store=ResultStore(tmp_path / "on"), telemetry=True
    )
    assert _aggregate(plain) == _aggregate(observed)
    # Cache rows are byte-identical too: telemetry rides beside the
    # payload, never inside it.
    rows = lambda d: sorted((d / "results.jsonl").read_text().splitlines())
    assert rows(tmp_path / "off") == rows(tmp_path / "on")
    for outcome in observed.outcomes:
        assert outcome.result.latency is not None
    for outcome in plain.outcomes:
        assert outcome.result.latency is None


def test_sweep_writes_trace_with_metrics(tmp_path):
    store = ResultStore(tmp_path)
    sweep = run_sweep(_tiny_spec(), store=store, telemetry=True)
    assert sweep.metrics is not None
    assert sweep.metrics.sweep_id == sweep_id_for(_tiny_spec())
    assert sweep.metrics.executed == sweep.total_jobs
    assert sweep.metrics.telemetry is True
    assert sweep.metrics.exec_rate == pytest.approx(sweep.exec_rate)
    assert sweep.metrics.store["live_keys"] == sweep.total_jobs
    assert sweep.trace_path == str(
        trace_path_for(store.directory, sweep.metrics.sweep_id)
    )
    trace = read_trace(sweep.trace_path)
    assert trace["header"]["sweep_id"] == sweep.metrics.sweep_id
    assert len(trace["jobs"]) == sweep.total_jobs
    assert trace["header"]["schema"] == 2
    for row in trace["jobs"]:
        assert row["from_cache"] is False
        assert row["latency"]["count"] > 0
        assert row["samples"]["layout"] == SAMPLES_LAYOUT
        assert len(decode_samples(row["samples"])) == row["samples_total"]


def test_cached_rerun_carries_telemetry_forward(tmp_path):
    store = ResultStore(tmp_path)
    first = run_sweep(_tiny_spec(), store=store, telemetry=True)
    rendered = render_trace(read_trace(first.trace_path), limit=10**6)
    path = Path(first.trace_path)
    before = (path.read_bytes(), path.stat().st_mtime_ns)
    replay = run_sweep(_tiny_spec(), store=ResultStore(tmp_path))
    assert replay.cache_hits == replay.total_jobs
    assert replay.metrics.telemetry is False
    # A run that simulated nothing leaves the cold run's trace as it is
    # and reports it; its outcomes still carry the observed latencies.
    assert replay.trace_path == first.trace_path
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    trace = read_trace(replay.trace_path)
    for row, outcome in zip(trace["jobs"], replay.outcomes, strict=True):
        assert outcome.from_cache is True
        assert row["latency"]["count"] > 0
        assert outcome.result.latency["count"] > 0
    assert render_trace(trace, limit=10**6) == rendered


def test_cached_outcomes_carry_the_cold_runs_latency(tmp_path):
    """``run_sweep`` sets a cached outcome's ``result.latency`` from the
    previous trace: a warm run hands back what the cold run observed."""
    cold = run_sweep(_tiny_spec(), store=ResultStore(tmp_path),
                     telemetry=True)
    warm = run_sweep(_tiny_spec(), store=ResultStore(tmp_path))
    assert warm.cache_hits == warm.total_jobs
    latencies = [o.result.latency for o in warm.outcomes]
    assert all(latency for latency in latencies)
    assert latencies == [o.result.latency for o in cold.outcomes]


class _ParkedSerial(SweepBackend):
    """Serial execution that first parks inside :meth:`execute` until
    released, so one sweep is provably mid-run while another starts or
    finishes on another thread (``repro serve --workers N``)."""

    name = "parked-serial"

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def execute(self, tasks, run_one, emit) -> None:
        self.entered.set()
        assert self.release.wait(timeout=60)
        for index, obj in tasks:
            emit(index, run_one(obj))


def _start_parked(telemetry: bool):
    """A ``run_sweep`` on its own thread, returned once it is parked in
    its backend: ``(backend, thread, box)``, the sweep lands in box."""
    backend = _ParkedSerial()
    box: dict = {}
    thread = threading.Thread(target=lambda: box.update(sweep=run_sweep(
        _tiny_spec(), backend=backend, telemetry=telemetry,
    )))
    thread.start()
    assert backend.entered.wait(timeout=60)
    return backend, thread, box


def test_untraced_sweep_records_nothing_beside_a_traced_one():
    traced, thread, box = _start_parked(telemetry=True)
    try:
        plain = run_sweep(_tiny_spec(), telemetry=False)
    finally:
        traced.release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert all(o.result.latency is None for o in plain.outcomes)
    assert all(o.result.latency is not None for o in box["sweep"].outcomes)


def test_traced_sweep_keeps_telemetry_when_another_finishes_first():
    first, first_thread, _ = _start_parked(telemetry=True)
    second, second_thread, box = _start_parked(telemetry=True)
    first.release.set()
    first_thread.join(timeout=60)
    second.release.set()
    second_thread.join(timeout=60)
    assert not first_thread.is_alive() and not second_thread.is_alive()
    assert all(o.result.latency is not None for o in box["sweep"].outcomes)


def test_storeless_sweep_still_aggregates_metrics():
    sweep = run_sweep(_tiny_spec(), store=None, telemetry=True)
    assert sweep.trace_path is None
    assert sweep.metrics.store is None
    assert sweep.metrics.backend == "serial"
    assert all(o.result.latency is not None for o in sweep.outcomes)


def test_final_progress_line_reports_exec_rate(tmp_path):
    lines: list[str] = []
    sweep = run_sweep(
        _tiny_spec(), store=ResultStore(tmp_path), progress=lines.append
    )
    match = re.search(r"\(([\d.]+) jobs/s\)", lines[-1])
    assert match is not None
    assert match.group(1) == f"{sweep.exec_rate:.2f}"


def test_fleet_backend_metrics_reads_the_field_not_a_copy(monkeypatch):
    """The fleet slice of a SweepMetrics comes from ``backend_metrics``
    itself; the dict form (a trace header) gives the same answer."""
    from repro.obs.metrics import fleet_backend_metrics

    hosts = {"local": {"status": "ok", "dispatches": 2}}
    metrics = SweepMetrics(
        sweep_id="cd" * 32, backend="remote-fleet", total_jobs=2,
        executed=2, cache_hits=0, elapsed_s=1.0, exec_elapsed_s=1.0,
        exec_rate=2.0, backend_metrics={"hosts": hosts, "migrations": 0},
        store={"live_keys": 2},
    )
    as_dict = metrics.to_dict()

    def no_copy(self):
        raise AssertionError("the whole block was copied")

    monkeypatch.setattr(SweepMetrics, "to_dict", no_copy)
    assert fleet_backend_metrics(metrics) == {"hosts": hosts, "migrations": 0}
    assert fleet_backend_metrics(as_dict) == fleet_backend_metrics(metrics)
    plain = SweepMetrics(
        sweep_id="ef" * 32, backend="serial", total_jobs=1, executed=1,
        cache_hits=0, elapsed_s=1.0, exec_elapsed_s=1.0, exec_rate=1.0,
    )
    assert fleet_backend_metrics(plain) is None


def test_pool_backend_metrics(tmp_path):
    spec = SweepSpec.build(
        ["541.leela", "mb-adpcm"], ["qprac"], n_entries=400,
    )
    sweep = run_sweep(
        spec, jobs=2, store=ResultStore(tmp_path), backend="pool",
        telemetry=True,
    )
    metrics = sweep.metrics.backend_metrics
    assert metrics["workers"] == 2
    assert metrics["tasks"] == sweep.executed == 4
    assert metrics["chunks"] == 4 and metrics["chunk_size"] == 1
    assert metrics["wall_s"] > 0.0
    # Telemetry crossed the process boundary: workers recorded samples.
    trace = read_trace(sweep.trace_path)
    assert all(row["latency"]["count"] > 0 for row in trace["jobs"])


def test_store_health_counters(tmp_path):
    store = ResultStore(tmp_path)
    health = store.health()
    assert health["live_keys"] == 0
    assert health["flush"]["count"] == 0
    store.put("k1", {"v": 1}, salt="s")
    store.put("k1", {"v": 2}, salt="s")
    health = store.health()
    assert health["flush"]["count"] == 2
    assert health["flush"]["total_s"] >= health["flush"]["max_s"] > 0.0
    assert health["live_keys"] == 1
    assert health["dead_records"] == 1
    assert health["compaction"]["last_s"] is None
    store.compact()
    health = store.health()
    assert health["compaction"]["count"] == 1
    assert health["compaction"]["last_s"] > 0.0
    assert health["dead_records"] == 0


def test_concurrent_trace_writers_never_collide(tmp_path):
    """Two writers of one sweep's trace (the service and a CLI sweep of
    the same grid) each write a temp file of their own: neither rename
    loses its file to the other, and no temp file is left behind."""
    import threading

    from repro.obs import SweepMetrics, write_sweep_trace

    metrics = SweepMetrics(
        sweep_id="ab" * 32, backend="serial", total_jobs=64, executed=64,
        cache_hits=0, elapsed_s=1.0, exec_elapsed_s=1.0, exec_rate=64.0,
    )
    rows = [{"type": "job", "index": i, "label": f"job-{i}"}
            for i in range(64)]
    path = trace_path_for(tmp_path, metrics.sweep_id)
    errors: list[BaseException] = []

    def rewrite() -> None:
        try:
            for _ in range(30):
                write_sweep_trace(path, metrics, rows)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    writers = [threading.Thread(target=rewrite) for _ in range(2)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60.0)
        assert not writer.is_alive()
    assert errors == []
    trace = read_trace(path)
    assert trace["header"]["sweep_id"] == metrics.sweep_id
    assert len(trace["jobs"]) == len(rows)
    assert sorted(path.parent.iterdir()) == [path]


def test_sweep_health_reports_each_sweep_alone(tmp_path):
    store = ResultStore(tmp_path)
    first = run_sweep(_tiny_spec(), store=store).metrics.store
    assert (first["hits"], first["misses"]) == (0, 2)
    assert first["flush"]["count"] == 2
    again = run_sweep(_tiny_spec(), store=store).metrics.store
    assert (again["hits"], again["misses"]) == (2, 0)
    assert again["flush"]["count"] == 0
    assert again["flush"]["max_s"] == 0.0
    # The instance attributes stay lifetime totals.
    assert (store.hits, store.misses, store.flush_count) == (2, 2, 2)
    assert store.health()["hits"] == 2


def test_sweep_id_ignores_code_version(tmp_path):
    """Trace identity is pure spec content — unlike cache keys, it must
    survive simulator edits so trajectories accumulate in one file."""
    assert sweep_id_for(_tiny_spec()) == sweep_id_for(_tiny_spec())
    other = SweepSpec.build(["541.leela"], ["qprac"], n_entries=500)
    assert sweep_id_for(other) != sweep_id_for(_tiny_spec())


def test_resolve_trace_path_selectors(tmp_path):
    store = ResultStore(tmp_path)
    sweep = run_sweep(_tiny_spec(), store=store, telemetry=True)
    sweep_id = sweep.metrics.sweep_id
    assert str(resolve_trace_path(tmp_path, None)) == sweep.trace_path
    assert str(resolve_trace_path(tmp_path, "latest")) == sweep.trace_path
    assert str(resolve_trace_path(tmp_path, sweep_id[:6])) == sweep.trace_path
    assert str(resolve_trace_path(tmp_path, sweep.trace_path)) \
        == sweep.trace_path
    with pytest.raises(FileNotFoundError):
        resolve_trace_path(tmp_path, "deadbeef")
    with pytest.raises(FileNotFoundError):
        resolve_trace_path(tmp_path / "empty", None)


# ----------------------------------------------------------------------
# Packed samples: the codec, exact rendering, damaged rows, carry-forward
# ----------------------------------------------------------------------
#: Floats a column must carry bit-exactly: signed zeros, subnormals,
#: the float64 extremes and integers past 2**52.
_SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
    2.0 ** 52, 2.0 ** 52 + 1.0, 2.0 ** 53 + 2.0, 2.0 ** 70 + 2.0 ** 20,
    1.7976931348623157e308, -1.7976931348623157e308,
]
_TIMES = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
_REQUESTS = st.lists(
    st.tuples(
        _TIMES, _TIMES, st.one_of(st.booleans(), st.integers(0, 3)),
        st.one_of(st.none(), st.integers(0, 32767)),
    ),
    max_size=40,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(requests=_REQUESTS, max_samples=st.integers(0, 50))
@example(requests=[], max_samples=0)
@example(requests=[(1.0, 2.0, True, 0)] * 4, max_samples=0)
@example(requests=[(0.0, -0.0, True, None)], max_samples=1)
@example(requests=[(2.0 ** 60, 5e-324, 1, 3)] * 3, max_samples=3)
@example(requests=[(-0.0, 0.0, False, None)] * 5, max_samples=3)
def test_packed_samples_decode_to_the_schema1_rows(requests, max_samples):
    """Decoding the packed field gives, ``repr`` for ``repr``, the rows
    the list-per-request recorder exported: ``[arrive, done - arrive,
    bool(is_write), core]`` for the first ``max_samples`` requests."""
    recorder = Telemetry(max_samples=max_samples)
    for arrive, done, is_write, core in requests:
        recorder.record_request(arrive, done, is_write, core)
    want = [
        [arrive, done - arrive, bool(is_write), core]
        for arrive, done, is_write, core in requests[:max_samples]
    ]
    export = json.loads(json.dumps(recorder.export()))
    assert export["samples"]["n"] == len(want)
    assert export["samples_total"] == len(requests)
    assert repr(decode_samples(export["samples"])) == repr(want)
    # The decoder returns schema-1 rows as they are.
    assert decode_samples(want) is want


#: sha256 over ``render_trace`` at limits 20 and 1e6 of the traced
#: sweeps in :func:`_render_pin_traces`, recorded under the golden
#: environment on the list-per-request recorder, before the samples
#: were packed.
RENDER_TRACE_PIN = (
    "f3a19164093e2ced2d022c9f98841b76fecb9866efa11fd9563a8e0c85eb267d"
)


def _render_pin_traces(tmp_path, monkeypatch):
    """A traced epoch sweep at the default sample cap, then a traced
    event sweep capped at 64 samples per job (so the footer reports
    the stored-vs-total truncation)."""
    cells = (
        ("epoch", ["541.leela", "429.mcf"], None),
        ("event", ["541.leela"], "64"),
    )
    for engine, workloads, cap in cells:
        if cap is None:
            monkeypatch.delenv("REPRO_TELEMETRY_MAX_SAMPLES", raising=False)
        else:
            monkeypatch.setenv("REPRO_TELEMETRY_MAX_SAMPLES", cap)
        spec = SweepSpec.build(
            workloads, ["qprac", "moat"], n_entries=400, engine=engine,
        )
        sweep = run_sweep(
            spec, store=ResultStore(tmp_path / engine), telemetry=True,
        )
        yield read_trace(sweep.trace_path)


@needs_golden_env
def test_render_trace_matches_pin(tmp_path, monkeypatch):
    digest = hashlib.sha256()
    for trace in _render_pin_traces(tmp_path, monkeypatch):
        for limit in (20, 1_000_000):
            digest.update(render_trace(trace, limit=limit).encode())
    assert digest.hexdigest() == RENDER_TRACE_PIN


def _intact_trace() -> dict:
    """A small well-formed trace: two jobs with packed samples, two
    with schema-1 rows, a core of ``None`` and capped samples."""
    jobs = []
    for index in range(4):
        recorder = Telemetry(max_samples=6)
        for i in range(8 + index):
            recorder.record_request(
                100.0 * i, 100.0 * i + 40.0 + 7.5 * index * i, i % 3 == 0,
                None if index == 3 else i % 2,
            )
        recorder.record_blackout(0.0, 350.0, "abo")
        export = recorder.export()
        if index % 2:
            export["samples"] = decode_samples(export["samples"])
        jobs.append({
            "type": "job", "index": index, "label": f"w{index}/qprac",
            "engine": "epoch", "from_cache": bool(index % 2),
            "key": f"k{index}", **export,
        })
    metrics = SweepMetrics(
        sweep_id="ab" * 32, backend="serial", total_jobs=4, executed=2,
        cache_hits=2, elapsed_s=1.0, exec_elapsed_s=0.5, exec_rate=4.0,
        telemetry=True,
    )
    header = {"type": "sweep", "schema": 2, "sweep_id": metrics.sweep_id,
              "metrics": metrics.to_dict()}
    return {"header": header, "jobs": jobs}


def _without_latency(trace: dict, indexes) -> dict:
    trace = copy.deepcopy(trace)
    for index in indexes:
        trace["jobs"][index].pop("latency", None)
    return trace


@pytest.mark.parametrize("samples", [[[1.0, 2.0]], "xx", [None], {"a": 1}])
def test_render_trace_reports_undecodable_samples(samples):
    trace = _intact_trace()
    intact = copy.deepcopy(trace["jobs"][1:])
    trace["jobs"][0]["samples"] = samples
    assert render_trace(trace) == "\n\n".join(
        ["w0/qprac: samples unreadable"]
        + [render_trace({"jobs": [job]}) for job in intact]
    )


def test_render_trace_falls_back_to_stored_count_for_a_bad_total():
    job = _intact_trace()["jobs"][0]
    job["samples_total"] = "x"
    assert render_trace({"jobs": [job]}, limit=4).endswith(
        "\n(4 of 6 requests shown; 6 stored in the trace)"
    )


@pytest.mark.parametrize(
    "latency", [[1, 2], "x", {"p50_ns": "x"}, {"blackouts": [1]}],
)
def test_render_stats_dashes_an_unusable_latency_block(latency):
    trace = _intact_trace()
    trace["jobs"][2]["latency"] = latency
    rendered = render_stats(trace)
    assert rendered == render_stats(_without_latency(trace, [2]))
    row = next(line for line in rendered.splitlines()
               if line.lstrip().startswith("w2/qprac"))
    assert row.split()[3:] == ["-"] * 7


_NON_NUMBERS = st.one_of(
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
#: Truthy JSON values that are no sample field of either layout.
_JUNK_SAMPLES = st.one_of(
    st.text(min_size=1, max_size=6), st.just(True),
    st.integers().filter(bool), st.floats(allow_nan=False).filter(bool),
    st.dictionaries(st.text(max_size=6), st.integers(), min_size=1,
                    max_size=3),
    st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=3)),
             min_size=1, max_size=3),
)


def _damage_packed(data, field: dict) -> None:
    kind = data.draw(st.sampled_from(
        ["layout", "n", "truncate", "extend", "garbage", "missing"]
    ))
    if kind == "layout":
        field["layout"] = data.draw(st.one_of(
            st.text(max_size=12).filter(lambda t: t != SAMPLES_LAYOUT),
            st.integers(), st.none(),
        ))
        return
    if kind == "n":
        field["n"] = data.draw(st.one_of(
            st.integers().filter(bool).map(lambda d: field["n"] + d),
            st.floats(), st.text(max_size=3), st.none(), st.just(True),
        ))
        return
    name = data.draw(st.sampled_from(["arrive", "latency", "is_write",
                                      "core"]))
    raw = base64.b64decode(field[name])
    if kind == "truncate":
        cut = data.draw(st.integers(1, len(raw)))
        field[name] = base64.b64encode(raw[:-cut]).decode("ascii")
    elif kind == "extend":
        extra = data.draw(st.binary(min_size=1, max_size=9))
        field[name] = base64.b64encode(raw + extra).decode("ascii")
    elif kind == "garbage":
        field[name] = "!" + field[name]
    else:
        del field[name]


def _damage_rows(data, rows: list) -> None:
    kind = data.draw(st.sampled_from(["arity", "row", "value"]))
    at = data.draw(st.integers(0, len(rows) - 1))
    if kind == "arity":
        size = data.draw(st.sampled_from([0, 1, 2, 3, 5, 6]))
        rows[at] = (rows[at] + [0, 0])[:size]
    elif kind == "row":
        rows[at] = data.draw(st.one_of(
            st.none(), st.integers(), st.text(max_size=3),
            st.dictionaries(st.text(max_size=2), st.integers(),
                            max_size=2),
        ))
    else:
        rows[at][data.draw(st.integers(0, 1))] = data.draw(
            st.one_of(_NON_NUMBERS, st.none())
        )


def _damage_latency(data, latency: dict):
    kind = data.draw(st.sampled_from(
        ["junk", "percentile", "blackouts", "blackout"]
    ))
    if kind == "junk":
        return data.draw(st.one_of(
            st.text(min_size=1, max_size=4), st.just(True),
            st.integers().filter(bool),
            st.lists(st.integers(), min_size=1, max_size=2),
        ))
    if kind == "percentile":
        key = data.draw(st.sampled_from(["p50_ns", "p95_ns", "p99_ns",
                                         "max_ns"]))
        latency[key] = data.draw(_NON_NUMBERS)
    elif kind == "blackouts":
        latency["blackouts"] = data.draw(st.one_of(
            st.text(min_size=1, max_size=3), st.just([1]),
            st.integers().filter(bool),
        ))
    else:
        latency["blackouts"]["abo"] = data.draw(st.one_of(
            st.none(), st.integers(), st.text(max_size=3),
            st.fixed_dictionaries({"count": _NON_NUMBERS}),
        ))
    return latency


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_renderers_survive_damaged_rows(data):
    """Damaged ``samples`` (either layout) render as ``<label>: samples
    unreadable`` and damaged latency blocks as a missing one, while
    every intact job renders exactly as it did alone."""
    intact = _intact_trace()
    trace = copy.deepcopy(intact)
    unreadable, unusable = set(), set()
    for index, job in enumerate(trace["jobs"]):
        if data.draw(st.booleans(), label=f"damage samples {index}"):
            unreadable.add(index)
            if data.draw(st.booleans(), label="junk"):
                job["samples"] = data.draw(_JUNK_SAMPLES)
            elif isinstance(job["samples"], dict):
                _damage_packed(data, job["samples"])
            else:
                _damage_rows(data, job["samples"])
        if data.draw(st.booleans(), label=f"damage latency {index}"):
            unusable.add(index)
            job["latency"] = _damage_latency(data, job["latency"])
    limit = data.draw(st.integers(1, 8), label="limit")
    assert render_trace(trace, limit=limit) == "\n\n".join(
        f"{job['label']}: samples unreadable" if index in unreadable
        else render_trace({"jobs": [job]}, limit=limit)
        for index, job in enumerate(intact["jobs"])
    )
    assert render_stats(trace) == render_stats(
        _without_latency(intact, unusable)
    )


def test_previous_trace_is_read_only_when_a_job_is_cached(
    tmp_path, monkeypatch
):
    """After a simulator edit every cache key changes, so a re-run has
    nothing to carry forward and must not parse the old trace."""
    import repro.exp.runner as runner_module
    import repro.exp.spec as spec_module

    first = run_sweep(_tiny_spec(), store=ResultStore(tmp_path),
                      telemetry=True)
    calls = []
    real = runner_module.read_trace

    def spy(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(runner_module, "read_trace", spy)
    monkeypatch.setattr(spec_module, "code_version_salt", lambda: "edited")
    cold = run_sweep(_tiny_spec(), store=ResultStore(tmp_path),
                     telemetry=True)
    assert cold.executed == cold.total_jobs
    assert cold.trace_path == first.trace_path
    assert calls == []
    cached = run_sweep(_tiny_spec(), store=ResultStore(tmp_path))
    assert cached.cache_hits == cached.total_jobs
    assert calls == [Path(cached.trace_path)]


def test_schema1_trace_renders_identically_after_cached_refresh(tmp_path):
    """A schema-1 trace (samples inline as row lists) refreshed by a
    re-run that serves some jobs from the cache: the carried rows keep
    their lists, the re-run job writes a packed field, and the mixed
    file renders exactly as the schema-1 one did."""
    spec = SweepSpec.build(["541.leela"], ["qprac", "moat"], n_entries=400)
    sweep = run_sweep(spec, store=ResultStore(tmp_path), telemetry=True)
    path = Path(sweep.trace_path)
    trace = read_trace(path)
    lines = [dict(trace["header"], schema=1)] + [
        dict(job, samples=decode_samples(job["samples"]))
        for job in trace["jobs"]
    ]
    path.write_text("".join(
        json.dumps(line, sort_keys=True) + "\n" for line in lines
    ))
    rendered = render_trace(read_trace(path), limit=10**6)
    # Drop the last job's cache row, so the refresh re-runs it.
    rerun_key = trace["jobs"][-1]["key"]
    results = tmp_path / "results.jsonl"
    results.write_text("".join(
        line + "\n" for line in results.read_text().splitlines()
        if json.loads(line)["key"] != rerun_key
    ))
    refreshed = run_sweep(spec, store=ResultStore(tmp_path), telemetry=True)
    assert (refreshed.cache_hits, refreshed.executed) == (2, 1)
    mixed = read_trace(path)
    assert mixed["header"]["schema"] == 2
    assert [type(job["samples"]) for job in mixed["jobs"]] == [
        list, list, dict,
    ]
    assert render_trace(mixed, limit=10**6) == rendered


def test_read_trace_skips_lines_that_are_not_objects(tmp_path):
    path = tmp_path / "sweep-x.jsonl"
    path.write_text(
        '{"type": "sweep", "schema": 2, "sweep_id": "x", "metrics": {}}\n'
        '[1, 2]\n"job"\n{"type": "job", "index": 0, "label": "a"}\n'
    )
    trace = read_trace(path)
    assert [job["label"] for job in trace["jobs"]] == ["a"]


# ----------------------------------------------------------------------
# Bench surface: percentiles in reports, schema compatibility
# ----------------------------------------------------------------------
def test_bench_records_latency_percentiles():
    from repro.bench import BenchReport, run_bench

    report = run_bench(
        cells=(("541.leela", "qprac"),), n_entries=300, repeats=1,
        quick=True,
    )
    cell = report.cells[0]
    assert cell.latency is not None
    assert cell.latency["count"] > 0
    for key in ("p50_ns", "p95_ns", "p99_ns"):
        assert cell.latency[key] > 0
    loaded = BenchReport.from_dict(report.to_dict())
    assert loaded.cells[0].latency == cell.latency


def test_bench_telemetry_off_leaves_latency_empty():
    from repro.bench import run_bench

    report = run_bench(
        cells=(("541.leela", "qprac"),), n_entries=300, repeats=1,
        quick=True, telemetry=False,
    )
    assert report.cells[0].latency is None


def test_bench_schema1_reports_still_load():
    from repro.bench import BenchReport

    legacy = {
        "schema": 1,
        "meta": {"timestamp": "x", "quick": True, "repeats": 1, "host": {}},
        "cells": [{
            "workload": "429.mcf", "defense": "qprac", "n_entries": 4000,
            "wall_s": 1.0, "events": 10, "events_per_s": 10.0,
            "sim_time_ns": 5.0,
        }],
    }
    report = BenchReport.from_dict(legacy)
    assert report.cells[0].latency is None
    assert report.cells[0].engine == "event"


# ----------------------------------------------------------------------
# CLI surface: repro stats / repro trace / sweep --trace
# ----------------------------------------------------------------------
def test_cli_stats_and_trace(capsys, tmp_path):
    from repro.cli import main

    argv = ["sweep", "541.leela", "--defenses", "qprac", "--entries",
            "400", "--cache-dir", str(tmp_path), "--trace", "--quiet"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "sweep trace " in out

    assert main(["stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "541.leela/qprac" in out
    assert "p99" in out and "telemetry" in out
    assert "Store health" in out

    assert main(["trace", "--cache-dir", str(tmp_path), "--job", "qprac",
                 "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "541.leela/qprac" in out
    assert "latency" in out

    assert main(["trace", "--cache-dir", str(tmp_path), "--job",
                 "no-such-job"]) == 0
    assert "no job matching" in capsys.readouterr().out


def test_cli_stats_without_traces_errors(capsys, tmp_path):
    from repro.cli import main

    assert main(["stats", "--cache-dir", str(tmp_path)]) == 1
    assert "no sweep traces" in capsys.readouterr().err
