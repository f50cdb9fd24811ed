"""Simulation-engine tier tests.

Five layers of guarantees:

* **EngineSpec identity** — string/dict round-trips, sorted-param
  canonicalization, fail-fast validation against the registry, and
  registry-independent cache keys (an ``event`` job and an ``epoch`` job
  can never collide in the result store).
* **Reference integrity** — ``engine="event"`` is byte-identical to the
  default path (the golden hashes in ``test_determinism_golden.py``
  remain the source of truth for the event engine itself).
* **Epoch determinism** — two epoch runs are byte-identical, pinned
  digests under the golden environment, including a ``trefi_chunk``
  operating point.
* **Statistical equivalence** — the event-vs-epoch differential matrix:
  seeded random workloads × every registered defense must agree on mean
  slowdown % and alerts/tREFI within the stated tolerance
  (:func:`slowdown_within_tolerance` / :func:`alerts_within_tolerance`,
  the contract quoted in the README).  A registry-completeness guard
  fails loudly when an engine is registered without a golden digest or
  without appearing in the differential matrix.
* **Epoch exactness of shared work** — a result served from an
  Alert-free run's timing memo is byte-identical to a full replay for
  every registered defense; runs the memo does not cover (cadence
  defenses, telemetry, another timing key) never read or store one; the
  vectorized LLC filter matches the canonical cache; and the stream's
  precomputed stall columns match the per-request pointer walk.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.defenses import registered_defenses
from repro.errors import ConfigError, ReproError
from repro.exp import SweepSpec
from repro.exp.serialize import canonical_json, result_to_dict
from repro.sim import simulate_workload
from repro.sim.engines import (
    DEFAULT_ENGINE_SPEC,
    EngineSpec,
    registered_engines,
    resolve_engine,
)
from repro.workloads.synthetic import WorkloadSpec

from test_determinism_golden import needs_golden_env


def result_digest(result) -> str:
    return hashlib.sha256(
        canonical_json(result_to_dict(result)).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# EngineSpec identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("text,name,params", [
    ("event", "event", {}),
    ("epoch", "epoch", {}),
    ("epoch:trefi_chunk=4", "epoch", {"trefi_chunk": 4}),
    ("  epoch : trefi_chunk=2 ", "epoch", {"trefi_chunk": 2}),
])
def test_engine_spec_from_string(text, name, params):
    spec = EngineSpec.from_string(text)
    assert spec.name == name
    assert spec.params_dict == params


@pytest.mark.parametrize("spec", [
    EngineSpec("event"),
    EngineSpec.of("epoch", trefi_chunk=4),
])
def test_engine_spec_roundtrips(spec):
    assert EngineSpec.from_string(spec.to_string()) == spec
    assert EngineSpec.from_dict(spec.to_dict()) == spec


def test_engine_spec_params_sorted_identity():
    # Construction order can't perturb equality, hashing or labels.
    a = EngineSpec(name="x", params=(("b", 1), ("a", 2)))
    b = EngineSpec(name="x", params=(("a", 2), ("b", 1)))
    assert a == b and hash(a) == hash(b) and a.label == b.label


def test_engine_spec_rejects_empty_name():
    with pytest.raises(ConfigError):
        EngineSpec("")
    with pytest.raises(ConfigError):
        EngineSpec.from_string(":k=v")


def test_resolve_engine_defaults_and_errors():
    assert resolve_engine(None) == DEFAULT_ENGINE_SPEC
    assert resolve_engine("event") == EngineSpec("event")
    assert resolve_engine(EngineSpec("epoch")).name == "epoch"
    with pytest.raises(ReproError):
        resolve_engine("no-such-engine")
    with pytest.raises(ReproError):
        resolve_engine("epoch:bogus_param=1")
    with pytest.raises(ReproError):
        resolve_engine("epoch:trefi_chunk=maybe")  # type-checked
    with pytest.raises(ConfigError):
        resolve_engine(42)  # type: ignore[arg-type]


def test_builtin_registry_listing():
    names = [entry.name for entry in registered_engines()]
    assert "event" in names and "epoch" in names
    epoch = next(e for e in registered_engines() if e.name == "epoch")
    assert [p.name for p in epoch.params] == ["trefi_chunk"]
    assert epoch.params[0].default == 1


def test_epoch_rejects_bad_chunk():
    with pytest.raises(ConfigError):
        EngineSpec.of("epoch", trefi_chunk=0).build()


# ----------------------------------------------------------------------
# Cache-key separation and sweep threading
# ----------------------------------------------------------------------
def _sweep(engine):
    return SweepSpec.build(
        ["429.mcf"], ["qprac"], n_entries=500, engine=engine,
    )


def test_cache_keys_differ_by_engine():
    event_jobs = _sweep("event").expand()
    epoch_jobs = _sweep("epoch").expand()
    chunked_jobs = _sweep("epoch:trefi_chunk=4").expand()
    assert [j.label for j in event_jobs] == [j.label for j in epoch_jobs]
    for a, b, c in zip(event_jobs, epoch_jobs, chunked_jobs):
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 3


def test_sweepspec_normalizes_engine_strings():
    spec = _sweep("epoch:trefi_chunk=4")
    assert isinstance(spec.engine, EngineSpec)
    assert spec.engine.label == "epoch:trefi_chunk=4"
    assert all(job.engine == spec.engine for job in spec.expand())
    with pytest.raises(ReproError):
        _sweep("not-an-engine")


def test_sweep_runs_on_epoch_engine(tmp_path):
    from repro.exp import ResultStore, run_sweep

    store = ResultStore(tmp_path)
    sweep = run_sweep(_sweep("epoch"), store=store)
    assert sweep.executed == sweep.total_jobs
    replay = run_sweep(_sweep("epoch"), store=store)
    assert replay.cache_hits == replay.total_jobs
    for a, b in zip(sweep.outcomes, replay.outcomes):
        assert result_digest(a.result) == result_digest(b.result)
    # An event sweep over the same grid misses the epoch cache entirely.
    event_sweep = run_sweep(_sweep("event"), store=store)
    assert event_sweep.cache_hits == 0


# ----------------------------------------------------------------------
# Reference integrity + epoch determinism
# ----------------------------------------------------------------------
def test_event_engine_is_the_default_path():
    default = simulate_workload("429.mcf", defense="qprac", n_entries=1200)
    explicit = simulate_workload(
        "429.mcf", defense="qprac", n_entries=1200, engine="event"
    )
    assert result_digest(default) == result_digest(explicit)


def test_epoch_deterministic_across_runs():
    first = simulate_workload(
        "429.mcf", defense="qprac", n_entries=1500, engine="epoch"
    )
    second = simulate_workload(
        "429.mcf", defense="qprac", n_entries=1500, engine="epoch"
    )
    assert result_digest(first) == result_digest(second)


#: Pinned digests per engine (golden environment): the epoch engine's
#: own golden table, next to the event engine's in
#: ``test_determinism_golden.py``.  (workload, defense, n_entries, seed)
#: -> sha256 of the result's canonical JSON.
GOLDEN_ENGINE_HASHES: dict[str, dict] = {
    # The event engine's digests are pinned (byte-identical to the
    # pre-engine-tier simulator) by GOLDEN_HASHES/GOLDEN_DEFENSE_HASHES
    # in test_determinism_golden.py; this entry records that fact for
    # the registry-completeness guard.
    "event": None,
    "epoch": {
        ("429.mcf", "qprac", 2000, 0):
            "19ddbea572a9eb27101f7d588c743f6298d7fb3e796d91492c0fd7046eb00de4",
        ("429.mcf", "baseline", 2000, 0):
            "4a40a51d41fa586d189cd1d24af3d1ac08530604808ea05d986acf357bec946d",
        ("ycsb-a", "moat", 2000, 0):
            "c625f6d50e2ac1a8d7aa9bbcbf8a7f8f733d842edc4db4a8eec24b0a105253c1",
        ("470.lbm", "qprac+proactive", 2000, 0):
            "3784983b5ccc97776d90e5b2f8e1502663322bd7eee7645dd217157336f78ee6",
    },
    "epoch:trefi_chunk=4": {
        ("429.mcf", "qprac", 2000, 0):
            "5d4c94a03d80d156de31fa608611ac6b36d1920f35cbb652e51b241a8200fb75",
    },
}


@needs_golden_env
@pytest.mark.parametrize("engine,cell", [
    (engine, cell)
    for engine, cells in GOLDEN_ENGINE_HASHES.items()
    if cells
    for cell in sorted(cells)
], ids=lambda v: str(v))
def test_epoch_matches_pinned_digest(engine, cell):
    workload, defense, n_entries, seed = cell
    result = simulate_workload(
        workload, defense=defense, n_entries=n_entries, seed=seed,
        engine=engine,
    )
    assert result_digest(result) == GOLDEN_ENGINE_HASHES[engine][cell]


def test_every_registered_engine_has_golden_coverage():
    """Registry-completeness guard: registering an engine without a
    pinned digest (and without a differential-matrix entry, below)
    fails loudly."""
    registered = {entry.name for entry in registered_engines()}
    pinned = {name.split(":")[0] for name in GOLDEN_ENGINE_HASHES}
    assert registered == pinned
    assert registered == set(DIFFERENTIAL_ENGINES)


# ----------------------------------------------------------------------
# Differential matrix: event vs epoch across all registered defenses
# ----------------------------------------------------------------------
#: Engines the differential matrix covers (the reference plus every
#: approximate engine judged against it).
DIFFERENTIAL_ENGINES = ("event", "epoch")

#: Entries per core for the matrix (small enough to keep the matrix
#: seconds-cheap, large enough for alerts to fire).
MATRIX_ENTRIES = 2000


def slowdown_within_tolerance(event_pct: float, epoch_pct: float) -> bool:
    """The stated slowdown-agreement contract between the engines.

    Two regimes: small slowdowns must agree within 2.5 percentage
    points absolute; large ones (the cadence defenses at aggressive
    T_RH, where the epoch engine is documented to over-estimate bank
    blackout cost) must agree within a factor of [0.25, 3.5] — the
    ordering and magnitude class survive, individual points do not.
    """
    if abs(event_pct) < 2.0 or abs(epoch_pct) < 2.0:
        return abs(event_pct - epoch_pct) <= 2.5
    return 0.25 <= epoch_pct / event_pct <= 3.5


def alerts_within_tolerance(event_at: float, epoch_at: float) -> bool:
    """Alerts/tREFI agreement: within 0.3 absolute, or 50% relative
    once rates are large (the epoch engine's shorter approximate clock
    inflates the denominator)."""
    return abs(event_at - epoch_at) <= max(0.3, 0.5 * max(event_at,
                                                          epoch_at))


def _random_workload(index: int) -> WorkloadSpec:
    """Seeded random workload for the differential matrix."""
    rng = random.Random(1000 + index)
    return WorkloadSpec(
        name=f"differential-{index}",
        suite="differential",
        acts_pki=round(rng.uniform(0.5, 24.0), 2),
        row_burst=round(rng.uniform(1.0, 5.0), 2),
        footprint_mb=rng.choice([16, 64, 128, 256]),
        zipf_alpha=round(rng.uniform(0.0, 1.3), 2),
        write_fraction=round(rng.uniform(0.0, 0.5), 2),
    )


def _matrix_defenses() -> list[str]:
    """Every registered defense, parameterized ones at the operating
    point the figure benchmarks use — registry-complete by
    construction."""
    designators = []
    for entry in registered_defenses():
        if entry.name == "baseline":
            continue
        if entry.name in ("pride", "mithril"):
            designators.append(f"{entry.name}:t_rh=256")
        else:
            designators.append(entry.name)
    return designators


_BASELINES: dict = {}


def _baseline(workload, engine):
    key = (workload.name, engine)
    if key not in _BASELINES:
        _BASELINES[key] = simulate_workload(
            workload, defense="baseline", n_entries=MATRIX_ENTRIES,
            seed=0, engine=engine,
        )
    return _BASELINES[key]


@pytest.mark.parametrize("defense", _matrix_defenses())
def test_differential_matrix_event_vs_epoch(defense):
    """Seeded random workloads × every registered defense: the epoch
    engine must agree with the event reference on slowdown % and
    alerts/tREFI within the stated tolerance."""
    index = _matrix_defenses().index(defense)
    workload = _random_workload(index % 4)
    results = {}
    for engine in DIFFERENTIAL_ENGINES:
        run = simulate_workload(
            workload, defense=defense, n_entries=MATRIX_ENTRIES,
            seed=0, engine=engine,
        )
        results[engine] = (
            run.slowdown_pct_vs(_baseline(workload, engine)),
            run.alerts_per_trefi,
        )
    event_slow, event_at = results["event"]
    epoch_slow, epoch_at = results["epoch"]
    assert slowdown_within_tolerance(event_slow, epoch_slow), (
        f"{defense} on {workload.name}: slowdown {event_slow:.2f}% "
        f"(event) vs {epoch_slow:.2f}% (epoch)"
    )
    assert alerts_within_tolerance(event_at, epoch_at), (
        f"{defense} on {workload.name}: alerts/tREFI {event_at:.4f} "
        f"(event) vs {epoch_at:.4f} (epoch)"
    )


def test_differential_headline_cell():
    """The paper's headline cell (429.mcf × qprac) agrees between
    engines — fixed coverage on top of the random matrix."""
    for defense in ("qprac", "qprac-noop"):
        results = {}
        for engine in DIFFERENTIAL_ENGINES:
            baseline = simulate_workload(
                "429.mcf", defense="baseline", n_entries=MATRIX_ENTRIES,
                seed=0, engine=engine,
            )
            run = simulate_workload(
                "429.mcf", defense=defense, n_entries=MATRIX_ENTRIES,
                seed=0, engine=engine,
            )
            results[engine] = (
                run.slowdown_pct_vs(baseline), run.alerts_per_trefi
            )
        event_slow, event_at = results["event"]
        epoch_slow, epoch_at = results["epoch"]
        assert slowdown_within_tolerance(event_slow, epoch_slow), defense
        assert alerts_within_tolerance(event_at, epoch_at), defense


# ----------------------------------------------------------------------
# Alert-free timing reuse: memo-served results vs full replays
# ----------------------------------------------------------------------
#: Entries per core for the memo tests: short runs, whose Alerts come
#: from the lowered N_BO of the second PRAC setting.
MEMO_ENTRIES = 1500
MEMO_WORKLOADS = ("429.mcf", "470.lbm", "ycsb-a", "541.leela")
MEMO_SEEDS = (0, 3)


def _memo_configs():
    """The default PRAC setting (almost every run Alert-free at this
    length) and N_BO = 16 (most alert-driven defenses alert).  Both
    share one timing key, so each reads the other's memos."""
    from repro.params import default_config

    return (default_config(), default_config().with_prac(n_bo=16))


def _memo_stream(workload, seed=0):
    """The cached stream the epoch engine replays for this cell."""
    from repro.params import default_config
    from repro.sim.engines.epoch import _prepare_stream
    from repro.workloads.suites import workload as lookup_workload

    config = default_config()
    return _prepare_stream(
        lookup_workload(workload), MEMO_ENTRIES, seed, config.org, config.cpu
    )


def _epoch_run(workload, defense, seed=0, engine="epoch", **kwargs):
    """One epoch run at MEMO_ENTRIES: (canonical JSON, result)."""
    result = simulate_workload(
        workload, defense=defense, n_entries=MEMO_ENTRIES, seed=seed,
        engine=engine, **kwargs,
    )
    return canonical_json(result_to_dict(result)), result


def _full_replay(workload, defense, seed=0, **kwargs):
    """A run with no memo to read, and none left behind."""
    stream = _memo_stream(workload, seed)
    stream.timing.clear()
    try:
        return _epoch_run(workload, defense, seed, **kwargs)
    finally:
        stream.timing.clear()


def _is_cadence(defense):
    from repro.defenses import resolve_defense
    from repro.params import default_config

    bank = resolve_defense(defense).factory()(0, default_config())
    return bank.rfm_cadence_acts is not None


@pytest.fixture
def epoch_calls(monkeypatch):
    """Counts full replays (``EpochEngine._replay``) and memo drives by
    outcome: ``served`` ran the whole log, ``aborted`` met an Alert."""
    from repro.sim.engines.epoch import EpochEngine

    calls = {"replay": 0, "served": 0, "aborted": 0}
    replay, drive = EpochEngine._replay, EpochEngine._drive

    def counting_replay(self, *args, **kwargs):
        calls["replay"] += 1
        return replay(self, *args, **kwargs)

    def counting_drive(hooks, banks, ranks):
        served = drive(hooks, banks, ranks)
        calls["served" if served else "aborted"] += 1
        return served

    monkeypatch.setattr(EpochEngine, "_replay", counting_replay)
    monkeypatch.setattr(EpochEngine, "_drive", staticmethod(counting_drive))
    return calls


@pytest.mark.parametrize("workload", MEMO_WORKLOADS)
def test_differential_timing_memo_matches_full_replay(workload, epoch_calls):
    """Every registered defense, under two PRAC settings and two seeds:
    the result served after a recording run is byte-identical to a full
    replay.  Baseline first, then reversed (baseline last), so every
    Alert-free defense runs both after baseline (served from its memo)
    and before it (recording, or served from another defense's)."""
    defenses = ["baseline", *_matrix_defenses()]
    cells = [
        (defense, config)
        for defense in defenses for config in _memo_configs()
    ]
    for seed in MEMO_SEEDS:
        full = {
            (defense, config): _full_replay(
                workload, defense, seed, config=config
            )
            for defense, config in cells
        }
        alert_free = [
            cell for cell in cells
            if not _is_cadence(cell[0]) and full[cell][1].alerts == 0
        ]
        alerting = [
            cell for cell in cells
            if not _is_cadence(cell[0]) and cell not in alert_free
        ]
        assert len(alert_free) > 2
        for order in (cells, cells[::-1]):
            _memo_stream(workload, seed).timing.clear()
            before = dict(epoch_calls)
            for defense, config in order:
                served, _ = _epoch_run(workload, defense, seed, config=config)
                assert served == full[(defense, config)][0], (
                    workload, seed, defense, config.prac.n_bo,
                )
            # The first Alert-free run records; every later eligible run
            # drives its memo, to the end or to its first Alert.
            first = next(
                i for i, cell in enumerate(order) if cell in alert_free
            )
            assert epoch_calls["served"] - before["served"] == \
                len(alert_free) - 1
            assert epoch_calls["aborted"] - before["aborted"] == \
                sum(cell in alerting for cell in order[first:])
        _memo_stream(workload, seed).timing.clear()


def test_differential_memo_abort_matches_full_replay(epoch_calls):
    """An alerting run after a stored memo drives it to its first
    Alert, then replays in full and matches a plain full replay; an
    alerting run never stores a memo."""
    _, alerting = _memo_configs()
    expected, result = _full_replay("429.mcf", "qprac", config=alerting)
    assert result.alerts > 0
    stream = _memo_stream("429.mcf")
    stream.timing.clear()
    _epoch_run("429.mcf", "baseline")
    stored = dict(stream.timing)
    assert len(stored) == 1
    before = dict(epoch_calls)
    served, _ = _epoch_run("429.mcf", "qprac", config=alerting)
    assert served == expected
    assert epoch_calls["aborted"] == before["aborted"] + 1
    assert epoch_calls["replay"] == before["replay"] + 1
    assert stream.timing == stored
    stream.timing.clear()
    _epoch_run("429.mcf", "qprac", config=alerting)
    assert stream.timing == {}


def test_differential_memo_exclusions(epoch_calls):
    """Cadence defenses and telemetry-on runs neither store nor read a
    memo, and a recorded run's telemetry summary does not depend on
    whether a memo was present."""
    from repro.obs import Telemetry

    cadence = ("pride:t_rh=256", "mithril:t_rh=256")
    stream = _memo_stream("470.lbm")
    stream.timing.clear()
    expected = {defense: _epoch_run("470.lbm", defense)[0]
                for defense in cadence}
    bare_json, bare = _epoch_run(
        "470.lbm", "qprac+proactive", telemetry=Telemetry()
    )
    assert stream.timing == {}
    _epoch_run("470.lbm", "baseline")
    stored = dict(stream.timing)
    assert len(stored) == 1
    before = dict(epoch_calls)
    for defense in cadence:
        assert _epoch_run("470.lbm", defense)[0] == expected[defense]
    memo_json, memo = _epoch_run(
        "470.lbm", "qprac+proactive", telemetry=Telemetry()
    )
    assert memo_json == bare_json
    assert memo.latency == bare.latency
    assert epoch_calls["replay"] == before["replay"] + 3
    assert epoch_calls["served"] == before["served"]
    assert epoch_calls["aborted"] == before["aborted"]
    assert stream.timing == stored
    stream.timing.clear()


def test_differential_memo_isolated_by_timing_and_chunk(epoch_calls):
    """``epoch:trefi_chunk=4`` and a timing override never read a memo
    recorded under another timing key; each stores its own."""
    import dataclasses

    from repro.params import default_config

    config = default_config()
    slower = dataclasses.replace(
        config, timing=dataclasses.replace(config.timing, t_rfc=450.0)
    )
    cases = (
        ({"engine": "epoch:trefi_chunk=4"}, (config.timing, 4)),
        ({"config": slower}, (slower.timing, 1)),
    )
    expected = [
        _full_replay("470.lbm", "qprac+proactive", **kwargs)[0]
        for kwargs, _ in cases
    ]
    stream = _memo_stream("470.lbm")
    stream.timing.clear()
    _epoch_run("470.lbm", "baseline")
    assert set(stream.timing) == {(config.timing, 1)}
    before = dict(epoch_calls)
    for (kwargs, key), want in zip(cases, expected):
        got, _ = _epoch_run("470.lbm", "qprac+proactive", **kwargs)
        assert got == want
        assert key in stream.timing
    assert epoch_calls["served"] == before["served"]
    assert epoch_calls["aborted"] == before["aborted"]
    assert epoch_calls["replay"] == before["replay"] + 2
    assert len(stream.timing) == 3
    stream.timing.clear()


def test_differential_memo_threads_match_serial():
    """Eight threads race mixed defenses on one shared stream (memo
    stores and reads interleaved at a tiny switch interval): every
    result equals its serial full replay."""
    import sys
    import threading

    _, alerting = _memo_configs()
    cells = (
        ("baseline", None), ("qprac+proactive", None), ("qprac", alerting),
        ("moat", None), ("pride:t_rh=256", None), ("qprac-noop", alerting),
    )
    serial = {
        cell: _full_replay("429.mcf", cell[0], config=cell[1])[0]
        for cell in cells
    }
    _memo_stream("429.mcf").timing.clear()
    results: list[dict | None] = [None] * 8
    errors: list[Exception] = []

    def worker(index):
        try:
            shift = index % len(cells)
            results[index] = {
                cell: _epoch_run("429.mcf", cell[0], config=cell[1])[0]
                for cell in cells[shift:] + cells[:shift]
            }
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert all(result == serial for result in results)
    _memo_stream("429.mcf").timing.clear()


#: LLC parity regimes: (workload, entries/core, LLC bytes or None for
#: the default, share of accesses in sets that overflow the ways).
LLC_REGIMES = {
    # A deliberately tiny LLC: every set overflows, so the parity covers
    # evictions and dirty writebacks (ycsb-a is write-heavy).
    "tiny-all-overflow": ("ycsb-a", 2000, 64 * 1024, (1.0, 1.0)),
    # The default LLC with a few hundred overflowing sets: both the
    # never-evicting shortcut and the sequential LRU run.
    "default-mixed": ("470.lbm", 10_000, None, (0.05, 0.2)),
    # No set ever holds more lines than it has ways.
    "default-no-overflow": ("429.mcf", 2000, None, (0.0, 0.0)),
}


@pytest.mark.parametrize("regime", sorted(LLC_REGIMES))
def test_epoch_llc_filter_matches_canonical_cache(regime):
    """The epoch engine's LLC filter must stay decision-identical to
    SetAssociativeCache.access: drive the canonical cache over the same
    merged access stream and compare hit counts and the full per-core
    DRAM request columns (guards the 'keep in sync' copy, like the
    event engine's twin test in test_determinism_golden.py), in each
    regime of the filter's never-evicting shortcut."""
    import dataclasses

    import numpy as np

    from repro.cpu.cache import SetAssociativeCache
    from repro.dram.address import AddressMapper
    from repro.params import default_config
    from repro.sim.engines.epoch import _prepare_stream
    from repro.workloads.suites import workload as lookup_workload
    from repro.workloads.synthetic import generate_trace

    name, n_entries, llc_bytes, (low, high) = LLC_REGIMES[regime]
    config = default_config()
    org = config.org
    cpu = config.cpu
    if llc_bytes is not None:
        cpu = dataclasses.replace(cpu, llc_bytes=llc_bytes)
    workload = lookup_workload(name)
    stream = _prepare_stream(workload, n_entries, 0, org, cpu)

    # Reference pass: the canonical cache over the identical merged
    # order (recomputed here exactly as _prepare_stream builds it).
    traces = [
        generate_trace(workload, n_entries, org, seed=c)
        for c in range(cpu.cores)
    ]
    fronts = [
        np.cumsum(t.instruction_needs()) * (cpu.cycle_ns / cpu.issue_width)
        for t in traces
    ]
    all_front = np.concatenate(fronts)
    all_core = np.concatenate([
        np.full(len(t), c, dtype=np.int64) for c, t in enumerate(traces)
    ])
    all_addr = np.concatenate([t.addresses for t in traces])
    all_write = np.concatenate([t.is_write for t in traces])
    order = np.lexsort((all_core, all_front))

    llc = SetAssociativeCache(cpu.llc_bytes, cpu.llc_ways,
                              org.line_size_bytes)
    # The regime: share of accesses whose set ever holds more distinct
    # lines than the LLC has ways.
    lines = all_addr // org.line_size_bytes
    set_of = lines % llc.num_sets
    distinct = np.bincount(np.unique(lines) % llc.num_sets,
                           minlength=llc.num_sets)
    overflow_share = float(np.mean(distinct[set_of] > cpu.llc_ways))
    assert low <= overflow_share <= high, overflow_share

    mapper = AddressMapper(org)
    reference: list[list[tuple]] = [[] for _ in range(cpu.cores)]
    for c, addr, is_write in zip(
        all_core[order].tolist(), all_addr[order].tolist(),
        all_write[order].tolist(),
    ):
        hit, writeback = llc.access(addr, is_write)
        if not hit:
            ch, _r, _bg, _b, row, _col, flat = mapper.decode_flat(addr)
            reference[c].append((flat, row, ch, is_write, True))
            if writeback is not None:
                ch, _r, _bg, _b, row, _col, flat = \
                    mapper.decode_flat(writeback)
                reference[c].append((flat, row, ch, True, False))
    if overflow_share == 1.0:
        assert llc.writebacks > 0, "cell must exercise the writeback path"
    assert stream.llc_hits == llc.hits
    for c in range(cpu.cores):
        got = [
            (bank_i, row, ch, is_write, demand)
            for (_f, bank_i, row, ch, is_write, demand) in stream.reqs[c]
        ]
        assert got == reference[c], f"core {c} request stream diverged"


def _walk_stall_rows(requests, load_inst, cpu, write_depth):
    """The replay loop's former per-request pointer walk, as reference.

    ``requests`` holds ``(front, inst, loads, is_write, is_demand)`` in
    entry order.  Walks the ROB and MSHR pointers forward exactly as the
    loop's advance step did, but returns, per request, *where* it binds
    (one :class:`_StallColumns` row) instead of the floor's value, plus
    the set of stall-model cases the walk passed through.
    """
    from repro.sim.engines.epoch import _NO_ROB_FLOOR, _ROB_FROM_ZERO

    rob_entries = cpu.rob_entries
    per_inst_ns = cpu.cycle_ns / cpu.issue_width
    rows, cases = [], set()
    read_loadidx: list[int] = []
    n_writes = 0
    rob_ptr = rob_read_ptr = 0
    mshr_ptr = -1
    for i, (front_i, inst, issued_loads, is_write, demand) in \
            enumerate(requests):
        rob = (_NO_ROB_FLOOR, 0, 0, 0.0)
        ring = (-1, 0)
        nr = len(read_loadidx)
        if i == 0:
            cases.add("first request")
        if demand:
            limit = inst - rob_entries
            if not nr and i:
                cases.add("no read yet")
            if nr and limit > 0:
                while rob_ptr < issued_loads and \
                        load_inst[rob_ptr] < limit:
                    rob_ptr += 1
                if rob_ptr >= issued_loads:
                    cases.add("whole-window drain")
                    rob = (nr - 1, 0, 0, front_i)
                else:
                    bind = rob_ptr + 1
                    while rob_read_ptr < nr and \
                            read_loadidx[rob_read_ptr] <= bind:
                        rob_read_ptr += 1
                    rp = rob_read_ptr
                    if rp:
                        k, hop = rp - 1, int(read_loadidx[rp - 1] != bind)
                    else:
                        cases.add("rp == 0")
                        k, hop = _ROB_FROM_ZERO, 0
                    hits_between = (issued_loads - 1 - bind) - (nr - rp)
                    prev_mark = load_inst[rob_ptr - 1] if rob_ptr else 0
                    stall_front = (prev_mark + rob_entries) * per_inst_ns
                    if stall_front > front_i:
                        stall_front = front_i
                    rob = (k, hop, max(hits_between, 0), stall_front)
            if is_write:
                if n_writes >= write_depth:
                    if n_writes == write_depth:
                        cases.add("write-buffer depth boundary")
                    ring = (n_writes - write_depth, 0)
            else:
                displaced = issued_loads - cpu.max_outstanding_misses
                if displaced > 0:
                    while mshr_ptr + 1 < nr and \
                            read_loadidx[mshr_ptr + 1] <= displaced:
                        mshr_ptr += 1
                    if mshr_ptr >= 0:
                        hit = read_loadidx[mshr_ptr] != displaced
                        cases.add("displaced LLC hit" if hit
                                  else "displaced DRAM read")
                        ring = (mshr_ptr, int(hit))
        rows.append(rob + ring)
        if not is_write:
            read_loadidx.append(issued_loads)
        elif demand:
            n_writes += 1
    return rows, cases


def test_differential_stall_columns_match_pointer_walk():
    """The stream's precomputed stall columns equal, row for row, what
    the per-request pointer walk they replace computes, on generated
    single-core streams (loads and stores, LLC hits and misses, dirty
    writebacks) under small ROB, MSHR and write-buffer sizes — and the
    generated streams reach every case of the stall model."""
    import dataclasses
    from unittest import mock

    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.params import default_config
    from repro.sim.engines import epoch

    entry = st.tuples(
        st.integers(0, 6),  # bubbles before the memory op
        st.booleans(),      # store (else load)
        st.booleans(),      # LLC miss (else hit: no request)
        st.booleans(),      # the miss writes back a dirty line
    )
    seen: set[str] = set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        entries=st.lists(entry, min_size=1, max_size=60),
        rob_entries=st.integers(1, 24),
        max_misses=st.integers(1, 6),
        write_depth=st.integers(1, 4),
    )
    def check(entries, rob_entries, max_misses, write_depth):
        cpu = dataclasses.replace(
            default_config().cpu, rob_entries=rob_entries,
            max_outstanding_misses=max_misses,
        )
        per_inst_ns = cpu.cycle_ns / cpu.issue_width
        bubbles = np.array([e[0] for e in entries], dtype=np.int64)
        is_store = np.array([e[1] for e in entries], dtype=bool)
        inst = np.cumsum(bubbles + 1)
        loads = np.cumsum(~is_store)
        front = inst * per_inst_ns
        requests, at = [], []
        for j, (_b, store, miss, writeback) in enumerate(entries):
            if miss:
                requests.append((store, True))
                at.append(j)
                if writeback:
                    requests.append((True, False))
                    at.append(j)
        if not requests:
            return
        at = np.array(at)
        req_write = np.array([w for w, _ in requests], dtype=bool)
        req_demand = np.array([d for _, d in requests], dtype=bool)
        load_inst = inst[~is_store]
        with mock.patch.object(epoch, "WRITE_BUFFER_DEPTH", write_depth):
            columns = epoch._stall_columns(
                front[at], inst[at], loads[at], req_write, req_demand,
                load_inst, cpu,
            )
        expected, cases = _walk_stall_rows(
            list(zip(front[at].tolist(), inst[at].tolist(),
                     loads[at].tolist(), req_write.tolist(),
                     req_demand.tolist())),
            load_inst.tolist(), cpu, write_depth,
        )
        seen.update(cases)
        assert all(len(column) == len(requests) for column in columns)
        assert list(zip(*columns)) == expected

    check()
    assert seen == {
        "first request", "no read yet", "whole-window drain", "rp == 0",
        "displaced LLC hit", "displaced DRAM read",
        "write-buffer depth boundary",
    }


# ----------------------------------------------------------------------
# Engine metadata downstream: bench cells and the CLI listing
# ----------------------------------------------------------------------
def test_bench_records_engine_and_speedup():
    from repro.bench import BenchReport, run_bench

    report = run_bench(
        cells=(("429.mcf", "qprac"),), n_entries=400, repeats=1,
        quick=True, engine="epoch",
    )
    assert report.engine == "epoch"
    assert all(cell.engine == "epoch" for cell in report.cells)
    assert report.reference_event is not None
    assert report.reference_event.engine == "event"
    payload = report.to_dict()
    assert payload["meta"]["engine"] == "epoch"
    assert payload["speedup_vs_event"] == report.speedup_vs_event > 0
    restored = BenchReport.from_dict(payload)
    assert restored.engine == "epoch"
    assert restored.reference_event.wall_s == \
        report.reference_event.wall_s


def test_bench_repeats_time_full_replays(monkeypatch):
    """Two DEFAULT_CELLS raise no Alert on epoch, so from their second
    repeat on the timing memo would serve them; every timed repeat must
    still run the full replay."""
    from repro.bench import DEFAULT_CELLS, QUICK_ENTRIES, _measure_cell_task
    from repro.sim.engines.epoch import EpochEngine

    cells = (("429.mcf", "baseline"), ("470.lbm", "qprac+proactive"))
    assert set(cells) <= set(DEFAULT_CELLS)
    for workload, defense in cells:  # each leaves a memo behind
        assert simulate_workload(
            workload, defense=defense, n_entries=QUICK_ENTRIES,
            engine="epoch",
        ).alerts == 0
    replays = []
    replay = EpochEngine._replay

    def counting_replay(self, *args, **kwargs):
        replays.append(self)
        return replay(self, *args, **kwargs)

    monkeypatch.setattr(EpochEngine, "_replay", counting_replay)
    for workload, defense in cells:
        _measure_cell_task({
            "workload": workload, "defense": defense,
            "n_entries": QUICK_ENTRIES, "repeats": 3, "engine": "epoch",
        })
    assert len(replays) == 6


def test_bench_comparison_never_pairs_engines():
    from repro.bench import BenchReport, CellResult, compare_reports

    def report(engine, wall):
        return BenchReport(
            cells=[CellResult(
                workload="429.mcf", defense="qprac", n_entries=400,
                wall_s=wall, events=100, events_per_s=100 / wall,
                sim_time_ns=1.0, repeats=1, engine=engine,
            )],
            quick=True, repeats=1, timestamp="t", engine=engine,
        )

    crossed = compare_reports(report("epoch", 1.0), report("event", 9.0))
    assert crossed == []
    same = compare_reports(report("epoch", 1.0), report("epoch", 2.0))
    assert len(same) == 1 and same[0].speedup == 2.0


def test_latest_trajectory_skips_malformed_and_matches_engine(tmp_path):
    import json

    from repro.bench import (
        BenchReport, CellResult, latest_trajectory_for_engine,
        write_report,
    )

    def report(engine, stamp):
        return BenchReport(
            cells=[CellResult(
                workload="429.mcf", defense="qprac", n_entries=400,
                wall_s=1.0, events=100, events_per_s=100.0,
                sim_time_ns=1.0, repeats=1, engine=engine,
            )],
            quick=True, repeats=1, timestamp=stamp, engine=engine,
        )

    event_path = write_report(report("event", "20000101T000000Z"), tmp_path)
    write_report(report("epoch", "20000102T000000Z"), tmp_path)
    # Newest overall is epoch; the event lookup must skip past it.
    assert latest_trajectory_for_engine(tmp_path, "event") == event_path
    assert latest_trajectory_for_engine(tmp_path, "no-such") is None
    # A malformed point (non-dict cells) is skipped, not fatal.
    (tmp_path / "BENCH_20000103T000000Z.json").write_text(
        json.dumps({"cells": [42], "meta": {"engine": "event"}})
    )
    assert latest_trajectory_for_engine(tmp_path, "event") == event_path


def test_cli_bench_rejects_cross_engine_baseline(tmp_path, capsys):
    from repro.bench import BenchReport, CellResult, write_report
    from repro.cli import main

    baseline = BenchReport(
        cells=[CellResult(
            workload="429.mcf", defense="qprac", n_entries=400,
            wall_s=1.0, events=100, events_per_s=100.0,
            sim_time_ns=1.0, repeats=1, engine="event",
        )],
        quick=True, repeats=1, timestamp="20000101T000000Z",
        engine="event",
    )
    path = write_report(baseline, tmp_path)
    status = main([
        "bench", "--quick", "--entries", "400", "--repeats", "1",
        "--engine", "epoch", "--baseline", str(path), "--no-write",
        "--quiet",
    ])
    assert status == 1
    err = capsys.readouterr().err
    assert "recorded under engine" in err


def test_cli_engines_listing(capsys):
    from repro.cli import main

    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "event" in out and "epoch" in out and "trefi_chunk" in out
