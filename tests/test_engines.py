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
  digests under the golden environment.
* **Statistical equivalence** — the event-vs-epoch differential matrix:
  seeded random workloads × every registered defense must agree on mean
  slowdown % and alerts/tREFI within the stated tolerance
  (:func:`slowdown_within_tolerance` / :func:`alerts_within_tolerance`,
  the contract quoted in the README).  A registry-completeness guard
  fails loudly when an engine is registered without a golden digest or
  without appearing in the differential matrix.
* **Exactness of shared work** — on both engines, a result served from
  an Alert-free run's timing memo is byte-identical to a full run for
  every registered defense; runs the memo does not cover (cadence
  defenses, telemetry, another timing key) never read or store one; a
  served result shares nothing with the memo; the table is bounded; and
  every hook reaches its defense exactly once on every engine path.
  For ``epoch``, the vectorized LLC filter matches the canonical cache,
  and the stream's precomputed stall columns match the per-request
  pointer walk.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.defense import BankDefense
from repro.defenses import registered_defenses
from repro.errors import ConfigError, ReproError
from repro.exp import SweepSpec
from repro.exp.serialize import canonical_json, result_to_dict
from repro.sim import simulate_workload
from repro.sim.engines import (
    DEFAULT_ENGINE_SPEC,
    EngineRegistry,
    EngineSpec,
    SimEngine,
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
#: The shipped engines take no parameters, so engine parameters are
#: covered through this scoped registry's one parameterized engine.
SCOPED_ENGINES = EngineRegistry()


@SCOPED_ENGINES.register("toy", summary="parameterized test engine")
class ToyEngine(SimEngine):
    def __init__(self, size: int = 1) -> None:
        self.size = size


@pytest.mark.parametrize("text,name,params", [
    ("event", "event", {}),
    ("epoch", "epoch", {}),
    ("toy:size=4", "toy", {"size": 4}),
    (" toy : size=2 ", "toy", {"size": 2}),
])
def test_engine_spec_from_string(text, name, params):
    spec = EngineSpec.from_string(text)
    assert spec.name == name
    assert spec.params_dict == params
    registry = SCOPED_ENGINES if name == "toy" else None
    assert spec.validate(registry).name == name


@pytest.mark.parametrize("spec", [
    EngineSpec("event"),
    EngineSpec.of("toy", size=4),
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
    assert resolve_engine("toy:size=4", SCOPED_ENGINES).build(
        SCOPED_ENGINES
    ).size == 4
    with pytest.raises(ReproError):
        resolve_engine("toy:size=maybe", SCOPED_ENGINES)  # type-checked
    with pytest.raises(ReproError):
        resolve_engine("toy")  # registered in the scoped registry only
    with pytest.raises(ConfigError):
        resolve_engine(42)  # type: ignore[arg-type]


def test_builtin_registry_listing():
    names = [entry.name for entry in registered_engines()]
    assert "event" in names and "epoch" in names
    epoch = next(e for e in registered_engines() if e.name == "epoch")
    assert epoch.params == ()


# ----------------------------------------------------------------------
# Cache-key separation and sweep threading
# ----------------------------------------------------------------------
def _sweep(engine):
    return SweepSpec.build(
        ["429.mcf"], ["qprac"], n_entries=500, engine=engine,
    )


def test_cache_keys_differ_by_engine():
    import dataclasses

    event_jobs = _sweep("event").expand()
    epoch_jobs = _sweep("epoch").expand()
    # Keys encode the engine's name and parameters, never its registry.
    toy = resolve_engine("toy:size=4", SCOPED_ENGINES)
    toy_jobs = [dataclasses.replace(job, engine=toy) for job in epoch_jobs]
    assert [j.label for j in event_jobs] == [j.label for j in epoch_jobs]
    for a, b, c in zip(event_jobs, epoch_jobs, toy_jobs):
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 3


def test_sweepspec_normalizes_engine_strings():
    spec = _sweep(" epoch ")
    assert isinstance(spec.engine, EngineSpec)
    assert spec.engine.label == "epoch"
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
# Alert-free timing reuse: memo-served results vs full runs
# ----------------------------------------------------------------------
#: Entries per core for the memo tests, per engine: short runs, whose
#: Alerts come from the lowered N_BO of the second PRAC setting.  Each
#: test runs on both engines; ``event`` is the slower one, so its runs
#: are shorter.
MEMO_ENTRIES = {"epoch": 1500, "event": 800}
MEMO_ENGINES = tuple(MEMO_ENTRIES)
MEMO_WORKLOADS = ("429.mcf", "470.lbm", "ycsb-a", "541.leela")
MEMO_SEEDS = (0, 3)


def _memo_configs():
    """The default PRAC setting (almost every run Alert-free at this
    length) and N_BO = 16 (most alert-driven defenses alert).  Both
    share one timing key, so each reads the other's memos."""
    from repro.params import default_config

    return (default_config(), default_config().with_prac(n_bo=16))


def _memo_timings() -> set:
    """The ``config.timing`` of every memo the table holds."""
    from repro.sim.engines import memo

    return {timing for (_stream, timing), _ in memo.TABLE.items()}


def _memo_run(engine, workload, defense, seed=0, **kwargs):
    """One run at the engine's MEMO_ENTRIES: (canonical JSON, result)."""
    result = simulate_workload(
        workload, defense=defense, n_entries=MEMO_ENTRIES[engine],
        seed=seed, engine=engine, **kwargs,
    )
    return canonical_json(result_to_dict(result)), result


def _full_run(engine, workload, defense, seed=0, **kwargs):
    """A run with no memo to read, and none left behind."""
    from repro.sim.engines import memo

    memo.clear()
    try:
        return _memo_run(engine, workload, defense, seed, **kwargs)
    finally:
        memo.clear()


def _is_cadence(defense):
    from repro.defenses import resolve_defense
    from repro.params import default_config

    bank = resolve_defense(defense).factory()(0, default_config())
    return bank.rfm_cadence_acts is not None


@pytest.fixture
def memo_calls(monkeypatch):
    """Counts full runs (``EpochEngine._replay``, ``MulticoreSystem.run``)
    and memo drives by outcome: ``served`` ran the whole log,
    ``aborted`` met an Alert."""
    from repro.cpu.system import MulticoreSystem
    from repro.sim.engines import memo
    from repro.sim.engines.epoch import EpochEngine

    calls = {"full": 0, "served": 0, "aborted": 0}
    replay, run, drive = EpochEngine._replay, MulticoreSystem.run, memo.drive

    def counting_replay(self, *args, **kwargs):
        calls["full"] += 1
        return replay(self, *args, **kwargs)

    def counting_run(self, *args, **kwargs):
        calls["full"] += 1
        return run(self, *args, **kwargs)

    def counting_drive(*args):
        served = drive(*args)
        calls["served" if served else "aborted"] += 1
        return served

    monkeypatch.setattr(EpochEngine, "_replay", counting_replay)
    monkeypatch.setattr(MulticoreSystem, "run", counting_run)
    monkeypatch.setattr(memo, "drive", counting_drive)
    memo.clear()
    yield calls
    memo.clear()


@pytest.mark.parametrize("workload", MEMO_WORKLOADS)
def test_differential_timing_memo_matches_full_replay(workload, memo_calls):
    """On both engines, every registered defense under two PRAC settings
    and two seeds: the result served after a recording run is
    byte-identical to a full run.  Baseline first, then reversed
    (baseline last), so every Alert-free defense runs both after
    baseline (served from its memo) and before it (recording, or served
    from another defense's)."""
    from repro.sim.engines import memo

    defenses = ["baseline", *_matrix_defenses()]
    cells = [
        (defense, config)
        for defense in defenses for config in _memo_configs()
    ]
    cadence = {cell for cell in cells if _is_cadence(cell[0])}
    for engine in MEMO_ENGINES:
        for seed in MEMO_SEEDS:
            full = {
                (defense, config): _full_run(
                    engine, workload, defense, seed, config=config
                )
                for defense, config in cells
            }
            alert_free = [
                cell for cell in cells
                if cell not in cadence and full[cell][1].alerts == 0
            ]
            alerting = [
                cell for cell in cells
                if cell not in cadence and cell not in alert_free
            ]
            assert len(alert_free) > 2
            for order in (cells, cells[::-1]):
                memo.clear()
                before = dict(memo_calls)
                for defense, config in order:
                    served, _ = _memo_run(
                        engine, workload, defense, seed, config=config
                    )
                    assert served == full[(defense, config)][0], (
                        engine, workload, seed, defense, config.prac.n_bo,
                    )
                # The first Alert-free run records; every later eligible
                # run drives its memo, to the end or to its first Alert.
                first = next(
                    i for i, cell in enumerate(order) if cell in alert_free
                )
                assert memo_calls["served"] - before["served"] == \
                    len(alert_free) - 1
                assert memo_calls["aborted"] - before["aborted"] == \
                    sum(cell in alerting for cell in order[first:])


def test_differential_memo_abort_matches_full_replay(memo_calls):
    """On both engines, an alerting run after a stored memo drives it to
    its first Alert, then runs in full and matches a plain full run; an
    alerting run never stores a memo."""
    from repro.sim.engines import memo

    _, alerting = _memo_configs()
    for engine in MEMO_ENGINES:
        expected, result = _full_run(
            engine, "429.mcf", "qprac", config=alerting
        )
        assert result.alerts > 0
        _memo_run(engine, "429.mcf", "baseline")
        stored = memo.TABLE.items()
        assert len(stored) == 1
        before = dict(memo_calls)
        served, _ = _memo_run(engine, "429.mcf", "qprac", config=alerting)
        assert served == expected
        assert memo_calls["aborted"] == before["aborted"] + 1
        assert memo_calls["full"] == before["full"] + 1
        assert memo.TABLE.items() == stored
        memo.clear()
        _memo_run(engine, "429.mcf", "qprac", config=alerting)
        assert memo.TABLE.items() == []


def test_differential_memo_exclusions(memo_calls):
    """On both engines, cadence defenses and telemetry-on runs neither
    store nor read a memo, and a recorded run's telemetry summary does
    not depend on whether a memo was present."""
    from repro.obs import Telemetry
    from repro.sim.engines import memo

    cadence = ("pride:t_rh=256", "mithril:t_rh=256")
    for engine in MEMO_ENGINES:
        memo.clear()
        expected = {defense: _memo_run(engine, "470.lbm", defense)[0]
                    for defense in cadence}
        bare_json, bare = _memo_run(
            engine, "470.lbm", "qprac+proactive", telemetry=Telemetry()
        )
        assert memo.TABLE.items() == []
        _memo_run(engine, "470.lbm", "baseline")
        stored = memo.TABLE.items()
        assert len(stored) == 1
        before = dict(memo_calls)
        for defense in cadence:
            assert _memo_run(engine, "470.lbm", defense)[0] == \
                expected[defense]
        memo_json, recorded = _memo_run(
            engine, "470.lbm", "qprac+proactive", telemetry=Telemetry()
        )
        assert memo_json == bare_json
        assert recorded.latency == bare.latency
        assert memo_calls["full"] == before["full"] + 3
        assert memo_calls["served"] == before["served"]
        assert memo_calls["aborted"] == before["aborted"]
        assert memo.TABLE.items() == stored


def test_differential_memo_isolated_by_timing(memo_calls):
    """On both engines, a timing override never reads a memo recorded
    under another timing key; it stores its own, keyed by
    ``config.timing`` alone."""
    import dataclasses

    from repro.params import default_config

    config = default_config()
    slower = dataclasses.replace(
        config, timing=dataclasses.replace(config.timing, t_rfc=450.0)
    )
    for engine in MEMO_ENGINES:
        expected, _ = _full_run(
            engine, "470.lbm", "qprac+proactive", config=slower
        )
        _memo_run(engine, "470.lbm", "baseline")
        assert _memo_timings() == {config.timing}
        before = dict(memo_calls)
        got, _ = _memo_run(
            engine, "470.lbm", "qprac+proactive", config=slower
        )
        assert got == expected
        assert _memo_timings() == {config.timing, slower.timing}
        assert memo_calls["served"] == before["served"]
        assert memo_calls["aborted"] == before["aborted"]
        assert memo_calls["full"] == before["full"] + 1


def test_memo_served_results_share_nothing(memo_calls):
    """On both engines, editing a recorded or a served result's
    ``core_ipcs`` or ``mitigations`` does not change what the memo
    serves next."""
    from repro.core.defense import MitigationReason

    for engine in MEMO_ENGINES:
        expected, _ = _full_run(engine, "470.lbm", "qprac+proactive")
        _, recorded = _memo_run(engine, "470.lbm", "baseline")
        before = memo_calls["served"]
        for _ in range(2):
            served_json, served = _memo_run(
                engine, "470.lbm", "qprac+proactive"
            )
            assert served_json == expected
            for result in (recorded, served):
                result.core_ipcs.append(1.0)
                result.core_ipcs[0] = -1.0
                result.mitigations[MitigationReason.PROACTIVE] += 7
        assert memo_calls["served"] == before + 2


def test_memo_table_keeps_at_most_its_bound(memo_calls):
    """The table holds at most ``MAX_STREAMS`` streams and drops the one
    used longest ago, where a served run counts as a use: a run on a
    dropped stream runs in full and records again."""
    from repro.sim.engines import memo

    def run(defense, seed):
        simulate_workload("429.mcf", defense=defense, n_entries=300,
                          seed=seed, engine="epoch")

    def seeds():
        return [stream[3] for (stream, _), _ in memo.TABLE.items()]

    for seed in range(memo.MAX_STREAMS):
        run("baseline", seed)
    before = dict(memo_calls)
    run("qprac+proactive", 0)  # served: seed 0 is now the newest
    assert memo_calls == dict(before, served=before["served"] + 1)
    run("baseline", memo.MAX_STREAMS)
    assert len(memo.TABLE) == memo.MAX_STREAMS
    assert seeds() == [*range(2, memo.MAX_STREAMS), 0, memo.MAX_STREAMS]
    before = dict(memo_calls)
    run("qprac+proactive", 1)
    assert memo_calls == dict(before, full=before["full"] + 1)
    assert seeds()[-1] == 1


def test_memo_builds_each_defense_once(memo_calls):
    """On both engines, a run calls the defense factory once per bank —
    recording, served or excluded alike — and once more per bank only
    after a drive that met an Alert."""
    from repro.defenses import resolve_defense
    from repro.obs import Telemetry
    from repro.sim.engines import memo
    from repro.workloads.suites import workload as lookup_workload

    default, alerting = _memo_configs()
    banks = default.org.total_banks

    def calls(engine, defense, config, **kwargs):
        spec = resolve_defense(defense)
        factory = spec.factory()
        flats = []

        def counting_factory(flat, cfg):
            flats.append(flat)
            return factory(flat, cfg)

        EngineSpec(engine).build().simulate(
            lookup_workload("429.mcf"), config, counting_factory,
            n_entries=MEMO_ENTRIES[engine], seed=0,
            variant_name=spec.label, **kwargs,
        )
        return flats

    for engine in MEMO_ENGINES:
        memo.clear()
        aborted = memo_calls["aborted"]
        cells = (
            ("baseline", default, {}),  # records
            ("qprac+proactive", default, {}),  # served
            ("pride:t_rh=256", default, {}),  # cadence: excluded
            ("qprac", default, {"telemetry": Telemetry()}),  # excluded
            ("qprac", alerting, {}),  # aborted drive, then a full run
        )
        for defense, config, kwargs in cells:
            builds = 2 if config is alerting else 1
            assert calls(engine, defense, config, **kwargs) == \
                list(range(banks)) * builds, (engine, defense)
        assert memo_calls["aborted"] == aborted + 1


class CountingDefense(BankDefense):
    """Forwards every hook to a real defense and counts the calls.

    ``on_rfm`` names its parameter differently from every shipped
    defense, so it works only when the engines pass it positionally.
    """

    def __init__(self, inner: BankDefense) -> None:
        self.inner = inner
        self.stats = inner.stats
        self.calls = dict.fromkeys(("on_activation", "on_ref", "on_rfm"), 0)

    def on_activation(self, row):
        self.calls["on_activation"] += 1
        return self.inner.on_activation(row)

    def wants_alert(self):
        return self.inner.wants_alert()

    def on_rfm(self, alerting):
        self.calls["on_rfm"] += 1
        return self.inner.on_rfm(alerting)

    def on_ref(self):
        self.calls["on_ref"] += 1
        return self.inner.on_ref()

    @property
    def rfm_cadence_acts(self):
        return self.inner.rfm_cadence_acts

    @property
    def psq_occupancy(self):
        return self.inner.psq_occupancy


#: The hook-count cells: alert-driven defenses (their memo drives abort
#: at N_BO 16), a cadence defense (never memo-eligible) and an
#: Alert-free proactive one (served from the memo).
HOOK_WORKLOADS = ("429.mcf", "541.leela")
HOOK_DEFENSES = ("qprac", "moat", "pride:t_rh=256", "qprac+proactive")
HOOK_ENTRIES = 4000


def _counted_run(engine, workload, defense, config):
    """One run through ``EngineSpec(engine).build().simulate`` with
    every bank's defense wrapped in a :class:`CountingDefense`: the
    result, and the hook calls summed over the last defense built for
    each bank (those behind the result: a memo drive that aborts at an
    Alert builds a fresh set)."""
    from repro.defenses import resolve_defense
    from repro.workloads.suites import workload as lookup_workload

    spec = resolve_defense(defense)
    factory = spec.factory()
    behind = {}

    def counting_factory(flat, cfg):
        behind[flat] = CountingDefense(factory(flat, cfg))
        return behind[flat]

    result = EngineSpec(engine).build().simulate(
        lookup_workload(workload), config, counting_factory,
        n_entries=HOOK_ENTRIES, seed=0, variant_name=spec.label,
    )
    calls = {
        hook: sum(bank.calls[hook] for bank in behind.values())
        for hook in ("on_activation", "on_ref", "on_rfm")
    }
    return result, calls


@pytest.mark.parametrize(
    "path", ["event", "event-memo", "epoch-replay", "epoch-memo"]
)
def test_differential_hooks_reach_each_defense_once(path, memo_calls):
    """Every hook reaches its defense exactly once, on every engine
    path: the defenses behind a result see one ``on_activation`` per
    ACT, one ``on_ref`` per bank per REF, and one ``on_rfm`` per bank
    per RFM command (all-bank scope) plus one per cadence RFM."""
    from repro.params import default_config
    from repro.sim.engines import memo

    config = default_config().with_prac(n_bo=16)
    per_rank = config.org.banks_per_rank
    engine = path.split("-")[0]
    served = path.endswith("-memo")
    for workload in HOOK_WORKLOADS:
        memo.clear()
        if served:
            # Baseline raises no Alert: it stores the stream's memo.
            simulate_workload(
                workload, defense="baseline", n_entries=HOOK_ENTRIES,
                engine=engine,
            )
            assert _memo_timings() == {config.timing}
        for defense in HOOK_DEFENSES:
            if not served:
                memo.clear()
            result, calls = _counted_run(engine, workload, defense, config)
            assert calls == {
                "on_activation": result.acts,
                "on_ref": result.refs * per_rank,
                "on_rfm": result.rfm_commands * per_rank
                + result.cadence_rfms,
            }, (path, workload, defense)
    if served:
        assert memo_calls["served"] and memo_calls["aborted"]
    else:
        assert memo_calls["served"] == memo_calls["aborted"] == 0


def test_differential_memo_threads_match_serial():
    """On both engines, eight threads race mixed defenses on one shared
    stream (memo stores and reads interleaved at a tiny switch
    interval): every result equals its serial full run."""
    import sys
    import threading

    from repro.sim.engines import memo

    _, alerting = _memo_configs()
    cells = (
        ("baseline", None), ("qprac+proactive", None), ("qprac", alerting),
        ("moat", None), ("pride:t_rh=256", None), ("qprac-noop", alerting),
    )
    for engine in MEMO_ENGINES:
        serial = {
            cell: _full_run(engine, "429.mcf", cell[0], config=cell[1])[0]
            for cell in cells
        }
        results: list[dict | None] = [None] * 8
        errors: list[Exception] = []

        def worker(index):
            try:
                shift = index % len(cells)
                results[index] = {
                    cell: _memo_run(
                        engine, "429.mcf", cell[0], config=cell[1]
                    )[0]
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
            memo.clear()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert all(result == serial for result in results), engine


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
            d = mapper.decode(addr)
            reference[c].append(
                (d.flat_bank(org), d.row, d.channel, is_write, True)
            )
            if writeback is not None:
                d = mapper.decode(writeback)
                reference[c].append(
                    (d.flat_bank(org), d.row, d.channel, True, False)
                )
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


def test_bench_times_full_runs_on_the_event_engine():
    """An Alert-free ``event`` cell measured twice in a row is simulated
    both times: the second is not served from the first's memo."""
    from repro.bench import _measure_cell

    first = _measure_cell("429.mcf", "baseline", 400, engine="event")
    second = _measure_cell("429.mcf", "baseline", 400, engine="event")
    assert first[1] == second[1] > 0
    assert first[2] == second[2]


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
    assert "event" in out and "epoch" in out
