"""Attack-pattern registry tests.

Four layers of guarantees, mirroring the engine tier's
(``test_engines.py``):

* **AttackSpec identity** — string/dict round-trips, sorted-param
  canonicalization, fail-fast validation against the registry, and
  registry-independent serialized form.
* **Generator determinism** — every built-in pattern's trace is
  byte-identical across calls, pinned digests under the golden
  environment for *both* simulation engines, and a
  registry-completeness guard that fails loudly when a pattern is
  registered without golden coverage.
* **Cache-row separation** — attack-keyed sweep jobs can never collide
  with plain workload jobs, with each other across patterns, or across
  parameter points of the same pattern.
* **Worst-pattern search** — ``run_hunt`` ranks deterministically
  (byte-identical digests cold vs. fully cached) with telemetry carried
  through the sweep trace file.

Plus the flat-bank dedup pin: ``hammer_trace`` must produce exactly the
addresses of the hand-rolled decode arithmetic it replaced.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.attacks import (
    AttackRegistry,
    AttackSpec,
    AttackWorkload,
    attack_rows,
    attack_workload,
    bandwidth_targets,
    build_attack_trace,
    registered_attacks,
    resolve_attack,
)
from repro.attacks.hunt import DEFAULT_PATTERNS, run_hunt
from repro.cpu.trace import Trace
from repro.dram.address import AddressMapper, flat_bank_coords
from repro.errors import ConfigError, ReproError
from repro.exp import ResultStore, SweepSpec
from repro.exp.attack import attack_job
from repro.exp.serialize import canonical_json, result_to_dict
from repro.params import DRAMOrganization, default_config
from repro.sim import simulate_workload
from repro.sim.bandwidth import run_bandwidth_attack
from repro.workloads.attacks import hammer_trace
from repro.workloads.synthetic import generate_trace

from test_determinism_golden import needs_golden_env


def result_digest(result) -> str:
    return hashlib.sha256(
        canonical_json(result_to_dict(result)).encode()
    ).hexdigest()


def traces_equal(a: Trace, b: Trace) -> bool:
    return (
        np.array_equal(a.bubbles, b.bubbles)
        and np.array_equal(a.addresses, b.addresses)
        and np.array_equal(a.is_write, b.is_write)
    )


# ----------------------------------------------------------------------
# AttackSpec identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("text,name,params", [
    ("hammer", "hammer", {}),
    ("decoy:reads_per_trefi=4", "decoy", {"reads_per_trefi": 4}),
    ("row-list:rows=1/3/5,bank=2", "row-list", {"rows": "1/3/5", "bank": 2}),
    ("  many-sided : sides=8 ", "many-sided", {"sides": 8}),
])
def test_attack_spec_from_string(text, name, params):
    spec = AttackSpec.from_string(text)
    assert spec.name == name
    assert spec.params_dict == params


@pytest.mark.parametrize("spec", [
    AttackSpec("hammer"),
    AttackSpec.of("decoy", reads_per_trefi=4, self_sync_cycles=2),
    AttackSpec.of("row-list", rows="1/3/5", bank=2),
])
def test_attack_spec_roundtrips(spec):
    assert AttackSpec.from_string(spec.to_string()) == spec
    assert AttackSpec.from_dict(spec.to_dict()) == spec


def test_attack_spec_params_sorted_identity():
    # Construction order can't perturb equality, hashing or labels.
    a = AttackSpec(name="x", params=(("b", 1), ("a", 2)))
    b = AttackSpec(name="x", params=(("a", 2), ("b", 1)))
    assert a == b and hash(a) == hash(b) and a.label == b.label
    assert a.label == "x:a=2,b=1"


def test_attack_spec_rejects_empty_name():
    with pytest.raises(ConfigError):
        AttackSpec("")
    with pytest.raises(ConfigError):
        AttackSpec.from_string(":k=v")


def test_attack_spec_rejects_malformed_dict():
    with pytest.raises(ConfigError):
        AttackSpec.from_dict({"params": {}})
    with pytest.raises(ConfigError):
        AttackSpec.from_dict({"name": "hammer", "params": [1, 2]})


def test_resolve_attack_defaults_and_errors():
    assert resolve_attack("hammer") == AttackSpec("hammer")
    spec = AttackSpec.of("decoy", decoys=4)
    assert resolve_attack(spec) is spec
    with pytest.raises(ReproError):
        resolve_attack("no-such-pattern")
    with pytest.raises(ReproError):
        resolve_attack("hammer:bogus_param=1")
    with pytest.raises(ReproError):
        resolve_attack("hammer:banks=maybe")  # type-checked
    with pytest.raises(ConfigError):
        resolve_attack(42)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
def test_builtin_registry_listing():
    entries = registered_attacks()
    names = [entry.name for entry in entries]
    assert names == sorted(names)
    assert set(names) >= {
        "hammer", "double-sided", "many-sided", "decoy", "row-list"
    }
    decoy = next(e for e in entries if e.name == "decoy")
    assert {p.name for p in decoy.params} == {
        "reads_per_trefi", "decoys", "self_sync_cycles", "banks",
        "sync_bubbles",
    }
    # Every built-in also drives the closed-loop bandwidth attacker.
    assert all(entry.rows is not None for entry in entries)


def test_scoped_registry_duplicates_and_unknowns():
    registry = AttackRegistry()

    @registry.register("solo", summary="one-off")
    def solo(org, n_entries, seed, *, knob: int = 1):
        return build_attack_trace("hammer", n_entries, org, seed)

    with pytest.raises(ConfigError):
        registry.register("solo")(solo)
    with pytest.raises(ReproError):
        registry.entry("absent")
    assert "solo" in registry and len(registry) == 1
    # Scoped resolution: global names are invisible here.
    with pytest.raises(ReproError):
        resolve_attack("hammer", registry=registry)


def test_register_rejects_var_keyword_generators():
    registry = AttackRegistry()
    with pytest.raises(ConfigError):
        @registry.register("greedy")
        def greedy(org, n_entries, seed, **params):
            raise AssertionError("never called")


# ----------------------------------------------------------------------
# Generator determinism + golden digests (both engines)
# ----------------------------------------------------------------------
GOLDEN_CELLS = {
    "hammer": "hammer:banks=4",
    "double-sided": "double-sided:pairs=2",
    "many-sided": "many-sided:sides=6",
    "decoy": "decoy:reads_per_trefi=4",
    "row-list": "row-list:rows=1/7/13,bank=1",
}

#: sha256 of the canonical serialized SystemResult for each pattern at
#: (defense="qprac", n_entries=2000, seed=0), recorded under the golden
#: environment (numpy 2.4.6 / Python 3.11).
GOLDEN_ATTACK_HASHES = {
    "event": {
        "hammer":
            "7f66941429a2c461ec41d3c3a411f6db"
            "27f52e99e443afa0502bb6954a548c64",
        "double-sided":
            "a32edd4f129d0b6e2b8e71860c8b659e"
            "ee1ace8622f80cbfdbe19fb564195721",
        "many-sided":
            "7fd32fe8d75c7ece8a71021145c90154"
            "84ba75d424a960672975db57b2eca370",
        "decoy":
            "976db9f66a24b719b1a9018a8713bff2"
            "f7cbfc37d0c70ad6486f74ced7a64dfc",
        "row-list":
            "e1ad4ea68d3f8561b2dd7dbb17c3da42"
            "074b052781910ae29c54a5ab5b040cab",
    },
    "epoch": {
        "hammer":
            "25e329869598d580c04394dccbb3ca30"
            "0a2b90f80c41bad828e2df26dc4b0519",
        "double-sided":
            "7366fe5b62f23ec32f3d3837f428e53a"
            "84c7ff222544c2fa996f5f98cc4d572c",
        "many-sided":
            "d523bd0f4a901f8218a56f0719a306d5"
            "88aca76b9b1110087103f92293871536",
        "decoy":
            "3f2bd18fdbebb9f97a14a0f4313eb0c8"
            "5918b3dccfcdc7e4fc1b5e13dbb04190",
        "row-list":
            "a9cc29bc61356117bfb572d33dbc1438"
            "81885a5aadc8306153c92e212dad1259",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_trace_generation_is_deterministic(name):
    pattern = GOLDEN_CELLS[name]
    org = DRAMOrganization()
    first = build_attack_trace(pattern, 600, org, seed=3)
    second = build_attack_trace(pattern, 600, org, seed=3)
    assert traces_equal(first, second)
    # A different seed moves the seeded patterns; the fixed playbooks
    # (hammer, row-list) are seed-independent by design.
    moved = build_attack_trace(pattern, 600, org, seed=4)
    if name in ("hammer", "row-list"):
        assert traces_equal(first, moved)
    else:
        assert not np.array_equal(first.addresses, moved.addresses)


@needs_golden_env
@pytest.mark.parametrize("engine", sorted(GOLDEN_ATTACK_HASHES))
@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_golden_attack_digests(engine, name):
    result = simulate_workload(
        attack=GOLDEN_CELLS[name],
        defense="qprac",
        n_entries=2000,
        seed=0,
        engine=engine,
    )
    assert result_digest(result) == GOLDEN_ATTACK_HASHES[engine][name], (
        f"{name} under {engine} drifted from its pinned digest"
    )


def test_every_registered_attack_has_golden_coverage():
    registered = {entry.name for entry in registered_attacks()}
    for engine, table in GOLDEN_ATTACK_HASHES.items():
        missing = registered - set(table)
        assert not missing, (
            f"attack pattern(s) {sorted(missing)} registered without a "
            f"golden digest under the {engine!r} engine — add them to "
            "GOLDEN_ATTACK_HASHES"
        )
    assert registered == set(GOLDEN_CELLS)
    # The hunt's default grid must only name registered patterns, and
    # must search at least four of them.
    families = {resolve_attack(p).name for p in DEFAULT_PATTERNS}
    assert len(DEFAULT_PATTERNS) >= 4
    assert families <= registered


# ----------------------------------------------------------------------
# Bandwidth schedules
# ----------------------------------------------------------------------
def test_attack_rows_built_ins_are_valid():
    org = DRAMOrganization()
    for name, pattern in GOLDEN_CELLS.items():
        rows = attack_rows(pattern, org)
        assert rows, name
        assert all(0 <= row < org.rows_per_bank for row in rows), name


def test_attack_rows_row_list_playbook():
    assert attack_rows("row-list:rows=1/7/13") == [1, 7, 13]
    assert attack_rows("row-list:rows=9") == [9]


def test_attack_rows_rejects_trace_only_and_bad_pools():
    registry = AttackRegistry()

    @registry.register("trace-only")
    def trace_only(org, n_entries, seed):
        return build_attack_trace("hammer", n_entries, org, seed)

    @registry.register("empty-pool", rows=lambda org, seed, params: [])
    def empty_pool(org, n_entries, seed):
        return build_attack_trace("hammer", n_entries, org, seed)

    @registry.register("off-chip", rows=lambda org, seed, params: [10**9])
    def off_chip(org, n_entries, seed):
        return build_attack_trace("hammer", n_entries, org, seed)

    with pytest.raises(ReproError, match="no bandwidth schedule"):
        attack_rows("trace-only", registry=registry)
    with pytest.raises(ReproError, match="empty row pool"):
        attack_rows("empty-pool", registry=registry)
    with pytest.raises(ConfigError, match="outside"):
        attack_rows("off-chip", registry=registry)


def test_bandwidth_targets_match_default_bank_walk():
    """Registry schedules must walk banks exactly like the classic pool
    attacker: flat-bank order over the attacked ranks."""
    org = default_config().org
    rows = attack_rows("decoy:decoys=1", org)
    targets = bandwidth_targets("decoy:decoys=1", org, attack_ranks=1)
    assert len(targets) == org.banks_per_rank
    mapper = AddressMapper(org)
    expected_first = [mapper.compose(row=row, column=0) for row in rows]
    assert targets[0] == expected_first
    assert all(len(pool) == len(rows) for pool in targets)
    # attack_ranks clamps at the machine's rank count.
    everything = bandwidth_targets("decoy:decoys=1", org, attack_ranks=99)
    assert len(everything) == org.channels * org.ranks * org.banks_per_rank


#: sha256 over each registered pattern's whole trace at its defaults
#: (``build_attack_trace(name, 4000, org, seed=7)``: addresses, bubbles,
#: write flags and name) and over its ``bandwidth_targets`` at one and
#: two attacked ranks, recorded before the patterns, ``hammer_trace``
#: and the bandwidth attacker shared one pool builder and one walk.
POOL_PINS = {
    "decoy": (
        "ec5f3127ff30157d686083025906ac2f74d24d9b41374808c363e0f5c79e08a6",
        "ca69cccad4c593f47a1589f2e62383219dd08c365b9d54424ad1eec7871ad8f6",
        "86e14397cf54d967a4dd9f8bea690ea64f582e8be5c4d25104f4c6bf1e5298d4",
    ),
    "double-sided": (
        "3e9a3731d94cc84dcf674858bdc3ed509ab0098cf7dedd87c1a41647eeb8974f",
        "77419b2e18a623461f5f11adc80a1392130747d6dbc39b1586eb0fa7f078f00d",
        "860a9ca7bfc3736780a350e2eef8f1de09d3f2f22e906ddab0f0eb8a56621e7e",
    ),
    "hammer": (
        "e3e05c22701d3a567cfb0c467684e9df7619f7f5c3c0bd121bbbf0f453cff5ef",
        "a3f1e2689afd0334181f275a9f2e9d9025c17febabca6bc3d134e604f6dbcba9",
        "0ce562d6c57943b07d99869fda203629002fdbc72168c7987aac026b241e16d1",
    ),
    "many-sided": (
        "e3600afbd73629a6a03630af1e01462d08df6ee394d3014578c823df092788bc",
        "5287c991d8d6e599134d0165a3f2e06c06e109b73187a44507b67e13b65c9524",
        "dd94b68ca0cc3271f60bda9b64ad35da0f37bcd821acaf956af8df7e76c8ae87",
    ),
    "row-list": (
        "b21afd426c8e88e9fe7602d6e58f7fb538bcd1796056ec9afd74e5bb9cc46c4f",
        "8bba797d82493e485e12e729db4f70553945d3b75eda1b959cf723efad84082e",
        "283f8fbc58c251ecf862ba35b079fac5bd3b148059ee5acb18a749e08f9cc0ca",
    ),
}


@needs_golden_env
@pytest.mark.parametrize("name", sorted(POOL_PINS))
def test_pool_builder_pins(name):
    org = default_config().org
    trace = build_attack_trace(name, 4000, org, seed=7)
    digests = [hashlib.sha256(
        trace.addresses.tobytes() + trace.bubbles.tobytes()
        + trace.is_write.tobytes() + trace.name.encode()
    ).hexdigest()]
    for ranks in (1, 2):
        targets = bandwidth_targets(name, org, attack_ranks=ranks)
        digests.append(
            hashlib.sha256(json.dumps(targets).encode()).hexdigest()
        )
    assert tuple(digests) == POOL_PINS[name]


@pytest.mark.parametrize("defense, ranks, acts, alerts", [
    ("baseline", 1, 5344, 0),
    ("qprac", 1, 5134, 4),
    ("qprac", 2, 9123, 8),
])
def test_default_bandwidth_pool_pin(defense, ranks, acts, alerts):
    """The classic strided pool attacker, pinned before its pool was
    built by ``bank_pools``: the qprac runs climb past N_BO."""
    result = run_bandwidth_attack(
        default_config(), defense=defense, measure_ns=30_000.0,
        pool_rows_per_bank=4, attack_ranks=ranks,
    )
    assert (result.acts, result.alerts) == (acts, alerts)


# ----------------------------------------------------------------------
# AttackWorkload: the workload-path seam
# ----------------------------------------------------------------------
def test_build_attack_trace_validates_n_entries():
    with pytest.raises(ConfigError):
        build_attack_trace("hammer", 0)


def test_generator_error_paths():
    org = DRAMOrganization()
    cases = [
        "hammer:banks=0",
        "hammer:rows_per_bank=1",
        "double-sided:pairs=0",
        "double-sided:victim_gap=0",
        "many-sided:sides=1",
        "many-sided:gap=0",
        "decoy:reads_per_trefi=0",
        "decoy:self_sync_cycles=0",
        "decoy:sync_bubbles=-1",
        "decoy:decoys=-1",
        "row-list:rows=1/x/3",
        "row-list:rows=//",
        "row-list:bank=-1",
    ]
    for pattern in cases:
        with pytest.raises(ConfigError):
            build_attack_trace(pattern, 100, org)


def test_attack_workload_dispatches_through_generate_trace():
    org = DRAMOrganization()
    workload = attack_workload("decoy:reads_per_trefi=4")
    assert isinstance(workload, AttackWorkload)
    assert workload.name == "decoy:reads_per_trefi=4"
    assert workload.suite == "attack"
    via_workload = generate_trace(workload, 500, org, seed=7)
    direct = build_attack_trace(
        "decoy:reads_per_trefi=4", 500, org, seed=7
    )
    assert traces_equal(via_workload, direct)


def test_simulate_workload_requires_exactly_one_source():
    with pytest.raises(ConfigError, match="exactly one"):
        simulate_workload(n_entries=100)
    with pytest.raises(ConfigError, match="exactly one"):
        simulate_workload("429.mcf", attack="hammer", n_entries=100)


# ----------------------------------------------------------------------
# Cache-key separation
# ----------------------------------------------------------------------
def test_attack_jobs_never_collide_with_workload_jobs():
    spec = SweepSpec.build(
        workloads=("541.leela",),
        defenses=("qprac",),
        attacks=("hammer:banks=4", "hammer:banks=8", "decoy"),
        include_baseline=False,
        n_entries=400,
    )
    jobs = spec.expand()
    keys = [job.cache_key() for job in jobs]
    assert len(set(keys)) == len(keys)
    attacks = [job for job in jobs if job.attack is not None]
    assert len(attacks) == 3
    plain = [job for job in jobs if job.attack is None]
    assert [job.workload.name for job in plain] == ["541.leela"]
    # Same pattern, different params: distinct identities.
    banks4, banks8 = (
        job for job in attacks if job.workload.name.startswith("hammer")
    )
    assert banks4.cache_key() != banks8.cache_key()
    # The serialized spec is registry-independent: identity comes from
    # the attack's own (name, params) only.
    assert banks4.attack.to_dict() == {
        "name": "hammer", "params": {"banks": 4},
    }


def test_sweep_spec_rejects_duplicate_attacks():
    with pytest.raises(ConfigError, match="duplicate"):
        SweepSpec.build(
            workloads=(),
            defenses=("qprac",),
            attacks=("decoy", "decoy"),
            n_entries=400,
        )


def test_sweep_spec_needs_some_traffic():
    with pytest.raises(ConfigError, match="workload or attack"):
        SweepSpec.build(workloads=(), defenses=("qprac",), n_entries=400)


# ----------------------------------------------------------------------
# AttackJob labels (bandwidth-attack orchestration)
# ----------------------------------------------------------------------
def test_attack_job_labels_name_the_pattern():
    pool = attack_job("qprac", pool_rows_per_bank=12, attack_ranks=2)
    assert pool.pattern_label == "pool:ranks=2,rows=12"
    assert pool.label == "attack[pool:ranks=2,rows=12]/qprac"
    patterned = attack_job("qprac", attack="decoy:decoys=4")
    assert patterned.label == "attack[decoy:decoys=4]/qprac"
    other = attack_job("qprac", attack="decoy:decoys=6")
    # Two jobs differing only in attack parameters render apart and
    # cache apart.
    assert patterned.label != other.label
    assert len({
        pool.cache_key(), patterned.cache_key(), other.cache_key()
    }) == 3
    with pytest.raises(ReproError):
        attack_job("qprac", attack="no-such-pattern")


# ----------------------------------------------------------------------
# hammer_trace flat-bank dedup pin
# ----------------------------------------------------------------------
def test_hammer_trace_addresses_match_hand_rolled_decode():
    """The canonical ``flat_bank_coords`` decode must reproduce the
    hand-rolled arithmetic it replaced, byte for byte."""
    org = DRAMOrganization()
    banks, rows_per_bank, row_stride, n = 11, 3, 64, 700
    mapper = AddressMapper(org)
    per_rank = org.banks_per_rank
    bank_addrs = []
    for flat in range(banks):
        rank_index = flat // per_rank
        rem = flat % per_rank
        rows = [
            mapper.compose(
                row=(i * row_stride) % org.rows_per_bank,
                column=0,
                channel=rank_index // org.ranks,
                rank=rank_index % org.ranks,
                bankgroup=rem // org.banks_per_group,
                bank=rem % org.banks_per_group,
            )
            for i in range(rows_per_bank)
        ]
        bank_addrs.append(rows)
    expected = np.array(
        [
            bank_addrs[i % banks][(i // banks) % rows_per_bank]
            for i in range(n)
        ],
        dtype=np.int64,
    )
    trace = hammer_trace(
        org, n_entries=n, banks=banks,
        rows_per_bank=rows_per_bank, row_stride=row_stride,
    )
    assert np.array_equal(trace.addresses, expected)
    # The registered "hammer" pattern is the same generator verbatim.
    registered = build_attack_trace(
        AttackSpec.of(
            "hammer", banks=banks, rows_per_bank=rows_per_bank,
            row_stride=row_stride,
        ),
        n, org,
    )
    assert traces_equal(registered, trace)


def _decoy_loop_reference(org, n_entries, seed, reads_per_trefi, decoys,
                          self_sync_cycles, banks, sync_bubbles):
    """The ``decoy`` generator as first written: one Python loop over
    accesses, composing each bank's block by hand."""
    from repro.attacks.builtin import _decoy_row_set

    aggressors, decoy_rows = _decoy_row_set(org, seed, decoys)
    block = [aggressors[i % 2] for i in range(reads_per_trefi)] + decoy_rows
    mapper = AddressMapper(org)
    pools = []
    for flat in range(banks):
        channel, rank, bankgroup, bank = flat_bank_coords(flat, org)
        pools.append([
            mapper.compose(row=row, column=0, channel=channel, rank=rank,
                           bankgroup=bankgroup, bank=bank)
            for row in block
        ])
    addresses, bubbles = [], []
    for i in range(n_entries):
        position = i // banks
        within = position % len(block)
        addresses.append(pools[i % banks][within])
        sync = within == 0 and position // len(block) % self_sync_cycles == 0
        bubbles.append(sync_bubbles if sync else 0)
    return addresses, bubbles


@pytest.mark.parametrize("params", [
    dict(reads_per_trefi=8, decoys=2, self_sync_cycles=4, banks=4,
         sync_bubbles=64),
    dict(reads_per_trefi=1, decoys=0, self_sync_cycles=1, banks=1,
         sync_bubbles=5),
    dict(reads_per_trefi=5, decoys=3, self_sync_cycles=3, banks=7,
         sync_bubbles=0),
])
def test_decoy_walk_matches_the_loop_reference(params):
    org = default_config().org
    spec = AttackSpec.of("decoy", **params)
    trace = build_attack_trace(spec, 997, org, seed=3)
    addresses, bubbles = _decoy_loop_reference(org, 997, 3, **params)
    assert trace.addresses.tolist() == addresses
    assert trace.bubbles.tolist() == bubbles


# ----------------------------------------------------------------------
# Worst-pattern search
# ----------------------------------------------------------------------
HUNT_GRID = ("hammer:banks=4", "decoy:reads_per_trefi=4")


def test_hunt_ranks_deterministically(tmp_path):
    store = ResultStore(tmp_path)
    cold = run_hunt(
        ["qprac"], patterns=HUNT_GRID, n_entries=800, store=store
    )
    assert set(cold.rankings) == {"qprac"}
    scores = cold.rankings["qprac"]
    assert [s.pattern for s in scores] == sorted(
        (s.pattern for s in scores),
        key=lambda p: next(x.sort_key for x in scores if x.pattern == p),
    )
    assert {s.pattern for s in scores} == set(HUNT_GRID)
    assert cold.worst("qprac") is scores[0]
    with pytest.raises(ConfigError, match="no hunt ranking"):
        cold.worst("no-such-defense")
    report = cold.to_dict()
    assert report["kind"] == "hunt_report"
    assert sorted(report["patterns"]) == sorted(HUNT_GRID)
    # A fully cached replay — telemetry carried forward from the sweep
    # trace file — must reproduce the report byte for byte.
    warm = run_hunt(
        ["qprac"], patterns=HUNT_GRID, n_entries=800, store=store
    )
    assert all(o.from_cache for o in warm.sweep.outcomes)
    assert warm.digest() == cold.digest()


def test_cold_hunt_skips_trace_read(tmp_path, monkeypatch):
    """A cold hunt executes every job, so no outcome needs telemetry
    from the sweep trace and the trace is never read; a cached hunt
    reads its previous trace exactly once, wherever the read happens
    (``run_sweep`` carries the telemetry onto cached outcomes, so the
    hunt itself never re-reads the trace it just wrote)."""
    import repro.attacks.hunt as hunt
    import repro.exp.runner as runner
    from repro.obs import read_trace

    reads = []

    def spy(path):
        reads.append(str(path))
        return read_trace(path)

    for module in (runner, hunt):
        if hasattr(module, "read_trace"):
            monkeypatch.setattr(module, "read_trace", spy)
    store = ResultStore(tmp_path)
    cold = run_hunt(
        ["qprac"], patterns=HUNT_GRID, n_entries=800, store=store
    )
    assert cold.sweep.trace_path is not None
    assert reads == []
    warm = run_hunt(
        ["qprac"], patterns=HUNT_GRID, n_entries=800, store=store
    )
    assert reads == [warm.sweep.trace_path]
    assert warm.digest() == cold.digest()


def test_hunt_validates_inputs():
    with pytest.raises(ConfigError, match="at least one attack"):
        run_hunt(["qprac"], patterns=())
    with pytest.raises(ConfigError, match="at least one defense"):
        run_hunt([], patterns=HUNT_GRID)
    with pytest.raises(ReproError):
        run_hunt(["qprac"], patterns=("no-such-pattern",))
