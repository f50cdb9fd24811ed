"""Golden-hash determinism tests for the simulator hot path.

The hot-path overhauls (allocation-free event loop, the PSQ's ordered
layout, decode-once requests) promise **byte-identical** results.  These
tests pin that promise down three ways:

* *Golden hashes*: SHA-256 digests of the canonical-JSON serialization
  of ``simulate_workload`` results, recorded on the pre-optimization
  simulator.  Any numerical drift — one row hit counted differently, a
  single event reordered — changes the digest.
* *Parallel equivalence*: a ``jobs=4`` sweep must produce the same
  payload bytes and the same cache rows as ``jobs=1`` and as a plain
  in-process loop.
* *Differential PSQ*: the bisect-ordered queue is driven through
  randomized operation streams in lockstep with
  :class:`~repro.core.psq.ReferencePriorityServiceQueue` (the retained
  scan-per-call implementation) and must agree on every observable after
  every operation.

The golden digests depend on the trace generator's RNG streams, which
NumPy only guarantees within a release line (NEP 19), so those tests
skip — loudly — on other numpy/python versions; the relative tests
(jobs, PSQ) run everywhere.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.psq import (
    PriorityServiceQueue,
    ReferencePriorityServiceQueue,
)
from repro.exp import ResultStore, SweepSpec, run_sweep
from repro.exp.serialize import (
    canonical_json,
    environment_fingerprint,
    result_to_dict,
)
from repro.sim import simulate_workload

#: Environment the golden digests were recorded under.
GOLDEN_ENVIRONMENT = {"numpy": "2.4.6", "python": "3.11"}

#: (workload, defense, n_entries, seed) -> sha256 of the result's
#: canonical JSON, recorded on the pre-optimization simulator (PR 3).
GOLDEN_HASHES = {
    ("429.mcf", "qprac", 4000, 0):
        "978427c4d7c88bcde334a574d62551ef5b1c894174dafd4561356f31ff7288b2",
    ("429.mcf", "baseline", 4000, 0):
        "94b1be55d221ff0ddb0e684f3f97e230fba8525bb1bad8bd76ce71ed7ad11470",
    ("470.lbm", "qprac+proactive", 4000, 0):
        "a2d74be328a06d19c17da7a7ab569b1f49d6224bef7d5aade0de2ab2dcfcba0f",
    ("ycsb-a", "moat", 4000, 0):
        "0697d05588b99f04d181badf83055931fed6f5cf7bfe4357b2bd295ad4f6e6c4",
}

#: One pinned digest per registered defense (429.mcf, 2000 entries,
#: seed 0) so hot-path work can't silently perturb non-QPRAC variants.
#: Parameterized defenses are pinned at the t_rh the figure benchmarks
#: use.  Recorded under GOLDEN_ENVIRONMENT, post-PR-3 simulator.
GOLDEN_DEFENSE_HASHES = {
    "baseline":
        "93a17b2eea3a4472b01b196497888d35673bcb41e24851eb902c8e1f9f512321",
    "qprac":
        "897704acb0ad6db9c9ee73dde1cd59b8c5cb340cd48309313cfe068474aa48f6",
    "qprac-noop":
        "b5a246debd17d8a00d13bad37960755029c286ea9b1dc2c8eacf963d06b86278",
    "qprac+proactive":
        "745e75c7eb7eb06c8314cd7adc299869cb34e8652137c11b7d132ec09e33c868",
    "qprac+proactive-ea":
        "f16711316a5badc37b2dd721f09168c7981cafb1c17f194203c7d1194d1e0252",
    "qprac-ideal":
        "b46625922184f93097b1801674a08359406aa255c769ceda929abf4faf8b17bf",
    "moat":
        "6ca0f748d86135671fd15a644e50c7b5559da2b549efa25d1a0b3d8cf23609cf",
    "panopticon":
        "ede049f387ff62f469129bbdea97974a998062d18b0efed0746c64c77f1c0afc",
    "pride:t_rh=256":
        "1a9682679065abca450e1d07e42c2d52746ae8137580c1c58773387c7639f8f9",
    "mithril:t_rh=256":
        "ce7b9b6465e56b51792f4742f556fb70a7f2554b6ed2ec1d2fd0c65ea256cc08",
    "uprac":
        "2242e3c1216f948db78586db9a5133d2a4717d88e08db999b7f9d65be62d3a0d",
}

needs_golden_env = pytest.mark.skipif(
    environment_fingerprint() != GOLDEN_ENVIRONMENT,
    reason=(
        "golden digests were recorded under "
        f"{GOLDEN_ENVIRONMENT}; this environment is "
        f"{environment_fingerprint()} and NumPy RNG streams are only "
        "stable within a release (NEP 19)"
    ),
)


def result_digest(result) -> str:
    """Canonical byte-stable digest of a SystemResult."""
    return hashlib.sha256(
        canonical_json(result_to_dict(result)).encode()
    ).hexdigest()


@needs_golden_env
@pytest.mark.parametrize(
    "workload,defense,n_entries,seed",
    sorted(GOLDEN_HASHES),
    ids=lambda v: str(v),
)
def test_simulate_workload_matches_pre_refactor_golden(
    workload, defense, n_entries, seed
):
    result = simulate_workload(
        workload, defense=defense, n_entries=n_entries, seed=seed
    )
    assert result_digest(result) == GOLDEN_HASHES[
        (workload, defense, n_entries, seed)
    ]


@needs_golden_env
@pytest.mark.parametrize("defense", sorted(GOLDEN_DEFENSE_HASHES))
def test_every_registered_defense_matches_golden(defense):
    """Every defense family — not just QPRAC — is pinned byte-for-byte,
    so future hot-path work can't silently perturb a non-QPRAC variant."""
    result = simulate_workload(
        "429.mcf", defense=defense, n_entries=2000, seed=0
    )
    assert result_digest(result) == GOLDEN_DEFENSE_HASHES[defense]


def test_golden_table_covers_every_registered_defense():
    """The pinned table tracks the registry: registering a defense
    without pinning its digest fails loudly (parameterless defenses are
    pinned by bare name; parameterized ones at a chosen operating point)."""
    from repro.defenses import registered_defenses

    pinned_families = {name.split(":")[0] for name in GOLDEN_DEFENSE_HASHES}
    registered = {entry.name for entry in registered_defenses()}
    assert registered == pinned_families


@needs_golden_env
def test_golden_stable_across_repeated_runs():
    """Two runs in one process (warm trace cache) are byte-identical."""
    first = simulate_workload("429.mcf", defense="qprac", n_entries=2000)
    second = simulate_workload("429.mcf", defense="qprac", n_entries=2000)
    assert result_digest(first) == result_digest(second)


# ----------------------------------------------------------------------
# jobs=1 vs jobs=4: payloads and cache rows
# ----------------------------------------------------------------------
def _sweep_spec():
    return SweepSpec.build(
        ["429.mcf", "ycsb-a"],
        ["qprac", "moat"],
        n_entries=800,
    )


def _payload_digests(sweep) -> list[str]:
    return [
        hashlib.sha256(
            canonical_json(result_to_dict(o.result)).encode()
        ).hexdigest()
        for o in sweep.outcomes
    ]


def test_sweep_identical_at_every_jobs_count(tmp_path):
    """jobs=1 and jobs=4 produce identical payloads *and* cache rows."""
    store1 = ResultStore(tmp_path / "jobs1")
    store4 = ResultStore(tmp_path / "jobs4")
    sweep1 = run_sweep(_sweep_spec(), jobs=1, store=store1)
    sweep4 = run_sweep(_sweep_spec(), jobs=4, store=store4)
    assert _payload_digests(sweep1) == _payload_digests(sweep4)
    assert sweep1.executed == sweep4.executed == sweep1.total_jobs

    def rows(store):
        lines = store.path.read_text().splitlines()
        return sorted(
            json.dumps(json.loads(line), sort_keys=True) for line in lines
        )

    # The durable JSONL rows — keys and payload bytes — are identical.
    assert rows(store1) == rows(store4)

    # A cached replay reconstitutes the exact same results.
    replay = run_sweep(_sweep_spec(), jobs=1, store=ResultStore(tmp_path / "jobs1"))
    assert replay.cache_hits == replay.total_jobs
    assert _payload_digests(replay) == _payload_digests(sweep1)


def test_sweep_matches_direct_simulation():
    """The orchestrator adds no numeric drift over direct calls."""
    sweep = run_sweep(_sweep_spec(), jobs=1, store=None)
    for outcome in sweep.outcomes:
        direct = simulate_workload(
            outcome.job.workload,
            config=outcome.job.config,
            defense=outcome.job.defense,
            n_entries=outcome.job.n_entries,
            seed=outcome.job.seed,
        )
        assert result_digest(direct) == result_digest(outcome.result)


# ----------------------------------------------------------------------
# Differential test: bisect-ordered PSQ vs the retained reference
# ----------------------------------------------------------------------
def _observable_state(psq) -> tuple:
    return (
        len(psq),
        psq.snapshot(),
        psq.max_count(),
        psq.min_count(),
        psq.is_full,
        psq.inserts,
        psq.evictions,
        psq.hits,
        psq.rejected,
    )


@pytest.mark.parametrize("size", [1, 2, 5, 8, 16, 64])
@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_psq_fast_path_matches_reference(size, strict, seed):
    """Randomized lockstep: every op, every observable, both queues.

    At 16 and 64 entries the row universe grows with the queue, so hits
    move entries across long ordered lists."""
    rng = random.Random(seed * 1000 + size * 10 + strict)
    fast = PriorityServiceQueue(size, strict_insertion=strict)
    ref = ReferencePriorityServiceQueue(size, strict_insertion=strict)
    rows = list(range(max(12, size + size // 2)))
    for step in range(600):
        op = rng.random()
        if op < 0.70:
            row = rng.choice(rows)
            count = rng.randint(0, 40)
            assert fast.observe(row, count) == ref.observe(row, count), (
                f"step {step}: observe({row}, {count}) diverged"
            )
        elif op < 0.80 and len(fast):
            popped_fast = fast.pop_top()
            popped_ref = ref.pop_top()
            assert (popped_fast.row, popped_fast.count) == (
                popped_ref.row, popped_ref.count,
            ), f"step {step}: pop_top diverged"
        elif op < 0.90:
            row = rng.choice(rows)
            assert fast.remove(row) == ref.remove(row)
        elif op < 0.93:
            fast.clear()
            ref.clear()
        else:
            row = rng.choice(rows)
            assert fast.count_of(row) == ref.count_of(row)
            assert (row in fast) == (row in ref)
        assert _observable_state(fast) == _observable_state(ref), (
            f"step {step}: state diverged"
        )


def test_psq_monotonic_stream_matches_reference():
    """The simulator's real pattern: per-row counters only count up."""
    fast = PriorityServiceQueue(5)
    ref = ReferencePriorityServiceQueue(5)
    counters = {row: 0 for row in range(30)}
    rng = random.Random(42)
    for _ in range(2000):
        row = rng.randrange(30)
        counters[row] += 1
        assert fast.observe(row, counters[row]) == ref.observe(
            row, counters[row]
        )
        assert fast.max_count() == ref.max_count()
        assert fast.min_count() == ref.min_count()
        top_fast, top_ref = fast.top(), ref.top()
        assert (top_fast.row, top_fast.count) == (top_ref.row, top_ref.count)
    assert fast.snapshot() == ref.snapshot()


# ----------------------------------------------------------------------
# Differential test: the inlined LLC path in MulticoreSystem._issue_access
# must stay equivalent to the canonical SetAssociativeCache.access
# ----------------------------------------------------------------------
def test_inlined_llc_path_matches_canonical_cache(monkeypatch):
    """Swap the inlined hot path for the canonical cache calls and assert
    the simulation is byte-identical — guards the 'keep in sync' copy."""
    from repro.cpu.system import MulticoreSystem

    def reference_issue_access(self, core_id, addr, is_write, time, callback):
        hit, writeback = self.llc.access(addr, is_write)
        llc_done = time + self._llc_latency_ns
        if hit:
            if callback is not None:
                self.events.schedule_future(llc_done, callback)
        else:
            self.memory.enqueue(
                addr, is_write, llc_done, callback=callback, core_id=core_id
            )
        if writeback is not None:
            self.memory.enqueue(writeback, True, llc_done, callback=None)

    fast = simulate_workload("429.mcf", defense="qprac", n_entries=1500)
    monkeypatch.setattr(
        MulticoreSystem, "_issue_access", reference_issue_access
    )
    reference = simulate_workload("429.mcf", defense="qprac", n_entries=1500)
    assert result_digest(fast) == result_digest(reference)


def test_inline_enqueue_decode_matches_mapper(monkeypatch):
    """The bit slicing inlined in MemorySystem.enqueue must agree with
    AddressMapper.decode for every address a trace can produce."""
    import random

    from repro.dram.address import AddressMapper
    from repro.params import DRAMOrganization
    from repro.controller.memctrl import MemorySystem
    from repro.engine import EventQueue
    from repro.params import default_config
    from repro.defenses import DefenseSpec

    config = default_config()
    system = MemorySystem(
        config, EventQueue(), DefenseSpec("baseline").factory()
    )
    mapper = AddressMapper(config.org)
    rng = random.Random(7)
    max_addr = 1 << mapper.address_bits
    for _ in range(500):
        addr = rng.randrange(max_addr)
        req = system.enqueue(addr, False, 0.0)
        decoded = mapper.decode(addr)
        assert (
            req.channel, req.rank, req.bankgroup, req.bank, req.row,
            req.column,
        ) == (
            decoded.channel, decoded.rank, decoded.bankgroup, decoded.bank,
            decoded.row, decoded.column,
        )
        # Routed to the same bank the mapper names (nothing pops the
        # pending queue until events run).
        flat = decoded.flat_bank(config.org)
        assert system.banks[flat].pending[-1] is req
