"""Property-based differential tests (seeded random programs, no deps).

``tests/test_determinism_golden.py`` pins fixed vectors; these tests
generate whole random *operation programs* from seeds and drive the
optimized implementations against their retained executable
specifications:

* :class:`~repro.core.psq.PriorityServiceQueue` (bisect-ordered
  entries) vs :class:`~repro.core.psq.ReferencePriorityServiceQueue`
  (scan per call) over randomized geometries, policies and op mixes —
  including adversarial shapes the fixed vectors never reach (count
  *decreases* on hit, churn at capacity 1, clears mid-stream).
* :meth:`~repro.dram.address.AddressMapper.decode` (bit slicing) and
  the flat bank index vs an independent reference decoder written from
  the documented layout, plus encode/decode round-trip laws, over random
  DRAM organizations.

Everything is seeded ``random.Random`` — failures reproduce exactly
from the parametrized seed, and no new dependency is involved.
"""

from __future__ import annotations

import random

import pytest

from repro.core.psq import PriorityServiceQueue, ReferencePriorityServiceQueue
from repro.dram.address import AddressMapper, DramAddress
from repro.params import DRAMOrganization

# ----------------------------------------------------------------------
# PSQ: random programs in lockstep with the executable specification
# ----------------------------------------------------------------------


def _observable(psq) -> tuple:
    """Everything the simulator can see, in one comparable value."""
    return (
        len(psq),
        psq.snapshot(),
        psq.max_count(),
        psq.min_count(),
        psq.is_full,
        psq.top().row if len(psq) else None,
        psq.inserts,
        psq.evictions,
        psq.hits,
        psq.rejected,
    )


def _random_program(rng: random.Random, rows: int, steps: int):
    """Yield a seeded random operation stream over a small row universe.

    Weights skew toward ``observe`` (the simulator's hot operation) but
    every mutation and query appears, and counts move arbitrarily —
    including *down* on a hit, a path the monotonic simulator never
    takes but the CAM contract must still honour.
    """
    for _ in range(steps):
        op = rng.random()
        if op < 0.65:
            yield ("observe", rng.randrange(rows), rng.randint(0, 50))
        elif op < 0.75:
            yield ("pop_top",)
        elif op < 0.85:
            yield ("remove", rng.randrange(rows))
        elif op < 0.88:
            yield ("clear",)
        else:
            yield ("query", rng.randrange(rows))


@pytest.mark.parametrize("seed", range(20))
def test_psq_random_program_matches_reference(seed):
    """Random geometry + random program, observables compared per step."""
    rng = random.Random(7_000 + seed)
    size = rng.randint(1, 12)
    strict = rng.random() < 0.5
    rows = rng.randint(2, 24)
    fast = PriorityServiceQueue(size, strict_insertion=strict)
    ref = ReferencePriorityServiceQueue(size, strict_insertion=strict)
    for step, op in enumerate(_random_program(rng, rows, 700)):
        if op[0] == "observe":
            _, row, count = op
            assert fast.observe(row, count) == ref.observe(row, count), (
                f"seed {seed} step {step}: observe({row},{count}) diverged"
            )
        elif op[0] == "pop_top":
            if len(fast):
                popped_fast, popped_ref = fast.pop_top(), ref.pop_top()
                assert (popped_fast.row, popped_fast.count) == (
                    popped_ref.row, popped_ref.count,
                ), f"seed {seed} step {step}: pop_top diverged"
        elif op[0] == "remove":
            assert fast.remove(op[1]) == ref.remove(op[1])
        elif op[0] == "clear":
            fast.clear()
            ref.clear()
        else:
            assert fast.count_of(op[1]) == ref.count_of(op[1])
            assert (op[1] in fast) == (op[1] in ref)
        assert _observable(fast) == _observable(ref), (
            f"seed {seed} step {step} after {op}: state diverged"
        )


@pytest.mark.parametrize("seed", range(8))
def test_psq_capacity_one_churn_matches_reference(seed):
    """Size-1 queues maximize evict/replace churn at both list ends."""
    rng = random.Random(31_000 + seed)
    fast = PriorityServiceQueue(1)
    ref = ReferencePriorityServiceQueue(1)
    for _ in range(400):
        row, count = rng.randrange(6), rng.randint(0, 9)
        assert fast.observe(row, count) == ref.observe(row, count)
        assert _observable(fast) == _observable(ref)


@pytest.mark.parametrize("seed", range(8))
def test_psq_always_full_invariant_under_random_streams(seed):
    """The paper's security property (Section IV-B): under the
    simulator's real pattern — per-row activation counters only count
    up — a full queue never shrinks and its stored minimum never
    decreases except through mitigation (pop/remove/clear)."""
    rng = random.Random(47_000 + seed)
    size = rng.randint(2, 8)
    psq = PriorityServiceQueue(size)
    counters = [0] * 30
    floor = 0
    for _ in range(600):
        row = rng.randrange(30)
        counters[row] += rng.randint(1, 3)
        psq.observe(row, counters[row])
        if psq.is_full:
            assert len(psq) == size
            assert psq.min_count() >= floor
            floor = psq.min_count()


# ----------------------------------------------------------------------
# decode: independent reference decoder + round-trip laws
# ----------------------------------------------------------------------


def _reference_decode(org: DRAMOrganization, phys_addr: int):
    """Straight-line reference decoder, written from the documented
    layout (offset | column | bankgroup | bank | rank | channel | row)
    with arithmetic div/mod instead of the mapper's masks and shifts —
    an independent implementation, not a copy."""
    a = phys_addr // org.line_size_bytes
    column = a % org.columns_per_row
    a //= org.columns_per_row
    bankgroup = a % org.bankgroups
    a //= org.bankgroups
    bank = a % org.banks_per_group
    a //= org.banks_per_group
    rank = a % org.ranks
    a //= org.ranks
    channel = a % org.channels
    a //= org.channels
    row = a % org.rows_per_bank
    return channel, rank, bankgroup, bank, row, column


def _random_org(rng: random.Random) -> DRAMOrganization:
    line_size = rng.choice((32, 64, 128))
    columns = rng.choice((1 << 5, 1 << 7, 1 << 10))
    return DRAMOrganization(
        channels=rng.choice((1, 2)),
        ranks=rng.choice((1, 2)),
        bankgroups=rng.choice((1, 2, 4, 8)),
        banks_per_group=rng.choice((1, 2, 4)),
        rows_per_bank=rng.choice((1 << 8, 1 << 10, 1 << 13, 1 << 16)),
        row_size_bytes=line_size * columns,
        line_size_bytes=line_size,
    )


@pytest.mark.parametrize("seed", range(12))
def test_decode_flat_matches_independent_reference(seed):
    """Random organizations x random addresses: the bit slicer agrees
    with div/mod arithmetic on every field, and the flat bank index
    agrees with the vectorized decode's."""
    import numpy as np

    rng = random.Random(90_000 + seed)
    org = _random_org(rng)
    mapper = AddressMapper(org)
    max_addr = 1 << mapper.address_bits
    addrs = [rng.randrange(max_addr) for _ in range(300)]
    flats = mapper.decode_arrays(np.array(addrs, dtype=np.int64))[6]
    for addr, flat in zip(addrs, flats.tolist()):
        decoded = mapper.decode(addr)
        assert decoded == DramAddress(*_reference_decode(org, addr)), (
            f"seed {seed}: decode({addr:#x}) diverged"
        )
        assert decoded.flat_bank(org) == flat


@pytest.mark.parametrize("seed", range(12))
def test_encode_decode_roundtrip_random_coordinates(seed):
    """compose(coords) -> decode is the identity on coordinates, and
    decode -> encode is the identity on line-aligned addresses."""
    rng = random.Random(91_000 + seed)
    org = _random_org(rng)
    mapper = AddressMapper(org)
    for _ in range(200):
        coords = dict(
            row=rng.randrange(org.rows_per_bank),
            column=rng.randrange(org.columns_per_row),
            channel=rng.randrange(org.channels),
            rank=rng.randrange(org.ranks),
            bankgroup=rng.randrange(org.bankgroups),
            bank=rng.randrange(org.banks_per_group),
        )
        addr = mapper.compose(**coords)
        assert mapper.decode(addr) == DramAddress(**coords)
        assert mapper.encode(mapper.decode(addr)) == addr
