"""Built-in attack patterns: the registry's parameterized adversaries.

Five pattern families cover the adversarial repertoire the PRAC
literature evaluates against:

* ``hammer`` — the classic multi-bank row hammer (wraps the original
  :func:`~repro.workloads.attacks.hammer_trace`): alternate rows per
  bank so every access is an activation;
* ``double-sided`` — aggressor pairs sandwiching victim rows, the
  highest-flip-rate classical pattern;
* ``many-sided`` — N-sided hammering (N aggressors with victims
  interleaved), the TRR-evasion generalisation;
* ``decoy`` — decoy + refresh-sync hammering in the style of
  reads-per-tREFI fuzzers: bursts of aggressor reads padded with decoy
  rows, periodically stalling to self-synchronise with refresh;
* ``row-list`` — explicit row playbooks (litex rowhammer-tester style):
  a slash-separated row list cycled on one bank.

Every generator is deterministic in ``(org, n_entries, seed, params)``:
row placement draws from a SHA-256-mixed stream (pattern name + seed),
never global state.  Patterns that hammer a fixed row pool also register
a ``rows`` schedule, so the closed-loop bandwidth attacker
(:mod:`repro.sim.bandwidth`) can cycle the same aggressors.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.attacks.registry import register_attack
from repro.cpu.trace import Trace
from repro.dram.address import bank_pools
from repro.errors import ConfigError
from repro.params import DRAMOrganization
from repro.workloads.attacks import hammer_trace, round_robin_trace


def _pattern_rng(name: str, seed: int) -> np.random.Generator:
    """Deterministic per-(pattern, seed) stream, mixed like the synthetic
    generator's so distinct patterns never share draws."""
    digest = hashlib.sha256(f"attack:{name}:{seed}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _check_banks(org: DRAMOrganization, banks: int) -> None:
    if banks < 1 or banks > org.total_banks:
        raise ConfigError(f"banks must be in [1, {org.total_banks}]")


def _seeded_base(
    rng: np.random.Generator, org: DRAMOrganization, span: int
) -> int:
    """A seeded base row leaving ``span`` rows of headroom above it."""
    if span + 2 >= org.rows_per_bank:
        raise ConfigError(
            f"pattern spans {span} rows; organization only has "
            f"{org.rows_per_bank} per bank"
        )
    return int(rng.integers(1, org.rows_per_bank - span))


# ---------------------------------------------------------------------------
# hammer


def _hammer_rows(org: DRAMOrganization, seed: int, params: dict) -> list[int]:
    del seed  # a fixed stride pattern: nothing to draw
    return [
        (i * params["row_stride"]) % org.rows_per_bank
        for i in range(params["rows_per_bank"])
    ]


@register_attack(
    "hammer",
    summary="classic multi-bank hammer: alternate strided rows per bank",
    rows=_hammer_rows,
)
def hammer(
    org: DRAMOrganization,
    n_entries: int,
    seed: int,
    *,
    banks: int = 8,
    rows_per_bank: int = 2,
    row_stride: int = 64,
    bubbles: int = 0,
) -> Trace:
    del seed  # a fixed stride pattern: nothing to draw
    return hammer_trace(
        org,
        n_entries=n_entries,
        banks=banks,
        rows_per_bank=rows_per_bank,
        row_stride=row_stride,
        bubbles=bubbles,
    )


# ---------------------------------------------------------------------------
# double-sided


def _double_sided_row_set(
    org: DRAMOrganization, seed: int, pairs: int, victim_gap: int
) -> list[int]:
    if pairs < 1:
        raise ConfigError("pairs must be >= 1")
    if victim_gap < 1:
        raise ConfigError("victim_gap must be >= 1")
    stride = victim_gap + 2
    rng = _pattern_rng("double-sided", seed)
    base = _seeded_base(rng, org, pairs * stride + 2)
    rows: list[int] = []
    for pair in range(pairs):
        victim = base + pair * stride
        rows.extend((victim - 1, victim + 1))
    return rows


def _double_sided_rows(
    org: DRAMOrganization, seed: int, params: dict
) -> list[int]:
    return _double_sided_row_set(
        org, seed, params["pairs"], params["victim_gap"]
    )


@register_attack(
    "double-sided",
    summary="aggressor pairs sandwiching seeded victim rows",
    rows=_double_sided_rows,
)
def double_sided(
    org: DRAMOrganization,
    n_entries: int,
    seed: int,
    *,
    pairs: int = 1,
    victim_gap: int = 2,
    banks: int = 8,
    bubbles: int = 0,
) -> Trace:
    _check_banks(org, banks)
    rows = _double_sided_row_set(org, seed, pairs, victim_gap)
    return round_robin_trace(
        bank_pools(org, range(banks), rows), n_entries, bubbles,
        name=f"double-sided-{pairs}p",
    )


# ---------------------------------------------------------------------------
# many-sided


def _many_sided_row_set(
    org: DRAMOrganization, seed: int, sides: int, gap: int
) -> list[int]:
    if sides < 2:
        raise ConfigError("sides must be >= 2 (use hammer for one row)")
    if gap < 1:
        raise ConfigError("gap must be >= 1")
    rng = _pattern_rng("many-sided", seed)
    base = _seeded_base(rng, org, sides * (gap + 1) + 1)
    return [base + i * (gap + 1) for i in range(sides)]


def _many_sided_rows(
    org: DRAMOrganization, seed: int, params: dict
) -> list[int]:
    return _many_sided_row_set(org, seed, params["sides"], params["gap"])


@register_attack(
    "many-sided",
    summary="N aggressors with victims interleaved (TRR-evasion style)",
    rows=_many_sided_rows,
)
def many_sided(
    org: DRAMOrganization,
    n_entries: int,
    seed: int,
    *,
    sides: int = 4,
    gap: int = 2,
    banks: int = 8,
    bubbles: int = 0,
) -> Trace:
    _check_banks(org, banks)
    rows = _many_sided_row_set(org, seed, sides, gap)
    return round_robin_trace(
        bank_pools(org, range(banks), rows), n_entries, bubbles,
        name=f"many-sided-{sides}",
    )


# ---------------------------------------------------------------------------
# decoy


def _decoy_row_set(
    org: DRAMOrganization, seed: int, decoys: int
) -> tuple[list[int], list[int]]:
    """(aggressor pair, decoy rows): decoys spaced well outside the
    aggressors' blast radius so they absorb mitigations, not flips."""
    if decoys < 0:
        raise ConfigError("decoys must be >= 0")
    rng = _pattern_rng("decoy", seed)
    base = _seeded_base(rng, org, (decoys + 1) * 6 + 4)
    aggressors = [base, base + 2]
    decoy_rows = [base + 6 * (d + 1) for d in range(decoys)]
    return aggressors, decoy_rows


def _decoy_rows(org: DRAMOrganization, seed: int, params: dict) -> list[int]:
    aggressors, decoy_rows = _decoy_row_set(org, seed, params["decoys"])
    return aggressors + decoy_rows


@register_attack(
    "decoy",
    summary="decoy + refresh-sync hammer (reads-per-tREFI fuzzer style)",
    rows=_decoy_rows,
)
def decoy(
    org: DRAMOrganization,
    n_entries: int,
    seed: int,
    *,
    reads_per_trefi: int = 8,
    decoys: int = 2,
    self_sync_cycles: int = 4,
    banks: int = 4,
    sync_bubbles: int = 64,
) -> Trace:
    """Aggressor bursts padded with decoy reads, stalling every
    ``self_sync_cycles`` blocks to self-synchronise with refresh.

    One block per bank is ``reads_per_trefi`` reads alternating the two
    aggressors followed by one read per decoy row; block starts carry a
    ``sync_bubbles`` stall every ``self_sync_cycles``-th repetition.
    """
    _check_banks(org, banks)
    if reads_per_trefi < 1:
        raise ConfigError("reads_per_trefi must be >= 1")
    if self_sync_cycles < 1:
        raise ConfigError("self_sync_cycles must be >= 1")
    if sync_bubbles < 0:
        raise ConfigError("sync_bubbles must be >= 0")
    aggressors, decoy_rows = _decoy_row_set(org, seed, decoys)
    block_rows = [
        aggressors[i % len(aggressors)] for i in range(reads_per_trefi)
    ] + decoy_rows
    # Each bank's pool is one block: the walk visits a bank's block
    # start at every multiple of its length.
    position = np.arange(n_entries) // banks
    block_len = len(block_rows)
    sync = (position % block_len == 0) & (
        position // block_len % self_sync_cycles == 0
    )
    return round_robin_trace(
        bank_pools(org, range(banks), block_rows), n_entries,
        np.where(sync, sync_bubbles, 0), name=f"decoy-r{reads_per_trefi}",
    )


# ---------------------------------------------------------------------------
# row-list


def _parse_row_list(rows: object, org: DRAMOrganization) -> list[int]:
    """``"1/3/5"`` (or a bare int — the CLI coerces single rows) to row
    ids; slash-separated because commas already separate spec params."""
    if isinstance(rows, bool) or not isinstance(rows, (int, str)):
        raise ConfigError(
            f"rows must be a slash-separated string or an int, got {rows!r}"
        )
    if isinstance(rows, int):
        row_ids = [rows]
    else:
        parts = [part.strip() for part in rows.split("/") if part.strip()]
        if not parts:
            raise ConfigError(f"rows {rows!r} names no rows")
        try:
            row_ids = [int(part) for part in parts]
        except ValueError:
            raise ConfigError(
                f"rows {rows!r} must be slash-separated integers"
            ) from None
    for row in row_ids:
        if not 0 <= row < org.rows_per_bank:
            raise ConfigError(
                f"row {row} outside [0, {org.rows_per_bank})"
            )
    return row_ids


def _row_list_rows(org: DRAMOrganization, seed: int, params: dict) -> list[int]:
    del seed  # explicit playbook: nothing to draw
    return _parse_row_list(params["rows"], org)


@register_attack(
    "row-list",
    summary="explicit row playbook cycled on one bank (tester style)",
    rows=_row_list_rows,
)
def row_list(
    org: DRAMOrganization,
    n_entries: int,
    seed: int,
    *,
    rows: str | int = "1/3/5",
    bank: int = 0,
    bubbles: int = 0,
) -> Trace:
    del seed  # explicit playbook: nothing to draw
    if not 0 <= bank < org.total_banks:
        raise ConfigError(f"bank must be in [0, {org.total_banks})")
    return round_robin_trace(
        bank_pools(org, [bank], _parse_row_list(rows, org)), n_entries,
        bubbles, name=f"row-list@{bank}",
    )
