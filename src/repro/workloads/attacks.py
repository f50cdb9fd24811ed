"""Attack traffic generators.

**Row hammer traces** for CPU-driven runs: alternating activations of a
small row set per bank, defeating the row buffer so every access is an
activation (used by examples and integration tests), and the round-robin
walk every pool-based attack pattern shares (:func:`round_robin_trace`).
The wave attack's pool spacing lives with its simulator,
:mod:`repro.security.wave_sim`, which drives banks directly.

The multi-bank *performance* attack of Figure 19 is a closed-loop driver
over the memory system and lives in :mod:`repro.sim.bandwidth`.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.trace import Trace
from repro.dram.address import bank_pools
from repro.errors import ConfigError
from repro.params import DRAMOrganization


def round_robin_trace(
    pools: list[list[int]], n_entries: int, bubbles, name: str
) -> Trace:
    """Interleave per-bank pools access by access: access ``i`` goes to
    pool ``i % len(pools)``, whose rows it cycles in order.

    The one walk of every pool-based attack trace.  Pools must be of
    equal length (as :func:`~repro.dram.address.bank_pools` builds
    them); ``bubbles`` is one count for every access or an array with
    one per access.
    """
    table = np.asarray(pools, dtype=np.int64)
    banks, rows = table.shape
    index = np.arange(n_entries)
    return Trace(
        np.full(n_entries, bubbles, dtype=np.int32),
        table[index % banks, index // banks % rows],
        np.zeros(n_entries, dtype=bool),
        name=name,
    )


def hammer_trace(
    org: DRAMOrganization | None = None,
    n_entries: int = 50_000,
    banks: int = 8,
    rows_per_bank: int = 2,
    row_stride: int = 64,
    bubbles: int = 0,
) -> Trace:
    """A Rowhammer-style trace: alternate ``rows_per_bank`` rows per bank.

    Alternating between at least two rows in a bank forces a row conflict
    on every access, turning each access into an activation — the
    attacker's goal.  Rows are spaced ``row_stride`` apart so victim
    refreshes of one aggressor never touch another.
    """
    org = org or DRAMOrganization()
    if banks < 1 or banks > org.total_banks:
        raise ConfigError(f"banks must be in [1, {org.total_banks}]")
    if rows_per_bank < 2:
        raise ConfigError("need >= 2 rows per bank to defeat the row buffer")
    rows = [(i * row_stride) % org.rows_per_bank for i in range(rows_per_bank)]
    return round_robin_trace(
        bank_pools(org, range(banks), rows), n_entries, bubbles,
        name=f"hammer-{banks}banks",
    )
