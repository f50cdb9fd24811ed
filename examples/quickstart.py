#!/usr/bin/env python3
"""Quickstart: the QPRAC mechanism in five minutes.

Walks the three layers of the library:

1. the core data structure (the priority-based service queue),
2. the per-bank QPRAC engine under a hammering pattern,
3. a full-system simulation of one workload with and without QPRAC.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import PriorityServiceQueue, QPRACBank
from repro.params import MitigationVariant, PRACParams
from repro.security import secure_trh
from repro.sim import simulate_workload


def demo_psq() -> None:
    print("=" * 64)
    print("1. The Priority-based Service Queue (PSQ)")
    print("=" * 64)
    psq = PriorityServiceQueue(size=5)
    # Simulate the situation of the paper's Figure 9: the queue is full
    # of rows at the Back-Off threshold...
    for row in range(100, 105):
        psq.observe(row, 32)
    print(f"queue full: {psq.snapshot()}")
    # ...and the attacker hammers a target with the ABO_ACT window.
    accepted = psq.observe(999, 35)
    print(f"hammered row 999 (count 35) accepted? {accepted}")
    print(f"next mitigation target: row {psq.top().row} "
          f"(count {psq.top().count})")
    print("-> a FIFO queue would have dropped row 999; the PSQ cannot.\n")


def demo_bank() -> None:
    print("=" * 64)
    print("2. One DRAM bank defended by QPRAC (N_BO = 8)")
    print("=" * 64)
    params = PRACParams(n_bo=8)
    bank = QPRACBank(params, num_rows=4096, variant=MitigationVariant.QPRAC)
    row = 1000
    for act in range(1, 9):
        wants_alert = bank.on_activation(row)
        if wants_alert:
            print(f"activation #{act}: bank asserts Alert_n")
    mitigated = bank.on_rfm(is_alerting_bank=True)
    print(f"RFM mitigates row {mitigated[0]}; counter reset to "
          f"{bank.counters.get(row)}")
    victims = [row - 2, row - 1, row + 1, row + 2]
    print(f"victim counters after blast-radius refresh: "
          f"{[bank.counters.get(v) for v in victims]} (transitive tracking)\n")


def demo_security_bound() -> None:
    print("=" * 64)
    print("3. The analytical security bound (paper Figure 8)")
    print("=" * 64)
    from repro.security.analytical import _cfg_for

    for n_bo in (1, 32):
        for n_mit in (1, 2, 4):
            t_rh = secure_trh(_cfg_for(n_bo, n_mit))
            print(f"  N_BO={n_bo:3d}, {n_mit} RFM/Alert -> secure down to "
                  f"T_RH = {t_rh}")
    print("  (paper: 44/29/22 at N_BO=1 and 71/58/52 at N_BO=32)\n")


def demo_full_system() -> None:
    print("=" * 64)
    print("4. Full-system simulation: 429.mcf on 4 cores")
    print("=" * 64)
    entries = 5000
    baseline = simulate_workload("429.mcf", defense="baseline",
                                 n_entries=entries)
    for variant in (
        MitigationVariant.QPRAC_NOOP,
        MitigationVariant.QPRAC,
        MitigationVariant.QPRAC_PROACTIVE_EA,
    ):
        run = simulate_workload("429.mcf", defense=variant, n_entries=entries)
        print(f"  {variant.value:22s} slowdown {run.slowdown_pct_vs(baseline):6.2f}%"
              f"   alerts/tREFI {run.alerts_per_trefi:6.3f}")
    print("  (paper: NoOp 12.4%, QPRAC 0.8%, proactive variants ~0%)")


if __name__ == "__main__":
    demo_psq()
    demo_bank()
    demo_security_bound()
    demo_full_system()
