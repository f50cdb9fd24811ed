#!/usr/bin/env python3
"""Performance-attack study (paper Section VI-E, Figure 19).

PRAC's Alert Back-Off lets a *performance* attacker weaponise the
mitigation path: hammer rows in many banks, force a stream of Alerts,
and stall the rank with all-bank RFMs.  This example reports both
reproductions of Figure 19:

* the paper's worst-case analytical attacker (matches the reported
  RFMab numbers), and
* an honest event-driven pool attacker against the real QPRAC state
  machines (more favourable to QPRAC — opportunistic mitigation makes
  the attacker pay for every drained pool row).

Run:  python examples/performance_attack.py
"""

from __future__ import annotations

from repro.analysis.report import render_series
from repro.params import MitigationVariant, RfmScope, default_config
from repro.sim import analytical_bandwidth_reduction, run_bandwidth_attack

NBO_VALUES = (16, 32, 64, 128)


def analytical() -> None:
    series = {
        "RFMab": [
            (n, round(100 * analytical_bandwidth_reduction(n)))
            for n in NBO_VALUES
        ],
        "RFMab+Pro": [
            (n, round(100 * analytical_bandwidth_reduction(n, proactive=True)))
            for n in NBO_VALUES
        ],
        "RFMsb+Pro": [
            (n, round(100 * analytical_bandwidth_reduction(
                n, RfmScope.SAME_BANK, proactive=True)))
            for n in NBO_VALUES
        ],
        "RFMpb+Pro": [
            (n, round(100 * analytical_bandwidth_reduction(
                n, RfmScope.PER_BANK, proactive=True)))
            for n in NBO_VALUES
        ],
    }
    print(render_series(
        "Analytical worst case: activation-bandwidth loss % (Figure 19)",
        "N_BO", series,
    ))
    print("Paper reference points: RFMab plain 93%@16 / 62%@128;")
    print("RFMab+Proactive 91/77/~10/0 at N_BO 16/32/64/128.\n")


def simulated() -> None:
    config = default_config()
    base = run_bandwidth_attack(
        config, defense="baseline",
        measure_ns=120_000, warmup_ns=40_000, pool_rows_per_bank=8,
    )
    print(f"Undefended rank under attack: {base.acts:,d} ACTs / "
          f"{base.duration_ns / 1000:.0f} us")
    series = {"QPRAC": [], "QPRAC+Proactive": []}
    for n_bo in (16, 32, 64):
        for variant, label in (
            (MitigationVariant.QPRAC, "QPRAC"),
            (MitigationVariant.QPRAC_PROACTIVE, "QPRAC+Proactive"),
        ):
            run = run_bandwidth_attack(
                config.with_prac(n_bo=n_bo), defense=variant,
                measure_ns=120_000, warmup_ns=40_000, pool_rows_per_bank=8,
            )
            series[label].append(
                (n_bo, round(100 * run.reduction_vs(base), 1))
            )
    print()
    print(render_series(
        "Simulated pool attacker: bandwidth loss % (honest QPRAC model)",
        "N_BO", series,
    ))
    print("\nThe simulated attacker is weaker than the analytical bound")
    print("because every RFMab opportunistically drains one pool row per")
    print("bank — the attacker must rebuild N_BO activations per Alert.")


if __name__ == "__main__":
    analytical()
    simulated()
