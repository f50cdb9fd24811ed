"""End-to-end integration tests: full CPU + LLC + DRAM + defense runs.

These are miniature versions of the paper's experiments; they assert the
*orderings* every figure depends on, at test-friendly scales.
"""

from __future__ import annotations

import pytest

from repro.params import MitigationVariant, default_config
from repro.sim import run_bandwidth_attack, simulate_workload
from repro.workloads.synthetic import WorkloadSpec

#: A hot, memory-intensive workload that triggers Alerts quickly at the
#: default N_BO = 32 even in short runs.
HOT = WorkloadSpec(
    name="hot-test",
    suite="test",
    acts_pki=20.0,
    row_burst=1.3,
    footprint_mb=48,
    zipf_alpha=1.1,
    write_fraction=0.2,
)

ENTRIES = 6_000


@pytest.fixture(scope="module")
def hot_baseline():
    return simulate_workload(HOT, defense="baseline", n_entries=ENTRIES)


@pytest.fixture(scope="module")
def hot_runs(hot_baseline):
    runs = {}
    for variant in (
        MitigationVariant.QPRAC_NOOP,
        MitigationVariant.QPRAC,
        MitigationVariant.QPRAC_PROACTIVE,
        MitigationVariant.QPRAC_PROACTIVE_EA,
        MitigationVariant.QPRAC_IDEAL,
    ):
        runs[variant] = simulate_workload(
            HOT, defense=variant, n_entries=ENTRIES
        )
    return runs


class TestFigure14Ordering:
    def test_baseline_completes_with_sane_ipc(self, hot_baseline):
        assert all(0.01 < ipc <= 4.0 for ipc in hot_baseline.core_ipcs)

    def test_noop_is_the_worst_variant(self, hot_baseline, hot_runs):
        noop = hot_runs[MitigationVariant.QPRAC_NOOP]
        qprac = hot_runs[MitigationVariant.QPRAC]
        assert noop.slowdown_pct_vs(hot_baseline) > qprac.slowdown_pct_vs(
            hot_baseline
        )

    def test_noop_slowdown_is_substantial(self, hot_baseline, hot_runs):
        """Paper: 12.4% average, >20% for memory-intensive workloads."""
        noop = hot_runs[MitigationVariant.QPRAC_NOOP]
        assert noop.slowdown_pct_vs(hot_baseline) > 4.0

    def test_qprac_overhead_small(self, hot_baseline, hot_runs):
        qprac = hot_runs[MitigationVariant.QPRAC]
        assert qprac.slowdown_pct_vs(hot_baseline) < 3.0

    def test_proactive_variants_near_zero(self, hot_baseline, hot_runs):
        for variant in (
            MitigationVariant.QPRAC_PROACTIVE,
            MitigationVariant.QPRAC_PROACTIVE_EA,
            MitigationVariant.QPRAC_IDEAL,
        ):
            slowdown = hot_runs[variant].slowdown_pct_vs(hot_baseline)
            assert slowdown < 1.0

    def test_baseline_never_alerts(self, hot_baseline):
        assert hot_baseline.alerts == 0


class TestFigure15Ordering:
    def test_opportunistic_mitigation_slashes_alerts(self, hot_runs):
        noop = hot_runs[MitigationVariant.QPRAC_NOOP]
        qprac = hot_runs[MitigationVariant.QPRAC]
        assert noop.alerts_per_trefi > 4 * qprac.alerts_per_trefi

    def test_proactive_eliminates_alerts(self, hot_runs):
        pro = hot_runs[MitigationVariant.QPRAC_PROACTIVE]
        assert pro.alerts_per_trefi == pytest.approx(0.0, abs=0.02)

    def test_mitigation_reasons_match_variants(self, hot_runs):
        from repro.core.defense import MitigationReason

        noop = hot_runs[MitigationVariant.QPRAC_NOOP]
        assert noop.mitigations[MitigationReason.PROACTIVE] == 0
        pro = hot_runs[MitigationVariant.QPRAC_PROACTIVE]
        assert pro.mitigations[MitigationReason.PROACTIVE] > 0
        ea = hot_runs[MitigationVariant.QPRAC_PROACTIVE_EA]
        assert (
            0
            < ea.mitigations[MitigationReason.PROACTIVE]
            < pro.mitigations[MitigationReason.PROACTIVE]
        )


class TestNboSensitivity:
    """Figure 18's monotonicity at miniature scale."""

    def test_lower_nbo_more_alerts(self, hot_baseline):
        runs = {}
        for n_bo in (16, 64):
            cfg = default_config().with_prac(n_bo=n_bo)
            runs[n_bo] = simulate_workload(
                HOT,
                config=cfg,
                defense=MitigationVariant.QPRAC,
                n_entries=ENTRIES,
            )
        assert runs[16].alerts_per_trefi >= runs[64].alerts_per_trefi


class TestMOATComparison:
    def test_moat_completes_and_mitigates(self, hot_baseline):
        run = simulate_workload(HOT, defense="moat", n_entries=ENTRIES)
        assert sum(run.mitigations.values()) > 0
        assert run.slowdown_pct_vs(hot_baseline) < 20.0

    def test_qprac_no_worse_than_moat_at_low_nbo(self, hot_baseline):
        """Figure 21: QPRAC's multi-entry queue beats MOAT's single entry
        at low N_BO."""
        cfg = default_config().with_prac(n_bo=16)
        moat = simulate_workload(
            HOT, config=cfg, defense="moat", n_entries=ENTRIES
        )
        qprac = simulate_workload(
            HOT, config=cfg, defense="qprac", n_entries=ENTRIES
        )
        assert qprac.alerts <= moat.alerts * 1.1


class TestBandwidthAttack:
    def test_defended_rank_loses_bandwidth(self):
        cfg = default_config().with_prac(n_bo=16)
        base = run_bandwidth_attack(
            cfg,
            defense="baseline",
            measure_ns=100_000,
            warmup_ns=30_000,
            pool_rows_per_bank=8,
        )
        defended = run_bandwidth_attack(
            cfg,
            defense="qprac",
            measure_ns=100_000,
            warmup_ns=30_000,
            pool_rows_per_bank=8,
        )
        assert defended.alerts > 0
        assert defended.reduction_vs(base) > 0.01

    def test_analytical_model_paper_points(self):
        from repro.sim import analytical_bandwidth_reduction

        assert analytical_bandwidth_reduction(16) == pytest.approx(
            0.93, abs=0.02
        )
        assert analytical_bandwidth_reduction(128) == pytest.approx(
            0.62, abs=0.02
        )
        assert analytical_bandwidth_reduction(128, proactive=True) == 0.0
        assert analytical_bandwidth_reduction(
            32, proactive=True
        ) == pytest.approx(0.77, abs=0.03)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = simulate_workload(HOT, defense="qprac", n_entries=2000)
        b = simulate_workload(HOT, defense="qprac", n_entries=2000)
        assert a.sim_time_ns == b.sim_time_ns
        assert a.acts == b.acts
        assert a.alerts == b.alerts
