"""Tests for the defense helpers, factories, runner façade and bandwidth
models."""

from __future__ import annotations

import pytest

from repro.core.defense import (
    DefenseStats,
    MitigationReason,
    apply_mitigation,
    blast_radius_victims,
)
from repro.core.prac_counters import PRACCounterBank
from repro.core.psq import PriorityServiceQueue
from repro.errors import ConfigError, ReproError
from repro.params import MitigationVariant, RfmScope, default_config
from repro.sim import (
    EVALUATED_VARIANTS,
    analytical_bandwidth_reduction,
    baseline_factory,
    build_system,
    factory_for_variant,
    moat_factory,
    panopticon_factory,
    qprac_factory,
)
from repro.sim.bandwidth import BandwidthResult


class TestBlastRadius:
    def test_interior_row(self):
        assert blast_radius_victims(100, 2, 1000) == [99, 101, 98, 102]

    def test_bottom_edge(self):
        assert blast_radius_victims(0, 2, 1000) == [1, 2]

    def test_top_edge(self):
        assert blast_radius_victims(999, 2, 1000) == [998, 997]

    def test_radius_zero(self):
        assert blast_radius_victims(5, 0, 1000) == []


class TestApplyMitigation:
    def test_resets_and_increments(self):
        counters = PRACCounterBank(100)
        stats = DefenseStats()
        for _ in range(5):
            counters.activate(50)
        victims = apply_mitigation(
            counters, 50, 1, stats, MitigationReason.ALERT
        )
        assert victims == [49, 51]
        assert counters.get(50) == 0
        assert counters.get(49) == 1
        assert stats.total_mitigations == 1
        assert stats.mitigations_by_reason[MitigationReason.ALERT] == 1
        assert stats.victim_refreshes == 2

    def test_victim_refresh_saturates_like_activate(self):
        counters = PRACCounterBank(100, counter_bits=2)  # saturate at 3
        stats = DefenseStats()
        for _ in range(3):
            counters.activate(49)
        apply_mitigation(counters, 50, 1, stats, MitigationReason.ALERT)
        assert counters.get(49) == 3
        assert counters.get(51) == 1
        assert counters.saturation_events == 1
        assert counters.total_activations == 5

    def test_edge_victims_clipped_in_order(self):
        counters = PRACCounterBank(10)
        stats = DefenseStats()
        assert apply_mitigation(
            counters, 1, 3, stats, MitigationReason.ALERT
        ) == blast_radius_victims(1, 3, 10) == [0, 2, 3, 4]
        assert apply_mitigation(
            counters, 8, 2, stats, MitigationReason.CADENCE
        ) == [7, 9, 6]
        assert apply_mitigation(
            counters, 5, 2, stats, MitigationReason.PROACTIVE
        ) == blast_radius_victims(5, 2, 10) == [4, 6, 3, 7]
        assert stats.victim_refreshes == 11

    def test_keep_aggressor_counter(self):
        counters = PRACCounterBank(100)
        stats = DefenseStats()
        counters.activate(50)
        apply_mitigation(
            counters, 50, 1, stats, MitigationReason.ALERT,
            reset_aggressor=False,
        )
        assert counters.get(50) == 1

    def test_victims_offered_to_psq(self):
        counters = PRACCounterBank(100)
        psq = PriorityServiceQueue(4)
        stats = DefenseStats()
        counters.activate(50)
        psq.observe(50, 1)
        apply_mitigation(
            counters, 50, 1, stats, MitigationReason.PROACTIVE, psq=psq
        )
        assert 50 not in psq
        assert 49 in psq and 51 in psq


class TestFactories:
    def test_each_factory_builds_independent_banks(self):
        cfg = default_config()
        for factory in (
            baseline_factory(),
            qprac_factory(),
            moat_factory(),
            panopticon_factory(),
        ):
            a = factory(0, cfg)
            b = factory(1, cfg)
            assert a is not b

    def test_factory_for_variant(self):
        cfg = default_config()
        bank = factory_for_variant(MitigationVariant.QPRAC_IDEAL)(0, cfg)
        assert bank.variant is MitigationVariant.QPRAC_IDEAL

    def test_qprac_factory_follows_config_variant(self):
        cfg = default_config().with_variant(MitigationVariant.QPRAC_NOOP)
        bank = qprac_factory()(0, cfg)
        assert bank.variant is MitigationVariant.QPRAC_NOOP


class TestRunnerFacade:
    def test_evaluated_variants_order_matches_paper(self):
        assert [v.value for v in EVALUATED_VARIANTS] == [
            "qprac-noop",
            "qprac",
            "qprac+proactive",
            "qprac+proactive-ea",
            "qprac-ideal",
        ]

    def test_build_system_four_homogeneous_cores(self):
        system = build_system("541.leela", n_entries=100)
        assert len(system.cores) == 4
        assert system.workload_name == "541.leela"
        # Per-core seeds differ: traces must not be identical.
        a = system.cores[0].trace.addresses
        b = system.cores[1].trace.addresses
        assert not (a == b).all()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            build_system("not-a-workload", n_entries=100)


class TestBandwidthModels:
    def test_result_arithmetic(self):
        base = BandwidthResult(acts=1000, alerts=0, duration_ns=1000.0)
        hit = BandwidthResult(acts=600, alerts=5, duration_ns=1000.0)
        assert hit.reduction_vs(base) == pytest.approx(0.4)
        assert base.acts_per_us == pytest.approx(1000.0)

    def test_reduction_never_negative(self):
        base = BandwidthResult(acts=100, alerts=0, duration_ns=1.0)
        better = BandwidthResult(acts=150, alerts=0, duration_ns=1.0)
        assert better.reduction_vs(base) == 0.0

    def test_zero_baseline_rejected(self):
        base = BandwidthResult(acts=0, alerts=0, duration_ns=1.0)
        with pytest.raises(ConfigError):
            base.reduction_vs(base)

    def test_analytical_monotone_in_nbo(self):
        values = [analytical_bandwidth_reduction(n) for n in (16, 32, 64, 128)]
        assert values == sorted(values, reverse=True)

    def test_analytical_scope_ordering(self):
        for n_bo in (16, 32, 64):
            ab = analytical_bandwidth_reduction(n_bo, RfmScope.ALL_BANK)
            sb = analytical_bandwidth_reduction(n_bo, RfmScope.SAME_BANK)
            pb = analytical_bandwidth_reduction(n_bo, RfmScope.PER_BANK)
            assert ab > sb > pb

    def test_analytical_proactive_defeats_high_nbo(self):
        assert analytical_bandwidth_reduction(128, proactive=True) == 0.0
        assert analytical_bandwidth_reduction(16, proactive=True) > 0.5

    def test_analytical_rejects_bad_nbo(self):
        with pytest.raises(ConfigError):
            analytical_bandwidth_reduction(0)


class TestSystemGuards:
    def test_too_many_traces_rejected(self):
        from repro.cpu.system import MulticoreSystem
        from repro.cpu.trace import Trace

        cfg = default_config()
        traces = [
            Trace.from_lists([(0, 64, False)])
            for _ in range(cfg.cpu.cores + 1)
        ]
        with pytest.raises(ConfigError):
            MulticoreSystem(cfg, traces, baseline_factory())

    def test_no_traces_rejected(self):
        from repro.cpu.system import MulticoreSystem

        with pytest.raises(ConfigError):
            MulticoreSystem(default_config(), [], baseline_factory())

    def test_rerun_guard(self):
        system = build_system(
            "541.leela",
            defense_factory=baseline_factory(),
            n_entries=50,
        )
        system.run()
        # The event queue still holds REF events, but cores are done; a
        # second run returns immediately rather than double counting.
        result = system.run()
        assert result.instructions > 0
