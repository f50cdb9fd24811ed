"""Tests for the trace container, synthetic generator, suites, attacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu.trace import Trace
from repro.dram.address import AddressMapper
from repro.errors import ConfigError, TraceError
from repro.params import DRAMOrganization
from repro.workloads import (
    ALL_WORKLOADS,
    REPRESENTATIVE_WORKLOADS,
    WorkloadSpec,
    generate_trace,
    hammer_trace,
    memory_intensive_workloads,
    suites,
    workload,
    workloads_by_suite,
)


class TestTrace:
    def test_from_lists(self):
        t = Trace.from_lists([(2, 64, False), (0, 128, True)])
        assert len(t) == 2
        assert t.total_instructions == 2 + 2
        assert t.write_fraction == 0.5

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            Trace.from_lists([])

    def test_mismatched_columns_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                np.array([1]), np.array([1, 2]), np.array([False, False])
            )

    def test_negative_bubbles_rejected(self):
        with pytest.raises(TraceError):
            Trace.from_lists([(-1, 64, False)])

    def test_truncated(self):
        t = Trace.from_lists([(0, 64, False)] * 10)
        assert len(t.truncated(4)) == 4
        assert len(t.truncated(100)) == 10


class TestSyntheticGenerator:
    def make_spec(self, **kwargs) -> WorkloadSpec:
        defaults = dict(
            name="unit-test",
            suite="test",
            acts_pki=5.0,
            row_burst=2.0,
            footprint_mb=32,
            zipf_alpha=0.8,
            write_fraction=0.3,
        )
        defaults.update(kwargs)
        return WorkloadSpec(**defaults)

    def test_requested_length(self):
        t = generate_trace(self.make_spec(), 1000)
        assert len(t) == 1000

    def test_deterministic_per_seed(self):
        a = generate_trace(self.make_spec(), 500, seed=1)
        b = generate_trace(self.make_spec(), 500, seed=1)
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.bubbles, b.bubbles)

    def test_different_seeds_differ(self):
        a = generate_trace(self.make_spec(), 500, seed=1)
        b = generate_trace(self.make_spec(), 500, seed=2)
        assert not np.array_equal(a.addresses, b.addresses)

    def test_write_fraction_approximate(self):
        t = generate_trace(self.make_spec(write_fraction=0.3), 4000)
        assert 0.25 < t.write_fraction < 0.35

    def test_bubble_mean_targets_entries_per_kinst(self):
        spec = self.make_spec(acts_pki=5.0, row_burst=2.0)
        t = generate_trace(spec, 4000)
        # entries per kilo-instruction should be ~ acts_pki * row_burst.
        epki = len(t) / t.total_instructions * 1000
        assert abs(epki - 10.0) / 10.0 < 0.1

    def test_addresses_within_memory(self):
        org = DRAMOrganization()
        t = generate_trace(self.make_spec(), 2000, org)
        assert int(t.addresses.min()) >= 0
        assert int(t.addresses.max()) < org.capacity_bytes

    def test_addresses_span_banks(self):
        org = DRAMOrganization()
        mapper = AddressMapper(org)
        t = generate_trace(self.make_spec(), 2000, org)
        banks = {
            mapper.decode(int(a)).flat_bank(org) for a in t.addresses[:500]
        }
        assert len(banks) > org.total_banks // 4

    def test_zero_alpha_uniform_supported(self):
        t = generate_trace(self.make_spec(zipf_alpha=0.0), 500)
        assert len(t) == 500

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            self.make_spec(acts_pki=0.0)
        with pytest.raises(ConfigError):
            self.make_spec(row_burst=0.5)
        with pytest.raises(ConfigError):
            self.make_spec(write_fraction=1.5)

    def test_invalid_length_rejected(self):
        with pytest.raises(ConfigError):
            generate_trace(self.make_spec(), 0)


class TestSuites:
    def test_exactly_57_workloads(self):
        assert len(ALL_WORKLOADS) == 57

    def test_names_unique(self):
        names = [w.name for w in ALL_WORKLOADS]
        assert len(set(names)) == 57

    def test_expected_suites_present(self):
        assert set(suites()) == {
            "spec2006", "spec2017", "tpc", "hadoop", "mediabench", "ycsb",
        }

    def test_paper_callouts_are_memory_intensive(self):
        """The paper names 429.mcf, 482.sphinx3 and 510.parest as highly
        affected workloads — they must be in the intensive group."""
        for name in ("429.mcf", "482.sphinx3", "510.parest"):
            assert workload(name).is_memory_intensive

    def test_intensity_split_nontrivial(self):
        intensive = memory_intensive_workloads()
        assert 20 <= len(intensive) <= 45

    def test_lookup_by_suite(self):
        assert len(workloads_by_suite("ycsb")) == 6
        with pytest.raises(ConfigError):
            workloads_by_suite("nope")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            workload("999.nonexistent")

    def test_representative_subset_valid(self):
        for name in REPRESENTATIVE_WORKLOADS:
            workload(name)


class TestAttackTraces:
    def test_hammer_alternates_rows_within_bank(self):
        org = DRAMOrganization()
        mapper = AddressMapper(org)
        t = hammer_trace(org, n_entries=64, banks=4, rows_per_bank=2)
        decoded = [mapper.decode(int(a)) for a in t.addresses]
        bank0 = [d for d in decoded if d.flat_bank(org) == 0]
        rows = [d.row for d in bank0]
        assert len(set(rows)) == 2
        assert all(a != b for a, b in zip(rows, rows[1:]))

    def test_hammer_covers_requested_banks(self):
        org = DRAMOrganization()
        mapper = AddressMapper(org)
        t = hammer_trace(org, n_entries=64, banks=8)
        banks = {mapper.decode(int(a)).flat_bank(org) for a in t.addresses}
        assert len(banks) == 8

    def test_hammer_validation(self):
        with pytest.raises(ConfigError):
            hammer_trace(banks=0)
        with pytest.raises(ConfigError):
            hammer_trace(rows_per_bank=1)
