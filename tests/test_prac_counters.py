"""Unit tests for the per-row PRAC activation counters."""

from __future__ import annotations

import pytest

from repro.core.defense import DefenseStats, MitigationReason, apply_mitigation
from repro.core.prac_counters import PRACCounterBank
from repro.errors import ConfigError


@pytest.fixture
def bank() -> PRACCounterBank:
    return PRACCounterBank(num_rows=64)


class TestBasics:
    def test_unactivated_rows_read_zero(self, bank):
        assert bank.get(0) == 0
        assert bank.get(63) == 0

    def test_activate_increments(self, bank):
        assert bank.activate(3) == 1
        assert bank.activate(3) == 2
        assert bank.get(3) == 2

    def test_activations_counted(self, bank):
        for _ in range(5):
            bank.activate(1)
        assert bank.total_activations == 5

    def test_reset_clears_row(self, bank):
        bank.activate(7)
        bank.activate(7)
        bank.reset(7)
        assert bank.get(7) == 0
        assert bank.total_resets == 1

    def test_reset_unactivated_row_allowed(self, bank):
        bank.reset(9)
        assert bank.get(9) == 0

    def test_victim_increment_counts_as_activation(self, bank):
        # Section III-C2: mitigative refreshes increment victim counters.
        bank.activate(6)
        victims = apply_mitigation(
            bank, 6, 1, DefenseStats(), MitigationReason.ALERT
        )
        assert victims == [5, 7]
        assert bank.get(5) == 1
        assert bank.get(7) == 1
        assert bank.total_activations == 3

    def test_out_of_range_rejected(self, bank):
        with pytest.raises(ConfigError):
            bank.activate(64)
        with pytest.raises(ConfigError):
            bank.get(-1)

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            PRACCounterBank(0)
        with pytest.raises(ConfigError):
            PRACCounterBank(8, counter_bits=0)


class TestSaturation:
    def test_saturates_at_width(self):
        bank = PRACCounterBank(8, counter_bits=3)  # saturate at 7
        for _ in range(10):
            bank.activate(0)
        assert bank.get(0) == 7
        assert bank.saturation_events == 3
        assert bank.max_value == 7

    def test_unbounded_counters_never_saturate(self, bank):
        for _ in range(1000):
            bank.activate(0)
        assert bank.get(0) == 1000
        assert bank.saturation_events == 0
        assert bank.max_value is None


class TestQueries:
    def test_top_n_ordering(self, bank):
        for row, count in [(1, 3), (2, 9), (3, 6)]:
            for _ in range(count):
                bank.activate(row)
        assert bank.top_n(2) == [(2, 9), (3, 6)]

    def test_top_n_more_than_present(self, bank):
        bank.activate(1)
        assert bank.top_n(5) == [(1, 1)]

    def test_top_n_zero(self, bank):
        assert bank.top_n(0) == []

    def test_top_n_negative_rejected(self, bank):
        with pytest.raises(ConfigError):
            bank.top_n(-1)

    def test_max_count(self, bank):
        assert bank.max_count() == 0
        bank.activate(1)
        bank.activate(1)
        bank.activate(2)
        assert bank.max_count() == 2

    def test_nonzero_rows_is_a_copy(self, bank):
        bank.activate(1)
        snapshot = bank.nonzero_rows()
        snapshot[1] = 99
        assert bank.get(1) == 1

    def test_len_counts_nonzero_rows(self, bank):
        bank.activate(1)
        bank.activate(2)
        bank.reset(1)
        assert len(bank) == 1
