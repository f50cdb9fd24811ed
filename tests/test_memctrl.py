"""Tests for the memory controller / DRAM timing model."""

from __future__ import annotations

import pytest

from repro.controller.memctrl import MemorySystem
from repro.core.defense import BankDefense, defense_stats
from repro.core.null_defense import NullDefense
from repro.engine import EventQueue
from repro.params import (
    DRAMOrganization,
    PRACParams,
    RfmScope,
    SystemConfig,
)
from repro.defenses import DefenseSpec


def null_factory(_index, _config) -> BankDefense:
    return NullDefense()


class AlwaysAlertDefense(BankDefense):
    """Test double: demands an Alert on every activation."""

    def __init__(self) -> None:
        super().__init__()
        self.rfms_received = 0
        self.alerting_rfms = 0

    def on_activation(self, row: int) -> bool:
        self.stats.activations += 1
        return True

    def wants_alert(self) -> bool:
        return True

    def on_rfm(self, is_alerting_bank: bool) -> list[int]:
        self.rfms_received += 1
        if is_alerting_bank:
            self.alerting_rfms += 1
        return []


def make_system(
    config: SystemConfig | None = None,
    factory=null_factory,
    enable_refresh: bool = False,
) -> tuple[MemorySystem, EventQueue]:
    config = config or SystemConfig(
        org=DRAMOrganization(
            channels=1, ranks=1, bankgroups=2, banks_per_group=2,
            rows_per_bank=1024,
        )
    )
    events = EventQueue()
    system = MemorySystem(
        config, events, factory, enable_refresh=enable_refresh
    )
    return system, events


class TestBasicTiming:
    def test_cold_read_latency(self):
        """First access: ACT at t=0, data at tRCD + tCL + tBURST."""
        system, events = make_system()
        done: list[float] = []
        system.enqueue(0, False, 0.0, callback=done.append)
        events.run()
        t = system.cfg.timing
        assert done == [pytest.approx(t.t_rcd + t.t_cl + t.t_burst)]

    def test_row_hit_is_faster_than_miss(self):
        system, events = make_system()
        mapper = system.mapper
        times: list[float] = []
        system.enqueue(mapper.compose(row=5), False, 0.0, times.append)
        system.enqueue(
            mapper.compose(row=5, column=1), False, 0.0, times.append
        )
        events.run()
        first_latency = times[0]
        second_latency = times[1] - times[0]
        assert second_latency < first_latency

    def test_row_conflict_pays_precharge(self):
        system, events = make_system()
        mapper = system.mapper
        times: list[float] = []
        system.enqueue(mapper.compose(row=5), False, 0.0, times.append)
        system.enqueue(mapper.compose(row=9), False, 0.0, times.append)
        events.run()
        t = system.cfg.timing
        # The second access must wait for tRAS, precharge (stretched PRAC
        # tRP = 36 ns) and a fresh ACT.
        assert times[1] >= t.t_ras + t.t_rp + t.t_rcd + t.t_cl

    def test_banks_operate_in_parallel(self):
        system, events = make_system()
        mapper = system.mapper
        times: list[float] = []
        system.enqueue(mapper.compose(row=1, bank=0), False, 0.0, times.append)
        system.enqueue(mapper.compose(row=1, bank=1), False, 0.0, times.append)
        events.run()
        t = system.cfg.timing
        # Second bank only pays the tRRD stagger + bus, not a full tRC.
        assert times[1] - times[0] < t.t_rc / 2

    def test_acts_counted_per_row_miss(self):
        system, events = make_system()
        mapper = system.mapper
        for column in range(4):  # one row, four lines: a single ACT
            system.enqueue(
                mapper.compose(row=3, column=column), False, 0.0, None
            )
        events.run()
        assert system.stats.acts == 1
        assert system.stats.row_hits == 3

    def test_write_then_read_ordering(self):
        system, events = make_system()
        done: list[float] = []
        system.enqueue(0, True, 0.0, callback=done.append)
        events.run()
        assert system.stats.writes == 1
        assert done  # posted writes still report completion


class TestRefresh:
    def test_ref_blackout_delays_access(self):
        system, events = make_system(enable_refresh=True)
        t = system.cfg.timing
        done: list[float] = []
        # Arrive during the rank's first REF window [0, tRFC).
        system.enqueue(0, False, 0.0, callback=done.append)
        events.run(until=t.t_refi)
        assert done[0] >= t.t_rfc

    def test_ref_handler_fires_every_trefi(self):
        system, events = make_system(enable_refresh=True)
        t = system.cfg.timing
        events.run(until=t.t_refi * 4.5)
        assert system.stats.refs == 5  # t = 0, 1, 2, 3, 4 x tREFI

    def test_proactive_defense_sees_refs(self):
        config = SystemConfig(
            org=DRAMOrganization(
                channels=1, ranks=1, bankgroups=2, banks_per_group=2,
                rows_per_bank=1024,
            ),
        )
        system, events = make_system(
            config, DefenseSpec("qprac+proactive").factory(),
            enable_refresh=True,
        )
        system.enqueue(system.mapper.compose(row=7), False, 500.0, None)
        events.run(until=config.timing.t_refi * 2.5)
        mitigations = defense_stats(bank.defense for bank in system.banks)
        assert sum(mitigations.values()) >= 1


class TestAlertBackoff:
    def test_alert_blocks_rank_and_issues_rfms(self):
        def factory(_i, _c):
            return AlwaysAlertDefense()

        system, events = make_system(factory=factory)
        mapper = system.mapper
        done: list[float] = []
        # The first access raises an Alert at its ACT.  Accesses inside
        # the non-blocking 180 ns window may still proceed (ABO_ACT), but
        # conflicting accesses beyond the window must wait out the RFM
        # blackout that starts at alert + 180 ns.
        for row in range(1, 5):
            system.enqueue(
                mapper.compose(row=row, bank=0), False, 0.0, done.append
            )
        events.run()
        assert system.stats.alerts >= 1
        prac = system.cfg.prac
        t = system.cfg.timing
        assert done[-1] >= prac.abo_window_ns + prac.n_mit * t.t_rfm

    def test_all_banks_receive_rfm_on_alert(self):
        defenses: list[AlwaysAlertDefense] = []

        def factory(_i, _c):
            d = AlwaysAlertDefense()
            defenses.append(d)
            return d

        system, events = make_system(factory=factory)
        system.enqueue(system.mapper.compose(row=1, bank=0), False, 0.0, None)
        events.run()
        assert all(d.rfms_received >= 1 for d in defenses)
        assert sum(d.alerting_rfms for d in defenses) >= 1

    def test_abo_delay_limits_alert_rate(self):
        def factory(_i, _c):
            return AlwaysAlertDefense()

        system, events = make_system(factory=factory)
        mapper = system.mapper
        for i in range(10):
            system.enqueue(mapper.compose(row=i, bank=0), False, 0.0, None)
        events.run()
        # 10 activations cannot produce 10 alerts: each Alert needs
        # ABO_Delay activations after its RFMs.
        assert 1 <= system.stats.alerts < 10

    def test_per_bank_scope_blocks_only_alerting_bank(self):
        def factory(_i, _c):
            return AlwaysAlertDefense()

        config = SystemConfig(
            org=DRAMOrganization(
                channels=1, ranks=1, bankgroups=2, banks_per_group=2,
                rows_per_bank=1024,
            ),
            prac=PRACParams(rfm_scope=RfmScope.PER_BANK),
        )
        system, events = make_system(config, factory)
        mapper = system.mapper
        done_other: list[float] = []
        system.enqueue(mapper.compose(row=1, bank=0), False, 0.0, None)
        system.enqueue(
            mapper.compose(row=1, bank=1), False, 0.0, done_other.append
        )
        events.run()
        t = config.timing
        # The other bank proceeds without waiting for the RFM blackout.
        assert done_other[0] < config.prac.abo_window_ns + t.t_rfm

    def test_same_bank_scope_covers_bank_groups(self):
        received: dict[int, AlwaysAlertDefense] = {}

        def factory(index, _c):
            d = AlwaysAlertDefense()
            received[index] = d
            return d

        config = SystemConfig(
            org=DRAMOrganization(
                channels=1, ranks=1, bankgroups=2, banks_per_group=2,
                rows_per_bank=1024,
            ),
            prac=PRACParams(rfm_scope=RfmScope.SAME_BANK),
        )
        system, events = make_system(config, factory)
        system.enqueue(system.mapper.compose(row=1, bank=0), False, 0.0, None)
        events.run()
        rfm_banks = [i for i, d in received.items() if d.rfms_received]
        assert len(rfm_banks) == 2  # bank 0 of each of the two bank groups


class TestCadenceRfm:
    def test_cadence_defense_gets_periodic_rfms(self):
        class CadenceDefense(NullDefense):
            def __init__(self):
                super().__init__()
                self.rfms = 0

            @property
            def rfm_cadence_acts(self):
                return 2

            def on_rfm(self, is_alerting_bank):
                self.rfms += 1
                return []

        defenses: list[CadenceDefense] = []

        def factory(_i, _c):
            d = CadenceDefense()
            defenses.append(d)
            return d

        system, events = make_system(factory=factory)
        mapper = system.mapper
        for i in range(8):  # 8 row misses in one bank -> 4 cadence RFMs
            system.enqueue(mapper.compose(row=i, bank=0), False, 0.0, None)
        events.run()
        assert system.stats.cadence_rfms == 4
        assert sum(d.rfms for d in defenses) == 4
