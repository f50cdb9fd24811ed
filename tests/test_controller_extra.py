"""Additional controller coverage: FR-FCFS ordering, blackout pruning,
bank-scope bookkeeping and statistics plumbing."""

from __future__ import annotations

import pytest

from repro.controller.memctrl import MemorySystem
from repro.controller.request import Request
from repro.core.null_defense import NullDefense
from repro.engine import EventQueue
from repro.params import DRAMOrganization, SystemConfig


def tiny_config() -> SystemConfig:
    return SystemConfig(
        org=DRAMOrganization(
            channels=1, ranks=1, bankgroups=2, banks_per_group=2,
            rows_per_bank=1024,
        )
    )


def make_system(enable_refresh: bool = False):
    config = tiny_config()
    events = EventQueue()
    system = MemorySystem(
        config, events, lambda _i, _c: NullDefense(),
        enable_refresh=enable_refresh,
    )
    return system, events


class TestFrFcfs:
    def test_row_hit_bypasses_older_conflict(self):
        """FR-FCFS: a queued row-hit is serviced before an older request
        to a different row."""
        system, events = make_system()
        mapper = system.mapper
        order: list[str] = []
        # Open row 5 with the first request.
        system.enqueue(mapper.compose(row=5), False, 0.0,
                       lambda t: order.append("open"))
        # Queue a conflict (row 9) then a hit (row 5) while busy.
        system.enqueue(mapper.compose(row=9), False, 0.1,
                       lambda t: order.append("conflict"))
        system.enqueue(mapper.compose(row=5, column=2), False, 0.2,
                       lambda t: order.append("hit"))
        events.run()
        assert order == ["open", "hit", "conflict"]

    def test_fcfs_among_conflicts(self):
        system, events = make_system()
        mapper = system.mapper
        order: list[int] = []
        for i, row in enumerate((3, 7, 11)):
            system.enqueue(mapper.compose(row=row), False, float(i) * 0.01,
                           lambda t, i=i: order.append(i))
        events.run()
        assert order == [0, 1, 2]


class TestBlackoutHousekeeping:
    def test_expired_blackouts_pruned(self):
        system, events = make_system()
        rank = system.ranks[0]
        rank.blackouts.extend([(0.0, 10.0), (20.0, 30.0), (1000.0, 1100.0)])
        t = system._rank_avail(rank, 500.0)
        assert t == 500.0
        assert rank.blackouts == [(1000.0, 1100.0)]

    def test_start_inside_blackout_pushed_to_end(self):
        system, _ = make_system()
        rank = system.ranks[0]
        rank.blackouts.append((100.0, 200.0))
        assert system._rank_avail(rank, 150.0) == 200.0

    def test_chained_blackouts(self):
        system, _ = make_system()
        rank = system.ranks[0]
        rank.blackouts.extend([(100.0, 200.0), (200.0, 250.0)])
        assert system._rank_avail(rank, 120.0) == 250.0

    def test_ref_window_periodicity(self):
        system, _ = make_system(enable_refresh=True)
        rank = system.ranks[0]
        timing = system.timing
        # Start inside the k=1 REF window.
        inside = timing.t_refi + timing.t_rfc / 2
        assert system._rank_avail(rank, inside) == pytest.approx(
            timing.t_refi + timing.t_rfc
        )
        # Between windows nothing moves.
        between = timing.t_refi + timing.t_rfc + 10.0
        assert system._rank_avail(rank, between) == between


class TestStatsPlumbing:
    def test_bank_for_and_flat_indexing(self):
        system, _ = make_system()
        addr = system.mapper.compose(row=1, bankgroup=1, bank=1)
        bank = system.banks[
            system.mapper.decode(addr).flat_bank(system.cfg.org)
        ]
        assert bank.bankgroup == 1 and bank.bank == 1

    def test_queued_requests_counter(self):
        system, events = make_system()
        mapper = system.mapper
        for row in range(4):
            system.enqueue(mapper.compose(row=row), False, 0.0, None)
        assert system.queued_requests >= 3  # one may already be in service
        events.run()
        assert system.queued_requests == 0

    def test_request_latency_property(self):
        req = Request(
            phys_addr=0, is_write=False, arrive=10.0, channel=0, rank=0,
            bankgroup=0, bank=0, row=0, column=0,
        )
        with pytest.raises(ValueError):
            _ = req.latency
        req.complete_time = 45.0
        assert req.latency == 35.0

    def test_row_buffer_hit_rate_stat(self):
        system, events = make_system()
        mapper = system.mapper
        for column in range(4):
            system.enqueue(mapper.compose(row=2, column=column), False, 0.0, None)
        events.run()
        bank = system.banks[
            mapper.decode(mapper.compose(row=2)).flat_bank(system.cfg.org)
        ]
        assert bank.row_buffer_hit_rate == pytest.approx(0.75)

    def test_avg_read_latency(self):
        system, events = make_system()
        system.enqueue(0, False, 0.0, None)
        events.run()
        assert system.stats.avg_read_latency_ns > 0
