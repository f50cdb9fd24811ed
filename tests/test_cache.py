"""Tests for the shared set-associative LLC."""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import SetAssociativeCache
from repro.errors import ConfigError
from repro.params import default_config


@pytest.fixture
def cache() -> SetAssociativeCache:
    # 4 sets x 2 ways x 64 B lines = 512 B.
    return SetAssociativeCache(size_bytes=512, ways=2, line_size=64)


def set_stride(cache: SetAssociativeCache) -> int:
    """Address stride that maps back to the same set."""
    return cache.num_sets * cache.line_size


class TestHitsAndMisses:
    def test_first_access_misses(self, cache):
        hit, wb = cache.access(0, False)
        assert not hit
        assert wb is None

    def test_second_access_hits(self, cache):
        cache.access(0, False)
        hit, _ = cache.access(0, False)
        assert hit

    def test_same_line_different_offset_hits(self, cache):
        cache.access(0, False)
        hit, _ = cache.access(63, False)
        assert hit

    def test_adjacent_line_misses(self, cache):
        cache.access(0, False)
        hit, _ = cache.access(64, False)
        assert not hit

    def test_hit_rate(self, cache):
        cache.access(0, False)
        cache.access(0, False)
        cache.access(64, False)
        assert cache.hit_rate == pytest.approx(1 / 3)


class TestLRUReplacement:
    def test_eviction_removes_lru(self, cache):
        s = set_stride(cache)
        cache.access(0 * s, False)
        cache.access(1 * s, False)
        cache.access(2 * s, False)  # evicts address 0
        assert not cache.access(0, False)[0]

    def test_access_refreshes_lru_position(self, cache):
        s = set_stride(cache)
        cache.access(0 * s, False)
        cache.access(1 * s, False)
        cache.access(0 * s, False)  # 0 becomes MRU
        cache.access(2 * s, False)  # evicts 1, not 0
        assert cache.access(0 * s, False)[0]
        assert not cache.access(1 * s, False)[0]


class TestWriteback:
    def test_clean_eviction_no_writeback(self, cache):
        s = set_stride(cache)
        cache.access(0 * s, False)
        cache.access(1 * s, False)
        _hit, wb = cache.access(2 * s, False)
        assert wb is None

    def test_dirty_eviction_writes_back_victim_address(self, cache):
        s = set_stride(cache)
        cache.access(0 * s, True)  # dirty
        cache.access(1 * s, False)
        _hit, wb = cache.access(2 * s, False)
        assert wb == 0 * s
        assert cache.writebacks == 1

    def test_write_hit_marks_dirty(self, cache):
        s = set_stride(cache)
        cache.access(0 * s, False)  # clean fill
        cache.access(0 * s, True)  # dirtied by the write hit
        cache.access(1 * s, False)
        _hit, wb = cache.access(2 * s, False)
        assert wb == 0 * s

    def test_writeback_maps_to_same_set(self, cache):
        s = set_stride(cache)
        base = 3 * 64  # set 3
        cache.access(base, True)
        cache.access(base + s, False)
        _hit, wb = cache.access(base + 2 * s, False)
        assert wb == base


class TestGeometry:
    def test_occupancy(self, cache):
        cache.access(0, False)
        cache.access(64, False)
        assert cache.occupancy == 2

    def test_paper_llc_geometry(self):
        llc = SetAssociativeCache(8 * 1024 * 1024, 8, 64)
        assert llc.num_sets == 16384

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(500, 2, 64)  # not divisible
        with pytest.raises(ConfigError):
            SetAssociativeCache(0, 2, 64)
        with pytest.raises(ConfigError):
            SetAssociativeCache(384, 2, 64)  # 3 sets: not a power of two


class TestStorage:
    def test_sets_are_built_on_first_touch(self):
        llc = SetAssociativeCache(8 * 1024 * 1024, 8, 64)
        assert all(ways is None for ways in llc._sets)
        llc.access(3 * 64, True)
        built = [i for i, ways in enumerate(llc._sets) if ways is not None]
        assert built == [3]
        assert type(llc._sets[3]) is dict
        assert not gc.is_tracked(llc._sets[3])

    def test_drop_lines_empties_the_list_in_place(self, cache):
        sets = cache._sets
        cache.access(0, True)
        cache.access(64, False)
        cache.access(0, False)
        cache.drop_lines()
        assert cache._sets is sets
        assert sets == [None] * cache.num_sets
        assert cache.occupancy == 0
        assert (cache.hits, cache.misses) == (1, 2)
        # The emptied cache still works: the next access is a cold miss.
        assert cache.access(0, False) == (False, None)

    def test_a_finished_system_holds_no_lines(self):
        from repro.sim.runner import build_system

        system = build_system("429.mcf", defense="qprac", n_entries=400)
        sets = system._issue_hot[1]
        result = system.run()
        llc = system.llc
        assert llc._sets is sets
        assert llc.occupancy == 0
        assert all(ways is None for ways in sets)
        assert llc.hits > 0 and llc.misses > 0
        assert result.llc_hit_rate == llc.hit_rate

    def test_an_event_run_leaves_little_for_the_collector(self):
        """Before sets were built on first touch and freed with the
        run, every event run left one container per LLC set (16,384)
        as cyclic garbage."""
        from repro.defenses import DefenseSpec
        from repro.sim.engines import memo
        from repro.sim.engines.event import EventEngine
        from repro.workloads.suites import workload

        engine = EventEngine()
        factory = DefenseSpec("qprac").factory()
        memo.clear()  # a full run, not one served from the memo
        gc.collect()
        gc.disable()
        try:
            engine.simulate(workload("429.mcf"), default_config(), factory,
                            n_entries=300)
            freed = gc.collect()
        finally:
            gc.enable()
            memo.clear()
        assert engine.work_units > 0
        assert freed < 5000


class ListLRU:
    """An independent LRU model for the properties below: per set, a
    list of ``[tag, dirty]`` pairs, least recently used first."""

    def __init__(self, num_sets: int, ways: int, line_size: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.sets: list[list[list]] = [[] for _ in range(num_sets)]
        self.hits = self.misses = self.writebacks = 0

    def access(self, addr: int, is_write: bool) -> tuple[bool, int | None]:
        line = addr // self.line_size
        set_index, tag = line % self.num_sets, line // self.num_sets
        lines = self.sets[set_index]
        for i, (resident, dirty) in enumerate(lines):
            if resident == tag:
                del lines[i]
                lines.append([tag, dirty or is_write])
                self.hits += 1
                return True, None
        self.misses += 1
        writeback = None
        if len(lines) == self.ways:
            victim, dirty = lines.pop(0)
            if dirty:
                self.writebacks += 1
                writeback = (victim * self.num_sets + set_index) * (
                    self.line_size
                )
        lines.append([tag, is_write])
        return False, writeback


@st.composite
def lru_streams(draw):
    """``(num_sets, ways, regime, [(addr, is_write), ...])`` for a 64 B
    line cache.  ``no-overflow`` opens by filling every set with exactly
    ``ways`` lines and never uses another; ``all-overflow`` opens with
    ``ways + 1`` distinct lines in every set; ``mixed`` draws freely
    from a few more lines than a set holds."""
    num_sets = 1 << draw(st.integers(0, 3))
    ways = draw(st.integers(1, 4))
    regime = draw(st.sampled_from(["no-overflow", "all-overflow", "mixed"]))
    n_tags = ways if regime == "no-overflow" else ways + draw(
        st.integers(1, 3)
    )
    opening = []
    if regime != "mixed":
        fill = ways + (regime == "all-overflow")
        opening = [(s, t) for t in range(fill) for s in range(num_sets)]
    body = draw(st.lists(
        st.tuples(st.integers(0, num_sets - 1), st.integers(0, n_tags - 1)),
        max_size=80,
    ))
    cells = opening + body
    writes = draw(st.lists(st.booleans(), min_size=len(cells),
                           max_size=len(cells)))
    offsets = draw(st.lists(st.integers(0, 63), min_size=len(cells),
                            max_size=len(cells)))
    accesses = [
        ((tag * num_sets + s) * 64 + offset, is_write)
        for (s, tag), is_write, offset in zip(cells, writes, offsets)
    ]
    return num_sets, ways, regime, accesses


def test_both_lru_copies_match_a_list_lru():
    """``SetAssociativeCache.access`` and the epoch engine's
    ``_llc_filter`` (a vectorized shortcut for sets that never overflow,
    plus its own inlined copy of the dict LRU for the rest) each make
    the decisions of an independent list-based LRU: the same miss
    flags, writeback addresses and hit, miss and writeback counters,
    including sets holding exactly ``ways`` lines, streams where no set
    or every set overflows, and read/write mixes."""
    from repro.sim.engines.epoch import _llc_filter

    config = default_config()
    seen: set[str] = set()

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(lru_streams())
    def check(stream):
        num_sets, ways, regime, accesses = stream
        reference = ListLRU(num_sets, ways, 64)
        expected = [reference.access(a, w) for a, w in accesses]

        cache = SetAssociativeCache(num_sets * ways * 64, ways, 64)
        assert [cache.access(a, w) for a, w in accesses] == expected
        assert (cache.hits, cache.misses, cache.writebacks) == (
            reference.hits, reference.misses, reference.writebacks
        )
        assert cache.occupancy == sum(len(s) for s in reference.sets)
        assert sum(w is not None for w in cache._sets) == sum(
            bool(s) for s in reference.sets
        )

        cpu = dataclasses.replace(
            config.cpu, llc_bytes=num_sets * ways * 64, llc_ways=ways
        )
        miss, writeback = _llc_filter(
            np.array([a for a, _ in accesses], dtype=np.int64),
            np.array([w for _, w in accesses], dtype=bool),
            config.org, cpu,
        )
        assert miss.tolist() == [not hit for hit, _ in expected]
        assert writeback.tolist() == [
            -1 if wb is None else wb for _, wb in expected
        ]
        assert int(np.count_nonzero(~miss)) == reference.hits
        assert int(np.count_nonzero(writeback >= 0)) == reference.writebacks

        seen.add(regime)
        if any(len(s) == ways for s in reference.sets):
            seen.add("full-set")
        if reference.writebacks:
            seen.add("dirty-writeback")
        if reference.misses > reference.writebacks + sum(
            len(s) for s in reference.sets
        ):
            seen.add("clean-eviction")
        if any(hit and w for (hit, _), (_, w) in zip(expected, accesses)):
            seen.add("write-hit")

    check()
    assert seen == {
        "no-overflow", "all-overflow", "mixed", "full-set",
        "dirty-writeback", "clean-eviction", "write-hit",
    }
