"""Shared last-level cache model (paper Table II: 8 MB, 8-way, 64 B lines).

A plain set-associative write-back, write-allocate cache with LRU
replacement.  The LLC filters the CPU's access stream into the DRAM row
activations that drive every QPRAC result; hit latency and miss traffic
are what matter, so no coherence or inclusion machinery is modelled.

Sets are plain ``dict`` objects built on their first access (see
:class:`SetAssociativeCache`): a run touches well under half of the
paper LLC's 16,384 sets, and the cyclic garbage collector does not
track a dict of ints and bools.  The same set protocol runs inlined in
:meth:`~repro.cpu.system.MulticoreSystem._issue_access` and in the
epoch engine's ``_llc_filter``.
"""

from __future__ import annotations

from repro.errors import ConfigError


class SetAssociativeCache:
    """LRU set-associative cache keyed by line address.

    ``_sets[i]`` is ``None`` until set ``i`` is first accessed, then a
    ``dict`` of ``{tag: dirty}`` in LRU order: a hit pops its tag and
    re-inserts it at the end, a miss into a full set evicts the first
    key.  :meth:`drop_lines` empties the cache and keeps the counters;
    :class:`~repro.cpu.system.MulticoreSystem` calls it once a run's
    result is assembled.
    """

    def __init__(self, size_bytes: int, ways: int, line_size: int) -> None:
        if size_bytes <= 0 or ways <= 0 or line_size <= 0:
            raise ConfigError("cache geometry values must be positive")
        if size_bytes % (ways * line_size) != 0:
            raise ConfigError(
                "cache size must be divisible by ways * line_size"
            )
        self.num_sets = size_bytes // (ways * line_size)
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError("number of sets must be a power of two")
        if line_size & (line_size - 1):
            raise ConfigError("line size must be a power of two")
        self.ways = ways
        self.line_size = line_size
        self._offset_bits = line_size.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._set_bits = self.num_sets.bit_length() - 1
        self._sets: list[dict[int, bool] | None] = [None] * self.num_sets
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, addr: int, is_write: bool) -> tuple[bool, int | None]:
        """Access one address.

        Returns ``(hit, writeback_addr)``; ``writeback_addr`` is the
        physical address of a dirty victim that must be written to DRAM,
        or None.
        """
        line = addr >> self._offset_bits
        set_index = line & self._set_mask
        tag = line >> self._set_bits
        ways = self._sets[set_index]
        if ways is None:
            ways = self._sets[set_index] = {}
        elif tag in ways:
            self.hits += 1
            ways[tag] = ways.pop(tag) or is_write
            return True, None
        self.misses += 1
        writeback = None
        if len(ways) >= self.ways:
            victim_tag = next(iter(ways))
            if ways.pop(victim_tag):
                self.writebacks += 1
                victim_line = (victim_tag << self._set_bits) | set_index
                writeback = victim_line << self._offset_bits
        ways[tag] = is_write
        return False, writeback

    def drop_lines(self) -> None:
        """Forget every resident line, dirty ones included (no writeback
        is issued); the hit, miss and writeback counters stay.

        Empties ``_sets`` in place, so a caller that holds the list
        itself (the system's inlined issue path) sees the empty cache
        and the sets' storage is freed at once.
        """
        self._sets[:] = [None] * self.num_sets

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def occupancy(self) -> int:
        """Number of resident lines (tests use this)."""
        return sum(len(ways) for ways in self._sets if ways is not None)
