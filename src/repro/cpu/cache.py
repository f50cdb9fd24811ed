"""Shared last-level cache model (paper Table II: 8 MB, 8-way, 64 B lines).

A plain set-associative write-back, write-allocate cache with LRU
replacement.  The LLC filters the CPU's access stream into the DRAM row
activations that drive every QPRAC result; hit latency and miss traffic
are what matter, so no coherence or inclusion machinery is modelled.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError


class SetAssociativeCache:
    """LRU set-associative cache keyed by line address."""

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
        # One OrderedDict per set: {tag: dirty}; LRU = insertion order.
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
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
        if tag in ways:
            self.hits += 1
            ways.move_to_end(tag)
            if is_write:
                ways[tag] = True
            return True, None
        self.misses += 1
        writeback = None
        if len(ways) >= self.ways:
            victim_tag, dirty = ways.popitem(last=False)
            if dirty:
                self.writebacks += 1
                victim_line = (victim_tag << self._set_bits) | set_index
                writeback = victim_line << self._offset_bits
        ways[tag] = is_write
        return False, writeback

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def occupancy(self) -> int:
        """Number of resident lines (tests use this)."""
        return sum(len(ways) for ways in self._sets)
