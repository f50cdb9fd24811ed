"""Physical-address to DRAM-coordinate mapping.

The mapper follows the common row-interleaved layout used by Ramulator2's
DDR5 presets: from least-significant to most-significant physical address
bits ::

    | line offset | column | bank group | bank | rank | channel | row |

Consecutive cache lines therefore stream through one row (row-buffer
locality), while bits just above the column spread traffic across bank
groups and banks (bank-level parallelism) — the behaviour the paper's
activation-rate arithmetic depends on.

:meth:`AddressMapper.decode` is the one scalar decode, and the reference
the fast forms are checked against: the memory controller bit-slices
each access inline (the LLC filters out re-touches, so nearly every
address it sees is new and a memo would not pay), and the epoch engine
decodes whole request streams with :meth:`AddressMapper.decode_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.params import DRAMOrganization


@dataclass(frozen=True)
class DramAddress:
    """Decoded DRAM coordinates of one cache-line-sized access."""

    channel: int
    rank: int
    bankgroup: int
    bank: int
    row: int
    column: int

    def flat_bank(self, org: DRAMOrganization) -> int:
        """Globally unique bank index across the whole memory."""
        per_rank = org.banks_per_rank
        rank_index = self.channel * org.ranks + self.rank
        return rank_index * per_rank + self.bankgroup * org.banks_per_group + self.bank


def flat_bank_coords(flat_bank, org: DRAMOrganization):
    """Inverse of :meth:`DramAddress.flat_bank`: split a flat bank index
    into ``(channel, rank, bankgroup, bank)``.

    The one canonical form of this arithmetic — attack generators, the
    synthetic trace generator and reports all decode flat indices through
    it, so the layout can never be re-derived inconsistently.  Accepts
    plain ints or numpy integer arrays (the operators are the same).
    """
    per_rank = org.banks_per_rank
    rank_index = flat_bank // per_rank
    rem = flat_bank % per_rank
    channel = rank_index // org.ranks
    rank = rank_index % org.ranks
    bankgroup = rem // org.banks_per_group
    bank = rem % org.banks_per_group
    return channel, rank, bankgroup, bank


def bank_pools(org: DRAMOrganization, flat_banks, rows) -> list[list[int]]:
    """Per-bank address pools: every row of ``rows``, at column 0, in
    each bank of ``flat_banks`` (flat indices, pools in that order).

    The one composition of attack row pools — the attack patterns, the
    classic hammer trace and the closed-loop bandwidth attacker's
    targets all build theirs here.
    """
    mapper = AddressMapper(org)
    pools = []
    for flat in flat_banks:
        channel, rank, bankgroup, bank = flat_bank_coords(flat, org)
        pools.append([
            mapper.compose(row=row, column=0, channel=channel, rank=rank,
                           bankgroup=bankgroup, bank=bank)
            for row in rows
        ])
    return pools


def _bits(value: int) -> int:
    """Number of address bits consumed by a power-of-two quantity."""
    if value < 1 or value & (value - 1):
        raise ConfigError(f"{value} must be a power of two for bit slicing")
    return value.bit_length() - 1


class AddressMapper:
    """Slices physical byte addresses into :class:`DramAddress` fields."""

    def __init__(self, org: DRAMOrganization) -> None:
        self.org = org
        self._offset_bits = _bits(org.line_size_bytes)
        self._column_bits = _bits(org.columns_per_row)
        self._bg_bits = _bits(org.bankgroups)
        self._bank_bits = _bits(org.banks_per_group)
        self._rank_bits = _bits(org.ranks)
        self._channel_bits = _bits(org.channels)
        self._row_bits = _bits(org.rows_per_bank)
        self._column_mask = (1 << self._column_bits) - 1
        self._bg_mask = (1 << self._bg_bits) - 1
        self._bank_mask = (1 << self._bank_bits) - 1
        self._rank_mask = (1 << self._rank_bits) - 1
        self._channel_mask = (1 << self._channel_bits) - 1
        self._row_mask = (1 << self._row_bits) - 1
        self._banks_per_rank = org.banks_per_rank
        self._banks_per_group = org.banks_per_group
        self._ranks = org.ranks

    @property
    def address_bits(self) -> int:
        """Total meaningful physical address bits."""
        return (
            self._offset_bits
            + self._column_bits
            + self._bg_bits
            + self._bank_bits
            + self._rank_bits
            + self._channel_bits
            + self._row_bits
        )

    def decode(self, phys_addr: int) -> DramAddress:
        """Map a physical byte address to DRAM coordinates.

        The one scalar decode, unmemoized: the controller's inline bit
        slicing and :meth:`decode_arrays` are checked against it.
        """
        if phys_addr < 0:
            raise ConfigError(f"negative physical address {phys_addr:#x}")
        a = phys_addr >> self._offset_bits
        column = a & self._column_mask
        a >>= self._column_bits
        bankgroup = a & self._bg_mask
        a >>= self._bg_bits
        bank = a & self._bank_mask
        a >>= self._bank_bits
        rank = a & self._rank_mask
        a >>= self._rank_bits
        channel = a & self._channel_mask
        a >>= self._channel_bits
        return DramAddress(
            channel=channel,
            rank=rank,
            bankgroup=bankgroup,
            bank=bank,
            row=a & self._row_mask,
            column=column,
        )

    def encode(self, addr: DramAddress) -> int:
        """Inverse of :meth:`decode` (used by workload/attack generators)."""
        a = addr.row
        a = (a << self._channel_bits) | addr.channel
        a = (a << self._rank_bits) | addr.rank
        a = (a << self._bank_bits) | addr.bank
        a = (a << self._bg_bits) | addr.bankgroup
        a = (a << self._column_bits) | addr.column
        return a << self._offset_bits

    def decode_arrays(self, addrs):
        """Vectorized :meth:`decode` over an integer address array.

        Returns ``(channel, rank, bankgroup, bank, row, column,
        flat_bank)`` as parallel arrays — bit-for-bit the scalar decode
        plus :meth:`DramAddress.flat_bank`, at array speed.  The epoch
        engine decodes a whole DRAM request stream in one call.
        """
        a = addrs >> self._offset_bits
        column = a & self._column_mask
        a >>= self._column_bits
        bankgroup = a & self._bg_mask
        a >>= self._bg_bits
        bank = a & self._bank_mask
        a >>= self._bank_bits
        rank = a & self._rank_mask
        a >>= self._rank_bits
        channel = a & self._channel_mask
        a >>= self._channel_bits
        row = a & self._row_mask
        flat_bank = (
            (channel * self._ranks + rank) * self._banks_per_rank
            + bankgroup * self._banks_per_group
            + bank
        )
        return channel, rank, bankgroup, bank, row, column, flat_bank

    def encode_arrays(self, row, column, channel, rank, bankgroup, bank):
        """Vectorized :meth:`encode` over equal-length integer arrays.

        Bit-for-bit identical to calling :meth:`compose` element-wise;
        used by the trace generator so building a trace is array math
        instead of one Python call per row visit.  Accepts anything
        numpy's integer operators do; range-checks each field like
        :meth:`compose`.
        """
        org = self.org
        for name, values, limit in (
            ("row", row, org.rows_per_bank),
            ("column", column, org.columns_per_row),
            ("channel", channel, org.channels),
            ("rank", rank, org.ranks),
            ("bankgroup", bankgroup, org.bankgroups),
            ("bank", bank, org.banks_per_group),
        ):
            if len(values) and (values.min() < 0 or values.max() >= limit):
                raise ConfigError(f"{name} out of range")
        a = row.astype("int64")
        a = (a << self._channel_bits) | channel
        a = (a << self._rank_bits) | rank
        a = (a << self._bank_bits) | bank
        a = (a << self._bg_bits) | bankgroup
        a = (a << self._column_bits) | column
        return a << self._offset_bits

    def compose(
        self,
        row: int,
        column: int = 0,
        channel: int = 0,
        rank: int = 0,
        bankgroup: int = 0,
        bank: int = 0,
    ) -> int:
        """Build a physical address from explicit coordinates."""
        org = self.org
        if not 0 <= row < org.rows_per_bank:
            raise ConfigError(f"row {row} out of range")
        if not 0 <= column < org.columns_per_row:
            raise ConfigError(f"column {column} out of range")
        if not 0 <= bankgroup < org.bankgroups:
            raise ConfigError(f"bankgroup {bankgroup} out of range")
        if not 0 <= bank < org.banks_per_group:
            raise ConfigError(f"bank {bank} out of range")
        if not 0 <= rank < org.ranks:
            raise ConfigError(f"rank {rank} out of range")
        if not 0 <= channel < org.channels:
            raise ConfigError(f"channel {channel} out of range")
        return self.encode(
            DramAddress(
                channel=channel,
                rank=rank,
                bankgroup=bankgroup,
                bank=bank,
                row=row,
                column=column,
            )
        )
