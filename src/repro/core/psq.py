"""Priority-based Service Queue (PSQ) — the core contribution of QPRAC.

The PSQ is a small CAM-style structure, one per DRAM bank, that tracks the
most-activated rows awaiting Rowhammer mitigation (paper Section III-B).
Each entry holds a row id and that row's current activation count; the count
is the priority.

Operation (paper Figure 5):

* On an activation whose row is already present, the stored count is
  updated in place to the in-DRAM counter value.
* On a miss, the row is inserted if the queue has space, or if its count is
  strictly greater than the queue's minimum count, in which case the
  minimum-count entry is evicted.
* The queue raises the bank's Alert once its maximum count reaches the
  Back-Off threshold (checked by the caller via
  :meth:`~PriorityServiceQueue.max_count`).

Unlike the FIFO queues of Panopticon/UPRAC, the PSQ is *intentionally*
always full: being full never causes information loss about heavily
activated rows, which is exactly the property the paper's security argument
rests on (Section IV-B).

Implementation note: :class:`PriorityServiceQueue` stores its entries as
one list of ``(count, seq, row)`` tuples kept in ascending order with
:mod:`bisect`, plus a row -> tuple dict.  The last tuple is the top (the
mitigation target: highest count, newest among ties) and the first is the
eviction victim (lowest count, oldest among ties), so no operation scans
the queue or calls a Python-level sort key: a hit moves one tuple
(``del`` + ``insort``), a miss compares against the first tuple, and
:meth:`~PriorityServiceQueue.peek`, :meth:`~PriorityServiceQueue.max_count`
and :meth:`~PriorityServiceQueue.min_count` index an end of the list.
Those moves cost O(size) in C, which suits the queues the paper
evaluates: at most 5 entries (the default is 5 = max N_mit + 1, and
Figure 17 sweeps 1-5).  ``benchmarks/perf/bench_psq.py`` also times 16-
and 64-entry queues, where the moves start to show; those sizes are a
scaling probe, not simulator traffic.

:class:`ReferencePriorityServiceQueue` keeps the original scan-per-call
algorithm over mutable :class:`PSQEntry` objects as an executable
specification; the lockstep differentials in
``tests/test_determinism_golden.py`` and
``tests/test_property_differential.py`` drive both queues with identical
operation streams and compare every observable after every operation.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator

from repro.errors import ConfigError, ProtocolError


class PSQEntry:
    """One CAM entry: a row id, its activation count, and an insertion tag.

    The insertion tag (a monotonically increasing sequence number) is only
    used to break ties deterministically: among equal counts the *oldest*
    entry is considered lower priority and evicted first.  The paper does
    not specify tie-breaking; tests assert that security-relevant
    invariants hold regardless (see ``tests/test_psq_properties.py``).
    """

    __slots__ = ("row", "count", "seq")

    def __init__(self, row: int, count: int, seq: int) -> None:
        self.row = row
        self.count = count
        self.seq = seq

    def sort_key(self) -> tuple[int, int]:
        """Ascending priority: lowest count first, oldest first among ties.

        ``min`` of this key is the eviction victim; ``max`` is the
        mitigation target (highest count, newest among ties).
        """
        return (self.count, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PSQEntry(row={self.row}, count={self.count}, seq={self.seq})"


class PriorityServiceQueue:
    """An N-entry priority-based service queue keyed by activation count.

    Parameters
    ----------
    size:
        Number of CAM entries (paper default: 5 = max N_mit + 1).
    strict_insertion:
        The paper's rule inserts a row only when its count is *strictly*
        greater than the queue's minimum.  ``False`` switches to
        greater-or-equal (an ablation: security-equivalent under the wave
        attack, but with higher CAM churn — see
        ``benchmarks/test_ablation_psq_policy.py``).

    Notes
    -----
    Entry keys ``(count, seq)`` are globally unique (sequence numbers
    never repeat), so the ascending ``(count, seq, row)`` order is total
    and "the" top and eviction victim are always well-defined.
    :meth:`top`, :meth:`pop_top` and iteration hand out fresh
    :class:`PSQEntry` snapshots; :meth:`peek` returns the stored tuple
    for callers on the per-activation path.
    """

    def __init__(self, size: int, strict_insertion: bool = True) -> None:
        if size < 1:
            raise ConfigError(f"PSQ size must be >= 1, got {size}")
        self._size = size
        self.strict_insertion = strict_insertion
        #: Every entry as a ``(count, seq, row)`` tuple, ascending.
        self._order: list[tuple[int, int, int]] = []
        #: row -> that row's tuple in ``_order``.
        self._entries: dict[int, tuple[int, int, int]] = {}
        self._entries_get = self._entries.get
        self._next_seq = 0
        # Statistics (read by the energy model and tests).
        self.inserts = 0
        self.evictions = 0
        self.hits = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Configured capacity."""
        return self._size

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, row: int) -> bool:
        return row in self._entries

    def __iter__(self) -> Iterator[PSQEntry]:
        """Iterate entries in descending priority order (a snapshot)."""
        return iter([
            PSQEntry(row, count, seq)
            for count, seq, row in reversed(self._order)
        ])

    @property
    def is_full(self) -> bool:
        return len(self._order) >= self._size

    def count_of(self, row: int) -> int | None:
        """Stored activation count for ``row``, or None if absent."""
        entry = self._entries_get(row)
        return entry[0] if entry is not None else None

    def min_count(self) -> int:
        """Lowest stored count; 0 when the queue has free space.

        Returning 0 for a non-full queue makes the insertion rule uniform:
        a row enters iff its count is strictly greater than ``min_count()``
        *or* there is free space (and every real count is >= 1).
        """
        order = self._order
        if len(order) < self._size:
            return 0
        return order[0][0]

    def peek(self) -> tuple[int, int, int] | None:
        """The top entry as its stored ``(count, seq, row)`` tuple, or None.

        The same values :meth:`top` wraps in a :class:`PSQEntry`, without
        the allocation: the accessor for per-activation callers such as
        :class:`~repro.core.qprac.QPRACBank`.
        """
        order = self._order
        return order[-1] if order else None

    def top(self) -> PSQEntry | None:
        """Highest-priority entry (max count; newest among ties), or None."""
        order = self._order
        if not order:
            return None
        count, seq, row = order[-1]
        return PSQEntry(row, count, seq)

    def max_count(self) -> int:
        order = self._order
        return order[-1][0] if order else 0

    def rows(self) -> list[int]:
        """Row ids currently tracked, in descending priority order."""
        return [entry[2] for entry in reversed(self._order)]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def observe(self, row: int, count: int) -> bool:
        """Present an activation of ``row`` with in-DRAM counter ``count``.

        Returns True if the row is tracked by the queue after the call
        (hit-update, fresh insert, or insert-with-eviction), False if it was
        rejected because the queue is full of strictly-higher counts.
        """
        if count < 0:
            raise ProtocolError(f"negative activation count {count}")
        order = self._order
        entry = self._entries_get(row)
        if entry is not None:
            # Hit: update the count in place (paper Figure 5, right path);
            # the entry keeps its insertion tag and moves to its new rank.
            self.hits += 1
            del order[bisect_left(order, entry)]
            entry = (count, entry[1], row)
            self._entries[row] = entry
            insort(order, entry)
            return True
        if len(order) >= self._size:
            victim = order[0]
            if count < victim[0] or (
                count == victim[0] and self.strict_insertion
            ):
                self.rejected += 1
                return False
            # Priority insertion: replace the lowest-priority entry.
            del order[0]
            del self._entries[victim[2]]
            self.evictions += 1
        # A fresh entry carries the highest sequence number, so it ranks
        # above every entry with its count (oldest-first eviction).
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = (count, seq, row)
        self._entries[row] = entry
        insort(order, entry)
        self.inserts += 1
        return True

    def pop_top(self) -> PSQEntry:
        """Remove and return the highest-priority entry (for mitigation)."""
        order = self._order
        if not order:
            raise ProtocolError("pop_top() on an empty PSQ")
        count, seq, row = order.pop()
        del self._entries[row]
        return PSQEntry(row, count, seq)

    def remove(self, row: int) -> bool:
        """Remove ``row`` if present (mitigation by an oracle); True if removed."""
        entry = self._entries.pop(row, None)
        if entry is None:
            return False
        del self._order[bisect_left(self._order, entry)]
        return True

    def clear(self) -> None:
        self._order.clear()
        self._entries.clear()

    # ------------------------------------------------------------------
    # Convenience used by the mitigation engine
    # ------------------------------------------------------------------
    def snapshot(self) -> list[tuple[int, int]]:
        """(row, count) pairs in descending priority order (for reports)."""
        return [(row, count) for count, _seq, row in reversed(self._order)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{r}:{c}" for r, c in self.snapshot())
        return f"PSQ[{len(self)}/{self._size}]({body})"


class ReferencePriorityServiceQueue:
    """Executable specification: the original scan-per-call PSQ.

    Every query recomputes min/max over the live entries, exactly as the
    hardware CAM's priority encoder would, over a dict of mutable
    :class:`PSQEntry` objects.  It shares no storage or code with
    :class:`PriorityServiceQueue`, so differential tests can drive the
    optimized queue and this oracle with identical operation streams and
    assert byte-identical outcomes; it is also handy when debugging a
    suspected ordering bug.
    """

    def __init__(self, size: int, strict_insertion: bool = True) -> None:
        if size < 1:
            raise ConfigError(f"PSQ size must be >= 1, got {size}")
        self._size = size
        self.strict_insertion = strict_insertion
        self._entries: dict[int, PSQEntry] = {}
        self._next_seq = 0
        self.inserts = 0
        self.evictions = 0
        self.hits = 0
        self.rejected = 0

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, row: int) -> bool:
        return row in self._entries

    def __iter__(self) -> Iterator[PSQEntry]:
        return iter(
            sorted(self._entries.values(), key=PSQEntry.sort_key, reverse=True)
        )

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self._size

    def count_of(self, row: int) -> int | None:
        entry = self._entries.get(row)
        return entry.count if entry is not None else None

    def min_count(self) -> int:
        if len(self._entries) < self._size:
            return 0
        return min(entry.count for entry in self._entries.values())

    def top(self) -> PSQEntry | None:
        if not self._entries:
            return None
        return max(self._entries.values(), key=PSQEntry.sort_key)

    def max_count(self) -> int:
        top = self.top()
        return top.count if top is not None else 0

    def rows(self) -> list[int]:
        return [entry.row for entry in self]

    def observe(self, row: int, count: int) -> bool:
        if count < 0:
            raise ProtocolError(f"negative activation count {count}")
        entry = self._entries.get(row)
        if entry is not None:
            entry.count = count
            self.hits += 1
            return True
        if len(self._entries) < self._size:
            self._spec_insert(row, count)
            return True
        victim = min(self._entries.values(), key=PSQEntry.sort_key)
        accepts = (
            count > victim.count
            if self.strict_insertion
            else count >= victim.count
        )
        if accepts:
            del self._entries[victim.row]
            self.evictions += 1
            self._spec_insert(row, count)
            return True
        self.rejected += 1
        return False

    def pop_top(self) -> PSQEntry:
        top = self.top()
        if top is None:
            raise ProtocolError("pop_top() on an empty PSQ")
        del self._entries[top.row]
        return top

    def remove(self, row: int) -> bool:
        if row in self._entries:
            del self._entries[row]
            return True
        return False

    def clear(self) -> None:
        self._entries.clear()

    def _spec_insert(self, row: int, count: int) -> None:
        self._entries[row] = PSQEntry(row, count, self._next_seq)
        self._next_seq += 1
        self.inserts += 1

    def snapshot(self) -> list[tuple[int, int]]:
        return [(entry.row, entry.count) for entry in self]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{r}:{c}" for r, c in self.snapshot())
        return f"RefPSQ[{len(self)}/{self._size}]({body})"
