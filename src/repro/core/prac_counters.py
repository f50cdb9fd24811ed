"""Per-row activation counters as mandated by the PRAC framework.

PRAC attaches an activation counter to every DRAM row, stored in extra DRAM
cells and incremented in the shadow of precharge.  This module models one
bank's worth of counters.

Behavioural rules (paper Sections II-D and III-C2):

* An activation increments the activated row's counter by one.
* Mitigating an aggressor resets its counter to zero (the reset is realised
  in hardware by an activation that writes back zero).
* A mitigative refresh to a *victim* row increments that victim's counter —
  this is how QPRAC defends against transitive attacks such as Half-Double.
* Counters saturate at the width chosen via
  :func:`repro.params.prac_counter_bits`; with correctly sized counters and
  a functioning mitigation path the saturation point is never reached, and
  tests assert as much.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import ConfigError


class PRACCounterBank:
    """Activation counters for all rows of a single DRAM bank.

    The dense hardware array is modelled sparsely: rows that were never
    activated implicitly hold zero.  This keeps 128K-row banks cheap to
    simulate while remaining behaviourally identical.

    Parameters
    ----------
    num_rows:
        Rows in the bank (used only for bounds checking).
    counter_bits:
        Width of each counter; counts saturate at ``2**counter_bits - 1``.
        ``None`` disables saturation (an "ideal" unbounded counter, used by
        the security analyses to observe true activation counts).

    Attributes
    ----------
    num_rows:
        Rows in the bank.
    max_value:
        Saturation value, or None for unbounded counters.
    counts:
        The live row -> count mapping (a ``defaultdict(int)``).  The
        defenses' inlined activation paths and
        :func:`~repro.core.defense.apply_mitigation` (whose victim
        refreshes count as activations, paper Section III-C2) update it in
        place together with ``total_activations`` and
        ``saturation_events``, exactly as :meth:`activate` does.  Other
        callers read :meth:`get` or :meth:`nonzero_rows`.

    All three are fixed at construction and read-only to callers (the
    mapping's contents aside).
    """

    def __init__(self, num_rows: int, counter_bits: int | None = None) -> None:
        if num_rows < 1:
            raise ConfigError(f"num_rows must be >= 1, got {num_rows}")
        if counter_bits is not None and counter_bits < 1:
            raise ConfigError(f"counter_bits must be >= 1, got {counter_bits}")
        self.num_rows = num_rows
        self.max_value = (
            (1 << counter_bits) - 1 if counter_bits is not None else None
        )
        self.counts: dict[int, int] = defaultdict(int)
        # Lifetime statistics.
        self.total_activations = 0
        self.total_resets = 0
        self.saturation_events = 0

    def check_row(self, row: int) -> None:
        """Raise :class:`~repro.errors.ConfigError` unless ``row`` is in
        the bank."""
        if not 0 <= row < self.num_rows:
            raise ConfigError(
                f"row {row} out of range for bank with {self.num_rows} rows"
            )

    def activate(self, row: int) -> int:
        """Record an activation of ``row``; return the new counter value."""
        if row < 0 or row >= self.num_rows:
            self.check_row(row)
        self.total_activations += 1
        counts = self.counts
        value = counts[row]
        if self.max_value is not None and value >= self.max_value:
            self.saturation_events += 1
            return value
        counts[row] = value + 1
        return value + 1

    def reset(self, row: int) -> None:
        """Reset ``row``'s counter to zero (the aggressor was mitigated)."""
        self.check_row(row)
        if row in self.counts:
            del self.counts[row]
        self.total_resets += 1

    def get(self, row: int) -> int:
        """Current counter value for ``row`` (0 if never activated)."""
        self.check_row(row)
        return self.counts.get(row, 0)

    def nonzero_rows(self) -> dict[int, int]:
        """Copy of all rows with a nonzero counter (oracle scans use this)."""
        return dict(self.counts)

    def top_n(self, n: int) -> list[tuple[int, int]]:
        """The ``n`` highest-count (row, count) pairs, descending.

        This is the oracular "read every per-row counter" scan that UPRAC
        assumes and that the paper shows is impractical in real DRAM; the
        simulator uses it for the QPRAC-Ideal baseline only.
        """
        if n < 0:
            raise ConfigError(f"n must be >= 0, got {n}")
        items = sorted(
            self.counts.items(), key=lambda kv: (kv[1], kv[0]), reverse=True
        )
        return items[:n]

    def max_count(self) -> int:
        """Highest counter value currently stored in the bank."""
        if not self.counts:
            return 0
        return max(self.counts.values())

    def __len__(self) -> int:
        """Number of rows with a nonzero count."""
        return len(self.counts)
