"""MOAT (Qureshi & Qazi, ASPLOS'25) — the concurrent secure-PRAC design.

MOAT tracks a *single* candidate row per bank using two thresholds:

* an **enqueuing threshold** ``ETH`` (the paper's comparison, Section VII-A,
  uses ``ETH = N_BO / 2``): a row becomes the tracked candidate when its
  activation count reaches ETH and exceeds the current candidate's count;
* the **Alert threshold** ``N_BO``: the bank asserts Alert when the tracked
  candidate's count reaches N_BO.

Because there is only one tracked entry (plus the implicit in-DRAM
counters), MOAT cannot exploit opportunistic all-bank RFMs as effectively
as QPRAC's multi-entry PSQ — it frequently has nothing hot enough to
mitigate — which is why QPRAC outperforms it at low N_BO (Figure 21).

A proactive variant mitigates the tracked candidate during REF at a
configurable cadence (``proactive_every_n_refs``), mirroring the
"MOAT+Proactive: 1 per {1,4} tREFI" series in Figures 21/22.
"""

from __future__ import annotations

from repro.core.defense import (
    BankDefense,
    MitigationReason,
    apply_mitigation,
)
from repro.core.prac_counters import PRACCounterBank
from repro.errors import ConfigError


class MOATBank(BankDefense):
    """MOAT defense state for a single DRAM bank."""

    def __init__(
        self,
        n_bo: int,
        num_rows: int,
        eth: int | None = None,
        blast_radius: int = 2,
        proactive_every_n_refs: int | None = None,
    ) -> None:
        super().__init__()
        if n_bo < 2:
            raise ConfigError(f"n_bo must be >= 2 for MOAT, got {n_bo}")
        self.n_bo = n_bo
        self.eth = eth if eth is not None else max(1, n_bo // 2)
        if self.eth > n_bo:
            raise ConfigError("ETH must not exceed N_BO")
        self.counters = PRACCounterBank(num_rows, counter_bits=None)
        self.blast_radius = blast_radius
        self.proactive_every_n_refs = proactive_every_n_refs
        self._tracked_row: int | None = None
        self._tracked_count = 0
        self._refs_seen = 0

    @property
    def tracked(self) -> tuple[int, int] | None:
        """(row, count) currently tracked, or None."""
        if self._tracked_row is None:
            return None
        return (self._tracked_row, self._tracked_count)

    def on_activation(self, row: int) -> bool:
        self.stats.activations += 1
        # PRACCounterBank.activate, inline (MOAT's counters never saturate).
        counters = self.counters
        if row < 0 or row >= counters.num_rows:
            counters.check_row(row)
        counters.total_activations += 1
        counts = counters.counts
        count = counts[row] + 1
        counts[row] = count
        if row == self._tracked_row:
            self._tracked_count = count
        elif count >= self.eth and count > self._tracked_count:
            self._tracked_row = row
            self._tracked_count = count
        # wants_alert(), inline.
        return self._tracked_count >= self.n_bo

    def wants_alert(self) -> bool:
        return self._tracked_count >= self.n_bo

    def on_rfm(self, is_alerting_bank: bool) -> list[int]:
        if self._tracked_row is None:
            return []
        row = self._tracked_row
        apply_mitigation(
            self.counters,
            row,
            self.blast_radius,
            self.stats,
            MitigationReason.ALERT if is_alerting_bank else MitigationReason.OPPORTUNISTIC,
        )
        self._clear_tracked()
        return [row]

    def on_ref(self) -> list[int]:
        self._refs_seen += 1
        if self.proactive_every_n_refs is None:
            return []
        if self._refs_seen % self.proactive_every_n_refs != 0:
            return []
        if self._tracked_row is None:
            return []
        row = self._tracked_row
        apply_mitigation(
            self.counters,
            row,
            self.blast_radius,
            self.stats,
            MitigationReason.PROACTIVE,
        )
        self._clear_tracked()
        return [row]

    def _clear_tracked(self) -> None:
        self._tracked_row = None
        self._tracked_count = 0
