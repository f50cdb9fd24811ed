"""QPRAC per-bank engine: PRAC counters + PSQ + the paper's mitigation policy.

One :class:`QPRACBank` instance corresponds to one DRAM bank equipped with:

* per-row PRAC activation counters (:mod:`repro.core.prac_counters`),
* a priority-based service queue (:mod:`repro.core.psq`),
* the mitigation policy of Section III, parameterised by the evaluated
  variant (Section V "Evaluated Designs"):

  - ``QPRAC_NOOP``      — mitigate on RFM only if *this* bank's top entry
    reached N_BO (no opportunism);
  - ``QPRAC``           — opportunistically mitigate the top entry on every
    received RFM, regardless of its count;
  - ``QPRAC_PROACTIVE`` — additionally mitigate the top entry on every REF;
  - ``QPRAC_PROACTIVE_EA`` — proactive mitigation only when the top entry
    has reached N_PRO = N_BO / K (energy-aware);
  - ``QPRAC_IDEAL``     — oracle: mitigates the globally highest-count rows
    (by scanning all per-row counters) and also mitigates proactively.
"""

from __future__ import annotations

from repro.core.defense import (
    BankDefense,
    MitigationReason,
    apply_mitigation,
)
from repro.core.prac_counters import PRACCounterBank
from repro.core.psq import PriorityServiceQueue
from repro.params import MitigationVariant, PRACParams, prac_counter_bits


class QPRACBank(BankDefense):
    """QPRAC defense state for a single DRAM bank.

    Parameters
    ----------
    params:
        PRAC/QPRAC parameters (N_BO, N_mit, PSQ size, blast radius, ...).
    num_rows:
        Rows in this bank.
    variant:
        Which of the paper's evaluated policies this bank implements.
    counter_bits:
        Optional explicit PRAC counter width.  Defaults to the Section III-E
        sizing rule for ``t_rh = 2 * n_bo`` (a conservative bound that always
        exceeds the maximum legitimate count); pass ``None`` explicitly via
        ``unbounded_counters=True`` for analysis runs.
    """

    def __init__(
        self,
        params: PRACParams,
        num_rows: int,
        variant: MitigationVariant = MitigationVariant.QPRAC,
        counter_bits: int | None = None,
        unbounded_counters: bool = False,
    ) -> None:
        super().__init__()
        if counter_bits is None and not unbounded_counters:
            # Sized so the worst-case bounded count (Section IV, Figure 13)
            # never saturates: 2 * N_BO + N_online head-room is < 4 * N_BO
            # for every configuration in the paper.
            counter_bits = prac_counter_bits(max(4 * params.n_bo, 64))
        self.params = params
        self.variant = variant
        self.counters = PRACCounterBank(
            num_rows, counter_bits if not unbounded_counters else None
        )
        self.psq = PriorityServiceQueue(
            params.psq_size, strict_insertion=params.strict_psq_insertion
        )
        self._refs_seen = 0
        # The variant's policy as flags fixed at construction, so the
        # hooks test booleans instead of comparing enum members per call.
        self._noop = variant is MitigationVariant.QPRAC_NOOP
        self._ideal = variant is MitigationVariant.QPRAC_IDEAL
        self._proactive = variant not in (
            MitigationVariant.QPRAC_NOOP,
            MitigationVariant.QPRAC,
        )
        #: Lowest top count a proactive mitigation acts on: N_PRO for the
        #: energy-aware variant, 0 (no gate) for the others.
        self._n_pro = (
            params.n_pro
            if variant is MitigationVariant.QPRAC_PROACTIVE_EA
            else 0
        )
        self._every_n_refs = params.proactive_every_n_refs
        self._radius = params.blast_radius
        # Hot-path prebinds: on_activation runs once per DRAM ACT.
        self._n_bo = params.n_bo
        self._psq_observe = self.psq.observe
        self._psq_peek = self.psq.peek

    # ------------------------------------------------------------------
    # Activation path
    # ------------------------------------------------------------------
    def on_activation(self, row: int) -> bool:
        """Increment PRAC counter, update PSQ, report Alert demand."""
        self.stats.activations += 1
        # PRACCounterBank.activate, inline.
        counters = self.counters
        if row < 0 or row >= counters.num_rows:
            counters.check_row(row)
        counters.total_activations += 1
        counts = counters.counts
        count = counts[row]
        cap = counters.max_value
        if cap is not None and count >= cap:
            counters.saturation_events += 1
        else:
            count += 1
            counts[row] = count
        self._psq_observe(row, count)
        # wants_alert(), inline: observe() never leaves the queue empty.
        return self._psq_peek()[0] >= self._n_bo

    def wants_alert(self) -> bool:
        """Single-threshold rule of Section III-C: top PSQ count >= N_BO."""
        return self.psq.max_count() >= self._n_bo

    # ------------------------------------------------------------------
    # Mitigation paths
    # ------------------------------------------------------------------
    def on_rfm(self, is_alerting_bank: bool) -> list[int]:
        """Service one RFM; mitigate according to the variant policy."""
        reason = (
            MitigationReason.ALERT
            if is_alerting_bank
            else MitigationReason.OPPORTUNISTIC
        )
        if self._ideal:
            return self._mitigate_ideal(reason)
        top = self._psq_peek()
        if top is None:
            return []
        if self._noop and not is_alerting_bank and top[0] < self._n_bo:
            # No opportunistic mitigation: banks below N_BO stay idle.
            return []
        row = top[2]
        apply_mitigation(
            self.counters, row, self._radius, self.stats, reason, self.psq
        )
        return [row]

    def on_ref(self) -> list[int]:
        """Proactive mitigation in the shadow of a REF (Section III-D2).

        Every proactive variant, QPRAC-Ideal included, mitigates the PSQ's
        top entry here; the energy-aware one skips wasteful mitigations
        of rows below N_PRO.
        """
        self._refs_seen += 1
        if not self._proactive or self._refs_seen % self._every_n_refs:
            return []
        top = self._psq_peek()
        if top is None or top[0] < self._n_pro:
            return []
        row = top[2]
        apply_mitigation(
            self.counters,
            row,
            self._radius,
            self.stats,
            MitigationReason.PROACTIVE,
            self.psq,
        )
        return [row]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _mitigate_ideal(self, reason: MitigationReason) -> list[int]:
        """Oracle mitigation: the single globally-highest-count row.

        QPRAC-Ideal models UPRAC's assumption that the DRAM can identify the
        top activated rows without a service queue.  One RFM mitigates one
        row, so we take the global argmax per RFM.
        """
        top = self.counters.top_n(1)
        if not top:
            return []
        row, _count = top[0]
        apply_mitigation(
            self.counters, row, self._radius, self.stats, reason, self.psq
        )
        return [row]

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and reports
    # ------------------------------------------------------------------
    def max_tracked_count(self) -> int:
        return self.psq.max_count()

    def storage_bits(self) -> int:
        """SRAM bits of the PSQ CAM (Section VI-F: ~15 bytes per bank).

        Each entry: a 17-bit RowID (128K rows) plus the activation counter.
        """
        counter_bits = prac_counter_bits(max(2 * self.params.n_bo, 64))
        row_bits = max(1, (self.counters.num_rows - 1).bit_length())
        return self.params.psq_size * (row_bits + counter_bits)
