"""Baseline in-DRAM mitigations compared against QPRAC (Figure 20).

* :class:`~repro.mitigations.pride.PrIDEBank` — probabilistic sampling
  FIFO with cadence RFMs.
* :class:`~repro.mitigations.mithril.MithrilBank` — Misra-Gries summary
  with cadence RFMs.
* :class:`~repro.mitigations.misra_gries.MisraGries` — the underlying
  frequent-item sketch (also used by the Table IV storage model).
"""

from repro.mitigations.misra_gries import MisraGries
from repro.mitigations.mithril import (
    MITHRIL_ENTRIES_PER_BANK,
    MithrilBank,
    mithril_cadence_acts,
    mithril_entries,
)
from repro.mitigations.pride import (
    PRIDE_SAMPLE_PROBABILITY,
    PRIDE_TRH_TO_INTERVAL_RATIO,
    PrIDEBank,
    pride_cadence_acts,
)

__all__ = [
    "MisraGries",
    "MithrilBank",
    "MITHRIL_ENTRIES_PER_BANK",
    "mithril_cadence_acts",
    "mithril_entries",
    "PrIDEBank",
    "PRIDE_SAMPLE_PROBABILITY",
    "PRIDE_TRH_TO_INTERVAL_RATIO",
    "pride_cadence_acts",
]
