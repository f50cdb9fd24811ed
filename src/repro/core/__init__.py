"""Core QPRAC mechanisms: PSQ, PRAC counters, ABO protocol, defenses.

The public surface of the paper's primary contribution:

* :class:`~repro.core.psq.PriorityServiceQueue` — the priority-based
  service queue (Section III-B).
* :class:`~repro.core.prac_counters.PRACCounterBank` — per-row activation
  counters (Section II-D).
* :class:`~repro.core.abo.AboProtocol` — the activation-slot Alert
  Back-Off state machine of the wave-attack model.
* :class:`~repro.core.qprac.QPRACBank` — the per-bank QPRAC engine with all
  evaluated policy variants.
* Baselines: :class:`~repro.core.panopticon.PanopticonBank`,
  :class:`~repro.core.panopticon.FullCompareBank`,
  :class:`~repro.core.moat.MOATBank`, :class:`~repro.core.uprac.UPRACBank`.
"""

from repro.core.abo import AboProtocol, AboState
from repro.core.defense import (
    BankDefense,
    DefenseStats,
    MitigationReason,
    apply_mitigation,
    blast_radius_victims,
)
from repro.core.fifo_queue import FifoServiceQueue
from repro.core.moat import MOATBank
from repro.core.panopticon import FullCompareBank, PanopticonBank
from repro.core.prac_counters import PRACCounterBank
from repro.core.psq import PriorityServiceQueue, PSQEntry
from repro.core.qprac import QPRACBank
from repro.core.uprac import UPRACBank

__all__ = [
    "AboProtocol",
    "AboState",
    "BankDefense",
    "DefenseStats",
    "MitigationReason",
    "apply_mitigation",
    "blast_radius_victims",
    "FifoServiceQueue",
    "MOATBank",
    "FullCompareBank",
    "PanopticonBank",
    "PRACCounterBank",
    "PriorityServiceQueue",
    "PSQEntry",
    "QPRACBank",
    "UPRACBank",
]
