"""Per-bank DRAM timing and protocol state.

Each bank tracks its open row and the earliest instants at which the next
ACT / CAS / PRE may legally start, derived from the DDR5 constraints in
:class:`repro.params.DDR5Timing`.  Both simulation engines schedule
against these records (built by
:func:`repro.controller.memctrl.build_ranks`) and compose them with
rank-level blackouts (REF, RFM, Alert servicing).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.controller.request import Request
    from repro.core.defense import BankDefense


class BankState:
    """Mutable scheduling state of one DRAM bank.

    A ``__slots__`` class: every request service touches half a dozen of
    these fields, and each run holds one instance per bank of the whole
    memory — attribute access and memory locality both matter.  The
    request queue and its wake-up fields serve the event controller's
    FR-FCFS scheduling; the batched replay leaves them empty.
    """

    __slots__ = (
        "index",
        "channel",
        "rank",
        "bankgroup",
        "bank",
        "defense",
        "on_activation",
        "on_rfm",
        "cadence_acts",
        "cadence_act_counter",
        "open_row",
        "act_allowed",
        "pre_allowed",
        "cas_allowed",
        "blocked_until",
        "ready_at",
        "rank_state",
        "pending",
        "consider_scheduled",
        "consider_handler",
    )

    def __init__(
        self,
        index: int,
        channel: int,
        rank: int,
        bankgroup: int,
        bank: int,
        defense: "BankDefense",
    ) -> None:
        self.index = index
        self.channel = channel
        self.rank = rank
        self.bankgroup = bankgroup
        #: Position within the bank group (the SAME_BANK RFM scope key).
        self.bank = bank
        self.defense = defense
        #: The defense's ACT and RFM hooks, bound once, and its RFM
        #: cadence (a per-design constant): both run per activation.
        self.on_activation = defense.on_activation
        self.on_rfm = defense.on_rfm
        self.cadence_acts: int | None = defense.rfm_cadence_acts
        self.cadence_act_counter = 0

        #: The open row, or -1 while the bank is precharged.
        self.open_row = -1
        #: Earliest start for the next ACT (tRC after the previous ACT).
        self.act_allowed = 0.0
        #: Earliest start for the next PRE (tRAS / tRTP / tWR constraints).
        self.pre_allowed = 0.0
        #: Earliest start for the next CAS to the open row (tRCD after ACT).
        self.cas_allowed = 0.0
        #: Bank-scoped blackout (RFMsb / RFMpb / cadence RFMs end here).
        self.blocked_until = 0.0
        #: The bank is considered occupied by its current request until here.
        self.ready_at = 0.0
        #: The owning :class:`~repro.controller.memctrl.RankState`.
        self.rank_state: Any = None

        self.pending: deque = deque()
        self.consider_scheduled = False
        #: Pre-bound wake-up callback, set by the controller; scheduling a
        #: consider event must not allocate a fresh closure per event.
        self.consider_handler: Any = None

    def pick_request(self) -> "Request":
        """FR-FCFS: oldest row-hit first, otherwise the oldest request."""
        open_row = self.open_row
        pending = self.pending
        if open_row >= 0:
            for i, req in enumerate(pending):
                if req.row == open_row:
                    if i:
                        del pending[i]
                        return req
                    break
        return pending.popleft()
