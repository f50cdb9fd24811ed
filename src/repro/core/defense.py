"""Common interface for per-bank in-DRAM Rowhammer defenses.

Every defense evaluated in the paper — QPRAC and its variants, Panopticon,
MOAT, UPRAC/Ideal, PrIDE, Mithril — plugs into the DRAM device model
through this interface, which mirrors the three moments a real in-DRAM
mitigation engine can act:

* **on_activation**: a row was activated; update tracking state and report
  whether the bank wants to assert Alert_n.
* **on_rfm**: the bank received an RFM (because of an Alert, an
  opportunistic all-bank RFM, or a controller-scheduled cadence RFM);
  perform up to one mitigation and report which aggressor was mitigated.
* **on_ref**: the bank is being refreshed; proactive mitigations happen in
  the REF shadow.

Mitigating an aggressor means refreshing its blast-radius victims,
resetting the aggressor's PRAC counter (where the design has one), and
doing the transitive-victim counter bookkeeping.  The shared helper
:func:`apply_mitigation` implements that sequence so that every defense
treats victims identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from repro.core.prac_counters import PRACCounterBank
from repro.core.psq import PriorityServiceQueue


class MitigationReason(Enum):
    """Why a mitigation was performed (drives energy accounting)."""

    ALERT = "alert"
    OPPORTUNISTIC = "opportunistic"
    PROACTIVE = "proactive"
    CADENCE = "cadence"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ``==``.  It keeps every ``mitigations_by_reason[reason]``
    # update in C; ``Enum.__hash__`` is a Python-level call.
    __hash__ = object.__hash__


@dataclass
class DefenseStats:
    """Uniform statistics every defense maintains."""

    activations: int = 0
    alerts: int = 0
    mitigations_by_reason: dict[MitigationReason, int] = field(
        default_factory=lambda: {reason: 0 for reason in MitigationReason}
    )
    victim_refreshes: int = 0

    @property
    def total_mitigations(self) -> int:
        return sum(self.mitigations_by_reason.values())


def blast_radius_victims(row: int, radius: int, num_rows: int) -> list[int]:
    """Victim rows within ``radius`` of ``row``, clipped to the bank."""
    victims = []
    for offset in range(1, radius + 1):
        if row - offset >= 0:
            victims.append(row - offset)
        if row + offset < num_rows:
            victims.append(row + offset)
    return victims


@lru_cache(maxsize=None)
def _victim_offsets(radius: int) -> tuple[int, ...]:
    """:func:`blast_radius_victims`' order as offsets from an unclipped row."""
    return tuple(
        victim - radius
        for victim in blast_radius_victims(radius, radius, 2 * radius + 1)
    )


def apply_mitigation(
    counters: PRACCounterBank,
    row: int,
    radius: int,
    stats: DefenseStats,
    reason: MitigationReason,
    psq: PriorityServiceQueue | None = None,
    reset_aggressor: bool = True,
) -> list[int]:
    """Mitigate ``row``: refresh victims, reset the aggressor counter.

    Implements Section III-C2 of the paper: each mitigative refresh to a
    victim row increments the victim's PRAC counter (saturating, and
    counted in ``total_activations``, exactly as
    :meth:`~repro.core.prac_counters.PRACCounterBank.activate`), and the
    victim is offered to the PSQ (when one exists) under the normal
    insertion rule — this is QPRAC's transitive (Half-Double) protection.
    Returns the list of refreshed victim rows, in
    :func:`blast_radius_victims` order.

    This is the one mitigation path, shared by every defense: victim
    offsets come from a per-radius cache (rows within ``radius`` of an
    edge fall back to :func:`blast_radius_victims` for clipping), and the
    counters (increments, saturation, the aggressor's reset) and
    ``stats`` are updated in place rather than through per-victim calls.

    ``reset_aggressor=False`` models Panopticon's t-bit design, whose
    counters keep counting across mitigations (the next enqueue happens at
    the next threshold multiple).
    """
    num_rows = counters.num_rows
    if radius <= row < num_rows - radius:
        victims = [row + offset for offset in _victim_offsets(radius)]
    else:
        counters.check_row(row)
        victims = blast_radius_victims(row, radius, num_rows)
    counts = counters.counts
    cap = counters.max_value
    observe = psq.observe if psq is not None else None
    for victim in victims:
        count = counts[victim]
        if cap is not None and count >= cap:
            counters.saturation_events += 1
        else:
            count += 1
            counts[victim] = count
        if observe is not None:
            observe(victim, count)
    counters.total_activations += len(victims)
    if reset_aggressor:
        counts.pop(row, None)
        counters.total_resets += 1
    if psq is not None:
        psq.remove(row)
    stats.mitigations_by_reason[reason] += 1
    stats.victim_refreshes += len(victims)
    return victims


class BankDefense(ABC):
    """Abstract per-bank defense engine consumed by the DRAM device model."""

    def __init__(self) -> None:
        self.stats = DefenseStats()

    @abstractmethod
    def on_activation(self, row: int) -> bool:
        """Record an activation of ``row``; return True iff this bank now
        wants to assert Alert_n."""

    @abstractmethod
    def wants_alert(self) -> bool:
        """True while the bank's tracked state still warrants an Alert."""

    @abstractmethod
    def on_rfm(self, is_alerting_bank: bool) -> list[int]:
        """Service one RFM; return the aggressor rows mitigated (possibly []).

        Both engines pass the flag positionally, so an override (or a
        wrapper) may name the parameter as it likes.
        """

    def on_ref(self) -> list[int]:
        """Service one REF; proactive designs mitigate here.  Default: none."""
        return []

    @property
    def rfm_cadence_acts(self) -> int | None:
        """For cadence-based defenses (PrIDE/Mithril): controller must issue
        one RFM per this many activations.  ``None`` = alert-driven only."""
        return None

    @property
    def psq_occupancy(self) -> int | None:
        """Current depth of this defense's Priority Service Queue.

        The telemetry seam (:mod:`repro.obs`) samples this at every REF
        tick to track PSQ high-water marks.  Defaults to the ``psq``
        attribute's length when the defense keeps one (the QPRAC
        family); queue-less designs report ``None``, which the sampler
        ignores.  Observation only — reading it must never mutate
        defense state.
        """
        psq = getattr(self, "psq", None)
        return len(psq) if psq is not None else None
