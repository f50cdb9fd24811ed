"""Unit tests for the QPRAC per-bank engine and its policy variants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.defense import (
    DefenseStats,
    MitigationReason,
    blast_radius_victims,
)
from repro.core.fifo_queue import FifoServiceQueue
from repro.core.moat import MOATBank
from repro.core.panopticon import FullCompareBank, PanopticonBank
from repro.core.prac_counters import PRACCounterBank
from repro.core.psq import ReferencePriorityServiceQueue
from repro.core.qprac import QPRACBank
from repro.params import MitigationVariant, PRACParams

NUM_ROWS = 4096


def make_bank(
    variant=MitigationVariant.QPRAC,
    n_bo=8,
    n_mit=1,
    psq_size=5,
    **kwargs,
) -> QPRACBank:
    params = PRACParams(n_bo=n_bo, n_mit=n_mit, psq_size=psq_size, **kwargs)
    return QPRACBank(params, num_rows=NUM_ROWS, variant=variant)


def hammer(bank: QPRACBank, row: int, times: int) -> bool:
    wants = False
    for _ in range(times):
        wants = bank.on_activation(row)
    return wants


class TestActivationPath:
    def test_activation_updates_counter_and_psq(self):
        bank = make_bank()
        bank.on_activation(100)
        assert bank.counters.get(100) == 1
        assert 100 in bank.psq

    def test_alert_at_n_bo(self):
        bank = make_bank(n_bo=8)
        assert not hammer(bank, 100, 7)
        assert hammer(bank, 100, 1)  # the 8th activation crosses N_BO
        assert bank.wants_alert()

    def test_no_alert_below_n_bo(self):
        bank = make_bank(n_bo=8)
        hammer(bank, 100, 7)
        assert not bank.wants_alert()

    def test_single_threshold_rule(self):
        """Section III-C1: one threshold flags mitigation AND raises the
        Alert — the row that trips it is the one at the PSQ top."""
        bank = make_bank(n_bo=8)
        hammer(bank, 100, 8)
        assert bank.psq.top().row == 100
        assert bank.psq.top().count == 8


class TestMitigation:
    def test_rfm_mitigates_top_and_resets_counter(self):
        bank = make_bank(n_bo=8)
        hammer(bank, 100, 8)
        hammer(bank, 200, 3)
        mitigated = bank.on_rfm(is_alerting_bank=True)
        assert mitigated == [100]
        assert bank.counters.get(100) == 0
        assert 100 not in bank.psq
        assert not bank.wants_alert()

    def test_victims_refreshed_and_counted(self):
        """Section III-C2: blast-radius victims get counter increments
        (transitive / Half-Double protection)."""
        bank = make_bank(n_bo=8)
        hammer(bank, 100, 8)
        bank.on_rfm(is_alerting_bank=True)
        for victim in (98, 99, 101, 102):
            assert bank.counters.get(victim) == 1
        assert bank.stats.victim_refreshes == 4

    def test_victims_enter_psq_when_eligible(self):
        bank = make_bank(n_bo=8, psq_size=5)
        hammer(bank, 100, 8)
        bank.on_rfm(is_alerting_bank=True)
        # Queue had spare capacity, so count-1 victims are inserted.
        assert 99 in bank.psq

    def test_edge_row_victims_clipped(self):
        bank = make_bank(n_bo=8)
        hammer(bank, 0, 8)
        victims = blast_radius_victims(0, 2, NUM_ROWS)
        assert victims == [1, 2]
        bank.on_rfm(is_alerting_bank=True)
        assert bank.counters.get(1) == 1

    def test_rfm_on_empty_psq_is_noop(self):
        bank = make_bank()
        assert bank.on_rfm(is_alerting_bank=True) == []

    def test_mitigation_reasons_attributed(self):
        bank = make_bank(variant=MitigationVariant.QPRAC)
        hammer(bank, 100, 8)
        bank.on_rfm(is_alerting_bank=True)
        hammer(bank, 200, 2)
        bank.on_rfm(is_alerting_bank=False)
        counts = bank.stats.mitigations_by_reason
        assert counts[MitigationReason.ALERT] == 1
        assert counts[MitigationReason.OPPORTUNISTIC] == 1


class TestVariantPolicies:
    def test_noop_skips_opportunistic(self):
        bank = make_bank(variant=MitigationVariant.QPRAC_NOOP, n_bo=8)
        hammer(bank, 100, 3)  # below N_BO
        assert bank.on_rfm(is_alerting_bank=False) == []

    def test_noop_mitigates_when_it_wants_alert(self):
        bank = make_bank(variant=MitigationVariant.QPRAC_NOOP, n_bo=8)
        hammer(bank, 100, 8)
        assert bank.on_rfm(is_alerting_bank=False) == [100]

    def test_qprac_mitigates_opportunistically_below_n_bo(self):
        bank = make_bank(variant=MitigationVariant.QPRAC, n_bo=8)
        hammer(bank, 100, 3)
        assert bank.on_rfm(is_alerting_bank=False) == [100]

    def test_plain_variants_skip_proactive(self):
        for variant in (MitigationVariant.QPRAC_NOOP, MitigationVariant.QPRAC):
            bank = make_bank(variant=variant, n_bo=8)
            hammer(bank, 100, 5)
            assert bank.on_ref() == []

    def test_proactive_mitigates_on_every_ref(self):
        bank = make_bank(variant=MitigationVariant.QPRAC_PROACTIVE, n_bo=8)
        hammer(bank, 100, 2)  # far below N_BO
        assert bank.on_ref() == [100]
        counts = bank.stats.mitigations_by_reason
        assert counts[MitigationReason.PROACTIVE] == 1

    def test_proactive_cadence_every_n_refs(self):
        bank = QPRACBank(
            PRACParams(n_bo=8, proactive_every_n_refs=2),
            num_rows=NUM_ROWS,
            variant=MitigationVariant.QPRAC_PROACTIVE,
        )
        hammer(bank, 100, 3)
        assert bank.on_ref() == []  # 1st REF skipped
        assert bank.on_ref() == [100]  # 2nd REF mitigates

    def test_energy_aware_respects_n_pro(self):
        bank = make_bank(
            variant=MitigationVariant.QPRAC_PROACTIVE_EA, n_bo=8
        )  # N_PRO = 4
        hammer(bank, 100, 3)
        assert bank.on_ref() == []  # below N_PRO: skipped (energy saved)
        hammer(bank, 100, 1)
        assert bank.on_ref() == [100]  # at N_PRO: mitigated

    def test_ideal_mitigates_global_top_even_outside_psq(self):
        bank = make_bank(variant=MitigationVariant.QPRAC_IDEAL, n_bo=20, psq_size=1)
        hammer(bank, 100, 10)
        # Push 100 out of the 1-entry PSQ with a hotter row.
        hammer(bank, 200, 12)
        assert 100 not in bank.psq
        assert bank.on_rfm(is_alerting_bank=True) == [200]
        # The oracle finds row 100 next even though the PSQ lost it.
        assert bank.on_rfm(is_alerting_bank=True) == [100]

    def test_ideal_proactive_on_ref(self):
        bank = make_bank(variant=MitigationVariant.QPRAC_IDEAL, n_bo=20)
        hammer(bank, 100, 3)
        assert bank.on_ref() == [100]


class TestSizing:
    def test_storage_is_15_bytes_for_default_config(self):
        """Section VI-F: 5 entries x (17-bit RowID + 7-bit counter)."""
        bank = QPRACBank(
            PRACParams(), num_rows=128 * 1024, variant=MitigationVariant.QPRAC
        )
        assert bank.storage_bits() == 120
        assert bank.storage_bits() / 8 == 15.0

    def test_counters_do_not_saturate_under_protocol(self):
        """With the mitigation path running, bounded counters never hit
        their ceiling (Section III-E sizing)."""
        bank = make_bank(n_bo=8)
        for _ in range(50):
            if hammer(bank, 100, 1):
                bank.on_rfm(is_alerting_bank=True)
        assert bank.counters.saturation_events == 0

    def test_max_tracked_count(self):
        bank = make_bank()
        hammer(bank, 1, 5)
        assert bank.max_tracked_count() == 5


# ----------------------------------------------------------------------
# Bank-level differential: the flat hooks vs the original algorithm
# ----------------------------------------------------------------------
def _reference_apply_mitigation(
    counters, row, radius, stats, reason, psq=None, reset_aggressor=True
):
    """``apply_mitigation`` before the flat path, with its two helpers
    expanded: one ``activate`` per victim (the old
    ``increment_victim``), then the old ``record_mitigation`` body."""
    victims = blast_radius_victims(row, radius, counters.num_rows)
    for victim in victims:
        new_count = counters.activate(victim)
        if psq is not None:
            psq.observe(victim, new_count)
    if reset_aggressor:
        counters.reset(row)
    if psq is not None:
        psq.remove(row)
    stats.mitigations_by_reason[reason] += 1
    stats.victim_refreshes += len(victims)
    return victims


def _reason(is_alerting_bank: bool) -> MitigationReason:
    return (
        MitigationReason.ALERT
        if is_alerting_bank
        else MitigationReason.OPPORTUNISTIC
    )


class _ReferenceQPRACBank:
    """QPRACBank's policy as the original per-call code: counters, the
    scan-per-call PSQ oracle and ``_reference_apply_mitigation``."""

    def __init__(self, params, num_rows, variant, counter_bits):
        self.params = params
        self.variant = variant
        self.stats = DefenseStats()
        self.counters = PRACCounterBank(num_rows, counter_bits)
        self.psq = ReferencePriorityServiceQueue(
            params.psq_size, strict_insertion=params.strict_psq_insertion
        )
        self.refs_seen = 0

    def on_activation(self, row):
        self.stats.activations += 1
        self.psq.observe(row, self.counters.activate(row))
        return self.wants_alert()

    def wants_alert(self):
        return self.psq.max_count() >= self.params.n_bo

    def on_rfm(self, is_alerting_bank):
        if (
            self.variant is MitigationVariant.QPRAC_NOOP
            and not is_alerting_bank
            and not self.wants_alert()
        ):
            return []
        if self.variant is MitigationVariant.QPRAC_IDEAL:
            top = self.counters.top_n(1)
            if not top:
                return []
            return self._mitigate(top[0][0], _reason(is_alerting_bank))
        top = self.psq.top()
        if top is None:
            return []
        return self._mitigate(top.row, _reason(is_alerting_bank))

    def on_ref(self):
        self.refs_seen += 1
        if self.variant in (
            MitigationVariant.QPRAC_NOOP, MitigationVariant.QPRAC,
        ):
            return []
        if self.refs_seen % self.params.proactive_every_n_refs != 0:
            return []
        top = self.psq.top()
        if top is None:
            return []
        if (
            self.variant is MitigationVariant.QPRAC_PROACTIVE_EA
            and top.count < self.params.n_pro
        ):
            return []
        return self._mitigate(top.row, MitigationReason.PROACTIVE)

    def _mitigate(self, row, reason):
        _reference_apply_mitigation(
            self.counters, row, self.params.blast_radius, self.stats,
            reason, psq=self.psq,
        )
        return [row]


class _ReferenceMOATBank:
    """MOATBank before its activation path was inlined."""

    def __init__(self, n_bo, num_rows, blast_radius, proactive_every_n_refs):
        self.n_bo = n_bo
        self.eth = max(1, n_bo // 2)
        self.stats = DefenseStats()
        self.counters = PRACCounterBank(num_rows)
        self.blast_radius = blast_radius
        self.proactive_every_n_refs = proactive_every_n_refs
        self.tracked = None
        self.refs_seen = 0

    def on_activation(self, row):
        self.stats.activations += 1
        count = self.counters.activate(row)
        if self.tracked is not None and row == self.tracked[0]:
            self.tracked = (row, count)
        elif count >= self.eth and count > self._tracked_count():
            self.tracked = (row, count)
        return self.wants_alert()

    def _tracked_count(self):
        return self.tracked[1] if self.tracked is not None else 0

    def wants_alert(self):
        return self._tracked_count() >= self.n_bo

    def on_rfm(self, is_alerting_bank):
        return self._mitigate(_reason(is_alerting_bank))

    def on_ref(self):
        self.refs_seen += 1
        if (
            self.proactive_every_n_refs is None
            or self.refs_seen % self.proactive_every_n_refs != 0
        ):
            return []
        return self._mitigate(MitigationReason.PROACTIVE)

    def _mitigate(self, reason):
        if self.tracked is None:
            return []
        row = self.tracked[0]
        _reference_apply_mitigation(
            self.counters, row, self.blast_radius, self.stats, reason
        )
        self.tracked = None
        return [row]


class _ReferenceFifoBank:
    """PanopticonBank (t-bit toggles, counters kept across mitigations)
    or FullCompareBank (full-count compare, counters reset), with the
    original mitigation path."""

    def __init__(self, threshold, t_bit_toggles, queue_size, num_rows,
                 blast_radius):
        self.threshold = threshold
        self.t_bit_toggles = t_bit_toggles
        self.queue = FifoServiceQueue(queue_size)
        self.stats = DefenseStats()
        self.counters = PRACCounterBank(num_rows)
        self.blast_radius = blast_radius

    def on_activation(self, row):
        self.stats.activations += 1
        count = self.counters.activate(row)
        if self.t_bit_toggles:
            if count % self.threshold == 0:
                self.queue.try_enqueue(row)
        elif count >= self.threshold and row not in self.queue:
            self.queue.try_enqueue(row)
        return self.wants_alert()

    def wants_alert(self):
        return self.queue.is_full

    def on_rfm(self, is_alerting_bank):
        return self._mitigate(_reason(is_alerting_bank))

    def on_ref(self):
        return self._mitigate(MitigationReason.PROACTIVE)

    def _mitigate(self, reason):
        row = self.queue.pop_front_or_none()
        if row is None:
            return []
        _reference_apply_mitigation(
            self.counters, row, self.blast_radius, self.stats, reason,
            reset_aggressor=not self.t_bit_toggles,
        )
        return [row]


_QPRAC_KINDS = {
    "qprac-noop": MitigationVariant.QPRAC_NOOP,
    "qprac": MitigationVariant.QPRAC,
    "qprac+proactive": MitigationVariant.QPRAC_PROACTIVE,
    "qprac+proactive-ea": MitigationVariant.QPRAC_PROACTIVE_EA,
    "qprac-ideal": MitigationVariant.QPRAC_IDEAL,
}


def _build_pair(kind, draw, num_rows, radius):
    """The flat bank of ``kind`` and its reference, on drawn settings."""
    if kind in _QPRAC_KINDS:
        variant = _QPRAC_KINDS[kind]
        params = PRACParams(
            n_bo=draw(st.integers(2, 8)),
            psq_size=draw(st.integers(1, 5)),
            blast_radius=radius,
            strict_psq_insertion=draw(st.booleans()),
            proactive_every_n_refs=draw(st.integers(1, 3)),
            n_pro_divisor=draw(st.integers(1, 4)),
        )
        # None = unbounded; small widths saturate within a program.
        bits = draw(st.sampled_from([None, 2, 3, 4]))
        flat = QPRACBank(
            params, num_rows, variant, counter_bits=bits,
            unbounded_counters=bits is None,
        )
        return flat, _ReferenceQPRACBank(params, num_rows, variant, bits)
    if kind.startswith("moat"):
        n_bo = draw(st.integers(2, 8))
        every = draw(st.integers(1, 3)) if kind == "moat+proactive" else None
        flat = MOATBank(n_bo, num_rows, blast_radius=radius,
                        proactive_every_n_refs=every)
        return flat, _ReferenceMOATBank(n_bo, num_rows, radius, every)
    queue_size = draw(st.integers(1, 3))
    if kind == "panopticon":
        t_bit = draw(st.integers(1, 2))
        flat = PanopticonBank(t_bit, queue_size, num_rows, radius)
        ref = _ReferenceFifoBank(1 << t_bit, True, queue_size, num_rows,
                                 radius)
        return flat, ref
    threshold = draw(st.integers(1, 4))
    flat = FullCompareBank(threshold, queue_size, num_rows, radius)
    return flat, _ReferenceFifoBank(threshold, False, queue_size, num_rows,
                                    radius)


def _bank_state(bank) -> dict:
    """Everything a hook can change, by name."""
    counters = bank.counters
    state = {
        "stats": bank.stats,
        "counts": counters.nonzero_rows(),
        "total_activations": counters.total_activations,
        "total_resets": counters.total_resets,
        "saturation_events": counters.saturation_events,
        "wants_alert": bank.wants_alert(),
    }
    psq = getattr(bank, "psq", None)
    if psq is not None:
        state.update(psq=psq.snapshot(), inserts=psq.inserts,
                     evictions=psq.evictions, hits=psq.hits,
                     rejected=psq.rejected)
    queue = getattr(bank, "queue", None)
    if queue is not None:
        state["queue"] = queue.snapshot()
    if isinstance(bank, (MOATBank, _ReferenceMOATBank)):
        state["tracked"] = bank.tracked
    return state


#: Cases every kind's generated programs must reach.
_COMMON_CASES = {"clipped at row 0", "clipped at the last row", "radius 0",
                 "radius 3", "mitigated"}
_PSQ_CASES = {"saturated victim", "psq evict", "psq reject", "strict",
              "non-strict"}
_REQUIRED_CASES = {
    "qprac-noop": _PSQ_CASES | {"NOOP below N_BO"},
    "qprac": _PSQ_CASES,
    "qprac+proactive": _PSQ_CASES | {"cadence skip"},
    "qprac+proactive-ea": _PSQ_CASES | {"cadence skip", "N_PRO gate"},
    "qprac-ideal": _PSQ_CASES | {"cadence skip"},
    "moat": set(),
    "moat+proactive": {"cadence skip"},
    "panopticon": {"aggressor kept"},
    "full-compare": set(),
}

#: One op per integer ``n``: ``n // 64`` picks ACT (weight 6), REF (2),
#: RFM non-alerting (1) or RFM alerting (1); ``n % 64`` the ACT's row.
_PROGRAM = st.lists(st.integers(0, 639), min_size=40, max_size=160)


def _gate_ahead(kind, ref, op, is_alerting_bank) -> str | None:
    """The skip the reference bank is about to take on this REF or RFM
    while it has a candidate to mitigate, if any."""
    if op == "ref" and "cadence skip" in _REQUIRED_CASES[kind]:
        every = (ref.params.proactive_every_n_refs if kind in _QPRAC_KINDS
                 else ref.proactive_every_n_refs)
        if (ref.refs_seen + 1) % every:
            return "cadence skip"
        if kind == "qprac+proactive-ea" and (
            0 < ref.psq.max_count() < ref.params.n_pro
        ):
            return "N_PRO gate"
    if (op == "rfm" and kind == "qprac-noop" and not is_alerting_bank
            and 0 < ref.psq.max_count() < ref.params.n_bo):
        return "NOOP below N_BO"
    return None


@pytest.mark.parametrize("kind", sorted(_REQUIRED_CASES))
def test_differential_flat_hooks_match_reference_bank(kind):
    """Generated ACT / REF / RFM programs drive the flat hooks and a
    reference bank built from ``PRACCounterBank``, the scan-per-call PSQ
    oracle and the original mitigation body; after every hook the return
    value, ``DefenseStats``, the counters and the queue state agree.
    Small banks put victims past both edges, small counter widths
    saturate, and the programs reach every listed case."""
    seen: set[str] = set()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(data=st.data(), program=_PROGRAM)
    def check(data, program):
        num_rows = data.draw(st.integers(1, 12))
        radius = data.draw(st.integers(0, 3))
        flat, ref = _build_pair(kind, data.draw, num_rows, radius)
        seen.add(f"radius {radius}")
        if kind in _QPRAC_KINDS:
            seen.add("strict" if ref.params.strict_psq_insertion
                     else "non-strict")
        for step, n in enumerate(program):
            code, pick = divmod(n, 64)
            if code < 6:
                row = pick % num_rows
                got, want = flat.on_activation(row), ref.on_activation(row)
                assert got == want, f"step {step}: act({row}) returned {got}"
                assert _bank_state(flat) == _bank_state(ref), (
                    f"step {step}: state diverged after act({row})"
                )
                continue
            op, alerting = ("ref", None) if code < 8 else ("rfm", code == 9)
            gate = _gate_ahead(kind, ref, op, alerting)
            if gate is not None:
                seen.add(gate)
            before = _bank_state(ref)
            if op == "ref":
                got, want = flat.on_ref(), ref.on_ref()
            else:
                got, want = flat.on_rfm(alerting), ref.on_rfm(alerting)
            assert got == want, f"step {step}: {op} returned {got}"
            after = _bank_state(ref)
            assert _bank_state(flat) == after, (
                f"step {step}: state diverged after {op}"
            )
            if not want:
                continue
            seen.add("mitigated")
            row = want[0]
            if row - radius < 0:
                seen.add("clipped at row 0")
            if row + radius >= num_rows:
                seen.add("clipped at the last row")
            if after["saturation_events"] > before["saturation_events"]:
                seen.add("saturated victim")
            if after.get("evictions", 0) > before.get("evictions", 0):
                seen.add("psq evict")
            if after.get("rejected", 0) > before.get("rejected", 0):
                seen.add("psq reject")
            if kind == "panopticon" and ref.counters.get(row) > 0:
                seen.add("aggressor kept")

    check()
    missing = (_COMMON_CASES | _REQUIRED_CASES[kind]) - seen
    assert not missing, f"programs never reached {sorted(missing)}"
