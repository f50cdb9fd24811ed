"""DDR5 memory system: controller scheduling + DRAM-side defense hooks.

This module is the performance substrate of the reproduction.  It is an
event-driven, nanosecond-granularity model of the paper's Table II memory
system:

* per-bank FR-FCFS scheduling with open-row state and the DDR5 timing
  constraints (tRCD/tCL/tRAS/tRP/tRTP/tWR/tRC) including the PRAC-stretched
  precharge,
* a shared data bus per channel (tBURST occupancy),
* all-bank refresh per rank every tREFI (tRFC blackout) with defense
  ``on_ref`` hooks (proactive mitigation happens in the REF shadow),
* the Alert Back-Off protocol: when a bank's defense wants an Alert the
  controller finishes the non-blocking 180 ns window, then issues N_mit
  RFMs whose scope (all-bank / same-bank / per-bank, Section VI-E) decides
  which banks stall and which banks get opportunistic mitigations,
* cadence RFMs for controller-driven mitigations (PrIDE / Mithril).

Both simulation engines run this one DRAM protocol: the records
:func:`build_ranks` builds, and the Alert, cadence-RFM and REF-tick
routines :func:`raise_alert`, :func:`cadence_rfm` and :func:`ref_tick`,
which count straight into :class:`MemStats`.

The model does not simulate individual command-bus slots; command bandwidth
is never the bottleneck for the experiments reproduced here (the paper's
overheads are entirely RFM/REF blackout effects), and the data bus *is*
modelled because multi-core runs saturate it.

Hot-path layout: every event handler the controller schedules is a
pre-bound per-bank / per-rank callable built once at construction
(``functools.partial`` over a method), never a closure allocated per
event; addresses are bit-sliced inline in :meth:`MemorySystem.enqueue`
(decoded exactly once per access — the LLC filters re-touches, so a memo
would not pay for itself there); the whole service path runs as one
function (:meth:`MemorySystem._consider_bank`); and the REF-window test
is served from a per-rank cached REF-free interval so the steady state
pays two float compares instead of a modulo per timing query.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.controller.request import Request
from repro.core.defense import BankDefense
from repro.obs.telemetry import Telemetry
from repro.dram.address import AddressMapper
from repro.dram.bank import BankState
from repro.errors import ConfigError
from repro.params import DDR5Timing, PRACParams, RfmScope, SystemConfig
from repro.engine import EventQueue, _heappush

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.engines.memo import HookLog

DefenseFactory = Callable[[int, SystemConfig], BankDefense]

_new_request = object.__new__


def rfm_scope_banks(scope: RfmScope, banks: list[BankState],
                    alerting: BankState) -> list[BankState]:
    """Banks one Alert's RFMs land on, per Section VI-E scope semantics."""
    if scope is RfmScope.ALL_BANK:
        return banks
    if scope is RfmScope.SAME_BANK:
        return [b for b in banks if b.bank == alerting.bank]
    if scope is RfmScope.PER_BANK:
        return [alerting]
    raise ConfigError(f"unhandled RFM scope {scope}")


def run_label(config: SystemConfig, defense_factory: DefenseFactory,
              variant_name: str | None = None) -> str:
    """A run's result label: ``variant_name`` when given, else the label
    of the spec a ``DefenseSpec.factory()`` carries, else (a bare
    callable) ``config.variant``'s."""
    if variant_name:
        return variant_name
    spec = getattr(defense_factory, "spec", None)
    return spec.label if spec is not None else config.variant.value


class RankState:
    """Rank-scoped protocol and blackout state (one ``__slots__`` record).

    Both engines share the Alert Back-Off state, the RFMab blackouts and
    the cached REF-free interval; each times tRRD and REF its own way.
    """

    __slots__ = (
        "index",
        "banks",
        "on_refs",
        "ref_offset",
        "blackouts",
        "acts_since_rfm",
        "alert_busy_until",
        "ref_free_start",
        "ref_free_end",
        "next_act_allowed",
        "ref_handler",
        "next_ref",
        "act_acc",
        "act_wait",
    )

    def __init__(
        self,
        index: int,
        banks: list[BankState],
        ref_offset: float,
    ) -> None:
        self.index = index
        self.banks = banks
        for bank in banks:
            bank.rank_state = self
        #: Pre-bound per-bank ``on_ref`` hooks (one REF tick = one pass).
        self.on_refs = tuple(bank.defense.on_ref for bank in banks)
        self.ref_offset = ref_offset
        #: Dynamic blackout intervals (RFMab service), sorted by start.
        self.blackouts: list[tuple[float, float]] = []
        # Allow the very first Alert without an ABO_Delay debt.
        self.acts_since_rfm = 1 << 30
        self.alert_busy_until = 0.0
        #: Cached REF-free interval [start, end): instants in it are
        #: provably outside this rank's periodic REF blackout, so the
        #: engines' ``_rank_avail`` can skip the modulo.  Empty until
        #: first use.
        self.ref_free_start = 0.0
        self.ref_free_end = 0.0
        #: Event controller: rank-level ACT-to-ACT gate (tRRD) and the
        #: pre-bound periodic REF callback.
        self.next_act_allowed = 0.0
        self.ref_handler: Callable[[float], None] | None = None
        #: Batched replay: the next REF tick, and the ACTs issued in the
        #: current tREFI window with their statistical tRRD wait.
        self.next_ref = ref_offset
        self.act_acc = 0
        self.act_wait = 0.0


def build_ranks(config: SystemConfig, defense_for: DefenseFactory
                ) -> tuple[list[BankState], list[RankState]]:
    """The bank and rank records of one run: every bank in flat order,
    holding ``defense_for(flat, config)``, and every rank, its REF
    offset staggered by ``tREFI / ranks``."""
    org = config.org
    banks: list[BankState] = []
    ranks: list[RankState] = []
    stagger = config.timing.t_refi / max(1, org.channels * org.ranks)
    for channel in range(org.channels):
        for rank in range(org.ranks):
            lo = len(banks)
            for bankgroup in range(org.bankgroups):
                for bank in range(org.banks_per_group):
                    flat = len(banks)
                    banks.append(BankState(
                        flat, channel, rank, bankgroup, bank,
                        defense_for(flat, config),
                    ))
            ranks.append(
                RankState(len(ranks), banks[lo:], stagger * len(ranks))
            )
    return banks, ranks


class MemStats:
    """Aggregate statistics of one simulation run."""

    __slots__ = (
        "reads",
        "writes",
        "acts",
        "row_hits",
        "alerts",
        "refs",
        "rfm_commands",
        "cadence_rfms",
        "total_read_latency_ns",
    )

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.acts = 0
        self.row_hits = 0
        self.alerts = 0
        self.refs = 0
        self.rfm_commands = 0
        self.cadence_rfms = 0
        self.total_read_latency_ns = 0.0

    @property
    def avg_read_latency_ns(self) -> float:
        return self.total_read_latency_ns / self.reads if self.reads else 0.0


# ----------------------------------------------------------------------
# The DRAM protocol, as both engines run it
# ----------------------------------------------------------------------
def raise_alert(bank: BankState, act_time: float, prac: PRACParams,
                timing: DDR5Timing, stats: MemStats,
                telemetry: Telemetry | None) -> None:
    """The Alert Back-Off protocol at an ACT whose defense asks for one.

    No Alert while an earlier one's RFMs are due or fewer than ABO_Delay
    ACTs followed them.  Otherwise N_mit RFMs start after the ABO window,
    each reaching every bank of the scope (:func:`rfm_scope_banks`), and
    leave them precharged: an all-bank scope blacks the rank out, a
    narrower one blocks only its own banks.
    """
    rank = bank.rank_state
    if act_time < rank.alert_busy_until:
        return
    if rank.acts_since_rfm < prac.abo_delay:
        return
    stats.alerts += 1
    rank.acts_since_rfm = 0
    rfm_start = act_time + prac.abo_window_ns
    rfm_end = rfm_start + prac.n_mit * timing.t_rfm
    rank.alert_busy_until = rfm_end
    scope = rfm_scope_banks(prac.rfm_scope, rank.banks, bank)
    for _ in range(prac.n_mit):
        for member in scope:
            member.on_rfm(member is bank)
    stats.rfm_commands += prac.n_mit
    if telemetry is not None:
        telemetry.record_blackout(rfm_start, rfm_end, "abo")
    all_bank = prac.rfm_scope is RfmScope.ALL_BANK
    if all_bank:
        rank.blackouts.append((rfm_start, rfm_end))
    for member in scope:
        member.open_row = -1
        if not all_bank and rfm_end > member.blocked_until:
            member.blocked_until = rfm_end


def cadence_rfm(bank: BankState, act_time: float, timing: DDR5Timing,
                stats: MemStats, telemetry: Telemetry | None) -> None:
    """A controller-scheduled RFM to one bank (PrIDE / Mithril cadence):
    it starts tRC after the ACT that completed the cadence, or when the
    bank's current block ends, blocks the bank for tRFM and leaves it
    precharged."""
    start = act_time + timing.t_rc
    blocked = bank.blocked_until
    bank.blocked_until = (blocked if blocked > start else start) + timing.t_rfm
    bank.open_row = -1
    bank.on_rfm(True)
    stats.cadence_rfms += 1
    if telemetry is not None:
        telemetry.record_blackout(start, bank.blocked_until, "cadence")


def ref_tick(rank: RankState, now: float, t_rfc: float,
             hook_log: HookLog | None, telemetry: Telemetry | None) -> None:
    """One REF of ``rank`` at ``now``: every bank's ``on_ref``, then the
    tick lands in the hook log and the telemetry when they are on."""
    for hook in rank.on_refs:
        hook()
    if hook_log is not None:
        hook_log.ref(rank.index)
    if telemetry is not None:
        # PSQ occupancy is sampled after the defenses' on_ref drain.
        telemetry.record_ref(
            now, now + t_rfc, (bank.defense for bank in rank.banks)
        )


class MemorySystem:
    """Event-driven DDR5 memory system with pluggable per-bank defenses."""

    def __init__(
        self,
        config: SystemConfig,
        events: EventQueue,
        defense_factory: DefenseFactory,
        enable_refresh: bool = True,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.cfg = config
        self.events = events
        self.timing = config.timing
        self.mapper = AddressMapper(config.org)
        self.enable_refresh = enable_refresh
        self.telemetry = telemetry
        #: The run's :class:`~repro.sim.engines.memo.HookLog` when it
        #: records one for the Alert-free timing memo, else ``None``.
        self.hook_log = None
        self.stats = MemStats()
        org = config.org
        # REF-window constants, read by _rank_avail on every timing
        # query (the remaining per-request constants live in the packed
        # _decode_hot / _service_hot tuples below).
        t = self.timing
        self._t_refi = t.t_refi
        self._t_rfc = t.t_rfc

        self.banks, self.ranks = build_ranks(config, defense_factory)
        for bank in self.banks:
            bank.consider_handler = partial(self._consider_bank, bank)
        for rank_state in self.ranks:
            rank_state.ref_handler = partial(self._ref_tick, rank_state)
        self.bus_free = [0.0] * org.channels
        self._schedule_future = self.events.schedule_future
        # Decode constants for the inline decode in enqueue(), packed so
        # the per-access prologue is one attribute load + tuple unpack.
        m = self.mapper
        self._decode_hot = (
            m._offset_bits,
            m._column_bits,
            m._bg_bits,
            m._bank_bits,
            m._rank_bits,
            m._channel_bits,
            m._column_mask,
            m._bg_mask,
            m._bank_mask,
            m._rank_mask,
            m._channel_mask,
            m._row_mask,
            org.banks_per_rank,
            org.banks_per_group,
            org.ranks,
            self.banks,
        )
        # Service-path constants for _consider_bank, same trick.  The
        # telemetry slot is a bound method or None — telemetry off costs
        # the hot path one tuple slot and one None test per request.
        self._service_hot = (
            t.t_rp,
            t.t_rc,
            t.t_ras,
            t.t_rcd,
            t.t_rrd,
            t.t_cl,
            t.t_burst,
            t.t_wr,
            t.t_rtp,
            self.bus_free,
            self.stats,
            self.events,
            telemetry.record_request if telemetry is not None else None,
        )
        if enable_refresh:
            for rank_state in self.ranks:
                self.events.schedule(
                    rank_state.ref_offset, rank_state.ref_handler
                )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def enqueue(
        self,
        phys_addr: int,
        is_write: bool,
        now: float,
        callback: Callable[[float], None] | None = None,
        core_id: int | None = None,
    ) -> Request:
        """Queue one cache-line access; ``callback(done_ns)`` fires on completion."""
        # Inline decode, bit for bit AddressMapper.decode: the LLC
        # filters out re-touches, so addresses arriving here are nearly
        # all distinct — straight-line bit slicing beats any memo.
        (
            offset_bits, column_bits, bg_bits, bank_bits, rank_bits,
            channel_bits, column_mask, bg_mask, bank_mask, rank_mask,
            channel_mask, row_mask, banks_per_rank, banks_per_group,
            ranks_per_channel, banks,
        ) = self._decode_hot
        if phys_addr < 0:
            raise ConfigError(f"negative physical address {phys_addr:#x}")
        a = phys_addr >> offset_bits
        column = a & column_mask
        a >>= column_bits
        bankgroup = a & bg_mask
        a >>= bg_bits
        bank_i = a & bank_mask
        a >>= bank_bits
        rank = a & rank_mask
        a >>= rank_bits
        channel = a & channel_mask
        row = (a >> channel_bits) & row_mask
        flat = (
            (channel * ranks_per_channel + rank) * banks_per_rank
            + bankgroup * banks_per_group
            + bank_i
        )
        # Field-by-field construction (no __init__ frame): one Request
        # per DRAM access makes even the constructor call measurable.
        req = _new_request(Request)
        req.phys_addr = phys_addr
        req.is_write = is_write
        req.arrive = now
        req.channel = channel
        req.rank = rank
        req.bankgroup = bankgroup
        req.bank = bank_i
        req.row = row
        req.column = column
        req.callback = callback
        req.core_id = core_id
        req.complete_time = None
        bank = banks[flat]
        bank.pending.append(req)
        if not bank.consider_scheduled:
            bank.consider_scheduled = True
            # events.schedule_future, inlined (once per DRAM access).
            events = self.events
            seq = events._seq
            events._seq = seq + 1
            t = now if now >= events._now else events._now
            _heappush(events._heap, (t, seq, bank.consider_handler))
        return req

    @property
    def queued_requests(self) -> int:
        return sum(len(bank.pending) for bank in self.banks)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _consider_bank(self, bank: BankState, now: float) -> None:
        """Per-bank wake-up: commit the next request once the bank is free.

        The whole service path — FR-FCFS pick, command scheduling, DRAM
        timing updates, activation-side protocol — is one function: it
        runs once per DRAM access, and the call fan-out this replaces
        was measurable.  Timing queries check the rank's cached REF-free
        interval inline and only fall back to :meth:`_rank_avail` when
        the instant is not provably clear of REF windows and blackouts.
        """
        bank.consider_scheduled = False
        if not bank.pending:
            return
        # Never commit a request while the bank is still occupied or
        # blacked out: scheduling it early would reserve rank-level
        # resources (the tRRD gate) at far-future instants and starve
        # other banks' earlier slots.
        floor = bank.ready_at
        if bank.blocked_until > floor:
            floor = bank.blocked_until
        if floor > now + 1e-9:
            bank.consider_scheduled = True
            self._schedule_future(floor, bank.consider_handler)
            return
        pending = bank.pending
        if len(pending) == 1:
            req = pending.popleft()
        else:
            req = bank.pick_request()

        (
            t_rp, t_rc, t_ras, t_rcd, t_rrd, t_cl, t_burst, t_wr, t_rtp,
            bus_free, stats, events, tm_record,
        ) = self._service_hot
        rank = bank.rank_state
        start = now
        if bank.ready_at > start:
            start = bank.ready_at
        if bank.blocked_until > start:
            start = bank.blocked_until
        row = req.row
        open_row = bank.open_row
        if open_row == row:
            cas = bank.cas_allowed
            if start > cas:
                cas = start
            if not (rank.ref_free_start <= cas < rank.ref_free_end) or rank.blackouts:
                cas = self._rank_avail(rank, cas)
            stats.row_hits += 1
            act_time = None
        else:
            if open_row < 0:
                act_ready = bank.act_allowed
                if start > act_ready:
                    act_ready = start
            else:
                pre = bank.pre_allowed
                if start > pre:
                    pre = start
                if not (rank.ref_free_start <= pre < rank.ref_free_end) or rank.blackouts:
                    pre = self._rank_avail(rank, pre)
                act_ready = pre + t_rp
                if bank.act_allowed > act_ready:
                    act_ready = bank.act_allowed
            if rank.next_act_allowed > act_ready:
                act_ready = rank.next_act_allowed
            act_time = act_ready
            if not (rank.ref_free_start <= act_time < rank.ref_free_end) or rank.blackouts:
                act_time = self._rank_avail(rank, act_time)
            # Advance the rank ACT-to-ACT gate (tRRD).  Requests are only
            # committed once their bank is free (see the floor check
            # above), so act_time is always near the true rank frontier.
            rank.next_act_allowed = act_time + t_rrd
            bank.open_row = row
            bank.act_allowed = act_time + t_rc
            bank.pre_allowed = act_time + t_ras
            cas = act_time + t_rcd
            bank.cas_allowed = cas
        data_start = cas + t_cl
        channel = req.channel
        if bus_free[channel] > data_start:
            data_start = bus_free[channel]
        done = data_start + t_burst
        bus_free[channel] = done
        if req.is_write:
            pre_floor = done + t_wr
            if pre_floor > bank.pre_allowed:
                bank.pre_allowed = pre_floor
            stats.writes += 1
        else:
            pre_floor = cas + t_rtp
            if pre_floor > bank.pre_allowed:
                bank.pre_allowed = pre_floor
            stats.reads += 1
            stats.total_read_latency_ns += done - req.arrive
        bank.ready_at = data_start
        if act_time is not None:
            # Activation-side protocol, inline (once per ACT): counter
            # and PSQ updates via the defense, cadence RFMs, Alerts.
            stats.acts += 1
            rank.acts_since_rfm += 1
            hook_log = self.hook_log
            if hook_log is not None:
                hook_log.act(bank.index, row)
            wants_alert = bank.on_activation(row)
            cadence = bank.cadence_acts
            if cadence is not None:
                bank.cadence_act_counter += 1
                if bank.cadence_act_counter >= cadence:
                    bank.cadence_act_counter = 0
                    cadence_rfm(
                        bank, act_time, self.timing, stats, self.telemetry
                    )
            if wants_alert:
                raise_alert(
                    bank, act_time, self.cfg.prac, self.timing, stats,
                    self.telemetry,
                )
        req.complete_time = done
        if tm_record is not None:
            tm_record(req.arrive, done, req.is_write, req.core_id)
        callback = req.callback
        if callback is not None:
            # events.schedule_future, inlined; done > now always.
            seq = events._seq
            events._seq = seq + 1
            _heappush(events._heap, (done, seq, callback))

        if bank.pending:
            # consider_scheduled is necessarily False here (cleared on
            # entry; nothing within the service path re-arms this bank).
            floor = bank.ready_at
            if bank.blocked_until > floor:
                floor = bank.blocked_until
            bank.consider_scheduled = True
            seq = events._seq
            events._seq = seq + 1
            if floor < now:
                floor = now
            _heappush(events._heap, (floor, seq, bank.consider_handler))

    def _rank_avail(self, rank: RankState, t: float) -> float:
        """Earliest instant >= t outside REF windows and rank blackouts."""
        if not rank.blackouts:
            # Fast path: no dynamic blackouts, so only the periodic REF
            # window can move t — and at most once, because the shifted
            # instant is exactly the window's end.  The per-rank cached
            # REF-free interval short-circuits the modulo entirely for
            # queries that land where the previous one did.
            if not self.enable_refresh:
                return t
            if rank.ref_free_start <= t < rank.ref_free_end:
                return t
            t_refi = self._t_refi
            t_rfc = self._t_rfc
            pos = (t - rank.ref_offset) % t_refi
            window_start = t - pos
            if pos < t_rfc:
                t = window_start + t_rfc
            rank.ref_free_start = window_start + t_rfc
            rank.ref_free_end = window_start + t_refi
            return t
        return self._rank_avail_slow(rank, t)

    def _rank_avail_slow(self, rank: RankState, t: float) -> float:
        """General case: interleaved REF windows and RFMab blackouts."""
        timing = self.timing
        while True:
            moved = False
            if self.enable_refresh:
                pos = (t - rank.ref_offset) % timing.t_refi
                if pos < timing.t_rfc:
                    t += timing.t_rfc - pos
                    moved = True
            blackouts = rank.blackouts
            if blackouts:
                keep_from = 0
                for i, (b_start, b_end) in enumerate(blackouts):
                    if b_end <= t:
                        keep_from = i + 1
                        continue
                    if b_start <= t < b_end:
                        t = b_end
                        moved = True
                    elif b_start > t:
                        break
                if keep_from:
                    del blackouts[:keep_from]
            if not moved:
                return t

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def _ref_tick(self, rank: RankState, now: float) -> None:
        """Periodic per-rank REF: the shared tick, then self-rescheduling."""
        self.stats.refs += 1
        ref_tick(rank, now, self._t_rfc, self.hook_log, self.telemetry)
        self._schedule_future(now + self._t_refi, rank.ref_handler)
