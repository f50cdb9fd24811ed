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
from typing import Callable

from repro.controller.request import Request
from repro.core.defense import BankDefense, MitigationReason
from repro.obs.telemetry import Telemetry
from repro.dram.address import AddressMapper
from repro.dram.bank import BankState
from repro.errors import ConfigError
from repro.params import RfmScope, SystemConfig
from repro.engine import EventQueue, _heappush

DefenseFactory = Callable[[int, SystemConfig], BankDefense]

_new_request = object.__new__


def rfm_scope_banks(scope: RfmScope, banks: list, alerting) -> list:
    """Banks one Alert's RFMs land on, per Section VI-E scope semantics.

    Shared policy of the simulation-engine tier: the event-driven
    controller and the batched epoch engine resolve Alert scope through
    this one function, over their own bank records (anything with a
    ``.bank`` field works — :class:`~repro.dram.bank.BankState` here,
    the epoch engine's bank rows there).
    """
    if scope is RfmScope.ALL_BANK:
        return banks
    if scope is RfmScope.SAME_BANK:
        return [b for b in banks if b.bank == alerting.bank]
    if scope is RfmScope.PER_BANK:
        return [alerting]
    raise ConfigError(f"unhandled RFM scope {scope}")


class RankState:
    """Rank-scoped protocol and blackout state (one ``__slots__`` record)."""

    __slots__ = (
        "index",
        "banks",
        "ref_offset",
        "blackouts",
        "acts_since_rfm",
        "alert_busy_until",
        "next_act_allowed",
        "alerts",
        "rfm_commands",
        "refs",
        "blocked_ns",
        "ref_free_start",
        "ref_free_end",
        "ref_handler",
    )

    def __init__(
        self,
        index: int,
        banks: list[BankState],
        ref_offset: float,
    ) -> None:
        self.index = index
        self.banks = banks
        self.ref_offset = ref_offset
        #: Dynamic blackout intervals (RFMab service), sorted by start.
        self.blackouts: list[tuple[float, float]] = []
        self.acts_since_rfm = 1 << 30
        self.alert_busy_until = 0.0
        #: Rank-level ACT-to-ACT gate (tRRD).
        self.next_act_allowed = 0.0
        self.alerts = 0
        self.rfm_commands = 0
        self.refs = 0
        self.blocked_ns = 0.0
        #: Cached REF-free interval [start, end): instants in it are
        #: provably outside this rank's periodic REF blackout, so
        #: ``_rank_avail`` can skip the modulo.  Empty until first use.
        self.ref_free_start = 0.0
        self.ref_free_end = 0.0
        #: Pre-bound periodic REF callback (set by the controller).
        self.ref_handler: Callable[[float], None] | None = None


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

        self.banks: list[BankState] = []
        self.ranks: list[RankState] = []
        rank_count = org.channels * org.ranks
        stagger = self.timing.t_refi / max(1, rank_count)
        flat = 0
        for channel in range(org.channels):
            for rank in range(org.ranks):
                rank_banks: list[BankState] = []
                for bg in range(org.bankgroups):
                    for bank in range(org.banks_per_group):
                        state = BankState(
                            index=flat,
                            channel=channel,
                            rank=rank,
                            bankgroup=bg,
                            bank=bank,
                            defense=defense_factory(flat, config),
                        )
                        state.consider_handler = partial(
                            self._consider_bank, state
                        )
                        self.banks.append(state)
                        rank_banks.append(state)
                        flat += 1
                rank_index = channel * org.ranks + rank
                rank_state = RankState(
                    index=rank_index,
                    banks=rank_banks,
                    ref_offset=stagger * rank_index,
                )
                rank_state.ref_handler = partial(self._ref_tick, rank_state)
                for state in rank_banks:
                    state.rank_state = rank_state
                # Allow the very first Alert without an ABO_Delay debt.
                self.ranks.append(rank_state)
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

    def defense_stats(self) -> dict[MitigationReason, int]:
        """Total mitigations by reason, summed over all banks."""
        totals = {reason: 0 for reason in MitigationReason}
        for bank in self.banks:
            for reason, count in bank.defense.stats.mitigations_by_reason.items():
                totals[reason] += count
        return totals

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
        if open_row == row and open_row is not None:
            cas = bank.cas_allowed
            if start > cas:
                cas = start
            if not (rank.ref_free_start <= cas < rank.ref_free_end) or rank.blackouts:
                cas = self._rank_avail(rank, cas)
            bank.row_hits += 1
            stats.row_hits += 1
            act_time = None
        else:
            if open_row is None:
                act_ready = bank.act_allowed
                if start > act_ready:
                    act_ready = start
                bank.row_misses += 1
            else:
                pre = bank.pre_allowed
                if start > pre:
                    pre = start
                if not (rank.ref_free_start <= pre < rank.ref_free_end) or rank.blackouts:
                    pre = self._rank_avail(rank, pre)
                act_ready = pre + t_rp
                if bank.act_allowed > act_ready:
                    act_ready = bank.act_allowed
                bank.row_conflicts += 1
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
            bank.acts += 1
            stats.acts += 1
            rank.acts_since_rfm += 1
            hook_log = self.hook_log
            if hook_log is not None:
                hook_log.act(bank.index, row)
            wants_alert = bank.defense.on_activation(row)
            cadence = bank.cadence_acts
            if cadence is not None:
                bank.cadence_act_counter += 1
                if bank.cadence_act_counter >= cadence:
                    bank.cadence_act_counter = 0
                    self._issue_cadence_rfm(bank, act_time)
            if wants_alert:
                self._maybe_alert(bank, rank, act_time)
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
    # Activation-side protocol: alerts, RFMs, cadence mitigations
    # (the per-ACT dispatch itself is inlined in _service)
    # ------------------------------------------------------------------
    def _issue_cadence_rfm(self, bank: BankState, act_time: float) -> None:
        """Controller-scheduled per-bank RFM (PrIDE / Mithril cadence)."""
        t = self.timing
        start = act_time + t.t_rc
        bank.blocked_until = max(bank.blocked_until, start) + t.t_rfm
        bank.act_allowed = max(bank.act_allowed, bank.blocked_until)
        bank.open_row = None
        bank.defense.on_rfm(True)
        self.stats.cadence_rfms += 1
        if self.telemetry is not None:
            self.telemetry.record_blackout(start, bank.blocked_until, "cadence")

    def _maybe_alert(
        self, bank: BankState, rank: RankState, act_time: float
    ) -> None:
        prac = self.cfg.prac
        assert prac.abo_delay is not None
        if act_time < rank.alert_busy_until:
            return
        if rank.acts_since_rfm < prac.abo_delay:
            return
        rank.alerts += 1
        self.stats.alerts += 1
        rank.acts_since_rfm = 0
        rfm_start = act_time + prac.abo_window_ns
        rfm_end = rfm_start + prac.n_mit * self.timing.t_rfm
        rank.alert_busy_until = rfm_end
        scope = self._rfm_scope_banks(rank, bank)
        for _ in range(prac.n_mit):
            for member in scope:
                member.defense.on_rfm(member is bank)
        rank.rfm_commands += prac.n_mit
        self.stats.rfm_commands += prac.n_mit
        if self.telemetry is not None:
            self.telemetry.record_blackout(rfm_start, rfm_end, "abo")
        if prac.rfm_scope is RfmScope.ALL_BANK:
            rank.blackouts.append((rfm_start, rfm_end))
            rank.blocked_ns += rfm_end - rfm_start
            for member in scope:
                # RFM leaves banks precharged.
                member.open_row = None
        else:
            for member in scope:
                member.blocked_until = max(member.blocked_until, rfm_end)
                member.open_row = None
                member.act_allowed = max(member.act_allowed, rfm_end)
            rank.blocked_ns += (rfm_end - rfm_start) * len(scope) / len(rank.banks)

    def _rfm_scope_banks(
        self, rank: RankState, alerting: BankState
    ) -> list[BankState]:
        return rfm_scope_banks(self.cfg.prac.rfm_scope, rank.banks, alerting)

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def _ref_tick(self, rank: RankState, now: float) -> None:
        """Periodic per-rank REF: defense hooks plus self-rescheduling."""
        rank.refs += 1
        self.stats.refs += 1
        for bank in rank.banks:
            bank.defense.on_ref()
        if self.hook_log is not None:
            self.hook_log.ref(rank.index)
        if self.telemetry is not None:
            # Sample PSQ occupancy *after* the defenses' on_ref drain,
            # matching the epoch engine's observation point.
            self.telemetry.record_ref(
                now, now + self._t_rfc,
                (bank.defense for bank in rank.banks),
            )
        self.events.schedule_future(now + self.timing.t_refi, rank.ref_handler)
