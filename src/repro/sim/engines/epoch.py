"""The ``epoch`` engine: batched tREFI-window simulation.

QPRAC's structure is naturally batchable per refresh epoch: PSQ
insertions ride on ACTs, proactive mitigations ride on REFs, and the
Alert Back-Off protocol is rank-scoped bookkeeping — none of it needs a
nanosecond event loop to stay faithful.  This engine exploits that: the
whole multi-core access stream is consumed as vectorized trace columns,
merged once into global front-end order, filtered through the shared
LLC, and then replayed against flat array-backed bank/rank/bus state one
tREFI window per batching round — no event queue, no callbacks, no
per-event dispatch.  The *same defense objects* the event engine builds
are driven through the same three :class:`~repro.core.defense.BankDefense`
hooks, bound once per bank, so every registered defense (QPRAC variants,
MOAT, Panopticon, PrIDE, Mithril, UPRAC, plugins) runs unmodified.

What is kept exact
    Defense state machines (per-ACT counter/PSQ updates, per-REF
    proactive mitigations, per-RFM servicing), the Alert Back-Off
    protocol (ABO window, ABO_Delay debt, N_mit RFMs, scope semantics
    via the shared :func:`~repro.controller.memctrl.rfm_scope_banks`),
    REF blackout windows (analytic, same cached-interval trick as the
    controller), cadence RFMs, and DDR5 first-order service timing
    (row hit/miss/conflict paths, tRRD, channel bus occupancy).

What is approximated
    Event interleaving.  Requests are serviced in unstalled front-end
    order rather than exact issue order, the per-core stall model is a
    delay accumulator over MSHR/ROB/write-buffer rings instead of an
    event-driven ROB, and second-order bank constraints (tRAS/tWR/tRTP
    precharge floors, FR-FCFS reordering) are dropped.  Aggregates
    (slowdown %, alerts/tREFI) track the event engine within the
    tolerance asserted by ``tests/test_engines.py``; individual event
    timings do not.

What is shared
    Stream preparation (traces, merge, LLC filter) depends only on the
    workload, trace length, seed and machine geometry, so it is memoized
    per process and shared by every defense.  So are the stall columns:
    which MSHR, ROB and write-buffer entry binds each request is stream
    data too, computed once per stream, and a run only reads the
    completion times those entries point at.  Request *timing* is shared
    too, for runs that cannot move it, through the Alert-free timing
    memo both engines use (:mod:`repro.sim.engines.memo`): a replay
    records its hook log, and a later run on the stream that raises no
    Alert is served from it, byte-identical to a full replay.

Determinism: everything is a fixed-order loop over deterministic
arrays — two runs are byte-identical, pinned by the epoch golden
digests next to the event engine's.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.controller.memctrl import DefenseFactory, MemStats, rfm_scope_banks
from repro.core.defense import BankDefense
from repro.obs.telemetry import Telemetry
from repro.cpu.core import WRITE_BUFFER_DEPTH
from repro.cpu.system import SystemResult
from repro.dram.address import AddressMapper
from repro.params import RfmScope, SystemConfig
from repro.sim.engines import memo
from repro.sim.engines.base import SimEngine, register_engine
from repro.workloads.synthetic import WorkloadSpec, generate_trace


class _EpochBank:
    """Array-row of per-bank state (one record per DRAM bank)."""

    __slots__ = (
        "index", "bank", "channel", "rank", "defense", "on_activation",
        "on_rfm", "cadence_acts",
        "open_row", "busy", "blocked", "act_allowed", "pre_allowed",
        "cas_allowed", "cadence_counter",
    )

    def __init__(self, index, bank, channel, defense: BankDefense):
        self.index = index
        #: Position within the bank group (SAME_BANK scope key).
        self.bank = bank
        self.channel = channel
        self.defense = defense
        #: The defense's hooks, bound once (no attribute lookup per
        #: call), and its cadence constant, read once as the controller's
        #: :class:`~repro.dram.bank.BankState` does.
        self.on_activation = defense.on_activation
        self.on_rfm = defense.on_rfm
        self.cadence_acts = defense.rfm_cadence_acts
        self.open_row = -1
        self.busy = 0.0
        self.blocked = 0.0
        #: DDR5 per-bank floors, maintained exactly like BankState's
        #: (tRC ACT-to-ACT, tRAS/tWR/tRTP precharge, tRCD CAS).
        self.act_allowed = 0.0
        self.pre_allowed = 0.0
        self.cas_allowed = 0.0
        self.cadence_counter = 0
        self.rank: _EpochRank | None = None


class _EpochRank:
    """Rank-scoped protocol state (mirrors the controller's RankState)."""

    __slots__ = (
        "index", "banks", "on_refs", "ref_offset", "next_ref",
        "alert_busy_until", "acts_since_rfm", "blackouts",
        "act_acc", "act_wait", "alerts", "rfm_commands",
        "ref_free_start", "ref_free_end",
    )

    def __init__(self, index, banks, ref_offset):
        self.index = index
        self.banks = banks
        #: Pre-bound per-bank ``on_ref`` hooks (one REF tick = one pass).
        self.on_refs = tuple(b.defense.on_ref for b in banks)
        self.ref_offset = ref_offset
        self.next_ref = ref_offset
        self.alert_busy_until = 0.0
        # Allow the very first Alert without an ABO_Delay debt.
        self.acts_since_rfm = 1 << 30
        self.blackouts: list[tuple[float, float]] = []
        #: ACTs issued in the current tREFI window and the resulting
        #: statistical tRRD queueing wait (see _replay's window roll).
        self.act_acc = 0
        self.act_wait = 0.0
        self.alerts = 0
        self.rfm_commands = 0
        self.ref_free_start = 0.0
        self.ref_free_end = 0.0


class _EpochCore:
    """One core's request columns plus its stall-model state.

    The stall model is a delay accumulator (the front end only ever
    falls further behind its unstalled schedule) over three in-flight
    rings: the MSHR ring (a read waits for the completion of the read
    ``max_outstanding_misses`` before it), the ROB window (a read waits
    for loads more than ``rob_entries`` instructions older to retire —
    the prefix-max of their completions, since retirement is in-order)
    and the posted-write ring (``WRITE_BUFFER_DEPTH`` deep).  *Which*
    entry of each ring binds a request depends only on the stream, so
    it comes precomputed (:class:`_StallColumns`); the run fills in only
    the completion times the entries point at.
    """

    __slots__ = (
        "cid", "reqs", "req",
        "idx", "n", "base", "delay", "front_total", "total_instructions",
        "rob_read", "rob_hop", "hits", "stall_front", "ring", "ring_hop",
        "read_pmax", "write_done", "last_done", "finish",
    )

    def __init__(self, reqs, stall, front_total, total_instructions,
                 cid=0):
        #: Core index, carried only for telemetry sample attribution.
        self.cid = cid
        #: Request tuples ``(front, bank, row, chan, is_write,
        #: is_demand)`` — one unpack per request in the replay loop
        #: instead of six indexed column loads.
        self.reqs = reqs
        #: The tuple at ``idx`` (staged by the replay loop's advance).
        self.req = reqs[0] if reqs else None
        (self.rob_read, self.rob_hop, self.hits, self.stall_front,
         self.ring, self.ring_hop) = stall
        self.idx = 0
        self.n = len(reqs)
        #: Issue time of the next request (delay + ring floors applied);
        #: the replay loop's merge key.  The first request has no floors
        #: (all rings empty), so its issue time is its front-end clock.
        self.base = reqs[0][0] if reqs else 0.0
        self.delay = 0.0
        self.front_total = front_total
        self.total_instructions = total_instructions
        #: Per DRAM read: prefix-max completion time.
        self.read_pmax: list[float] = []
        #: Per demand write: completion time.
        self.write_done: list[float] = []
        self.last_done = 0.0
        self.finish = 0.0


@register_engine(
    "epoch",
    summary="batched tREFI-epoch simulator (exact defense state machines, "
    "approximate timing, several times faster than event)",
)
class EpochEngine(SimEngine):
    """Batched engine: whole tREFI windows per step, array-backed state."""

    work_unit_name = "accesses"

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def simulate(
        self,
        workload: WorkloadSpec,
        config: SystemConfig,
        defense_factory: DefenseFactory,
        n_entries: int,
        seed: int = 0,
        variant_name: str | None = None,
        telemetry: Telemetry | None = None,
    ) -> SystemResult:
        stream = _prepare_stream(
            workload, n_entries, seed, config.org, config.cpu
        )
        self.work_units = stream.llc_total
        run = memo.lookup(self, workload, n_entries, seed, config,
                          defense_factory, telemetry, variant_name)
        if run.served is not None:
            return run.served
        banks, ranks = self._build_memory(config, run.defenses)
        outputs = self._run(stream, banks, ranks, config, telemetry, run.log)
        result = SystemResult.from_stats(
            workload=workload.name,
            variant=variant_name or config.variant.value,
            mitigations=memo.defense_stats(run.defenses),
            **outputs,
        )
        memo.remember(run, result)
        if telemetry is not None:
            result.latency = telemetry.summary_dict()
        return result

    def _run(self, stream, banks, ranks, config, tm, log) -> dict:
        """One full replay of ``stream``, recording into ``log`` when one
        is given: its timing outputs, as ``SystemResult.from_stats``
        keywords."""
        stats = MemStats()
        cores = [
            _EpochCore(
                reqs=stream.reqs[c],
                stall=stream.stall[c],
                front_total=stream.front_total[c],
                total_instructions=stream.total_instructions[c],
                cid=c,
            )
            for c in range(len(stream.reqs))
        ]
        self._replay(cores, banks, ranks, config, stats, tm, log)

        timing = config.timing
        t_refi = timing.t_refi
        for core in cores:
            core.finish = max(core.front_total + core.delay, core.last_done)
        sim_time = max(core.finish for core in cores)
        # Tail REFs: the event loop keeps firing per-rank REF ticks (and
        # with them proactive mitigations) until the last core retires.
        for rank in ranks:
            _fire_refs(rank, sim_time, False, timing, tm, log)
        # The refs statistic is analytic — ticks at or before sim_time —
        # so batch-boundary catch-up can't over-count the final window.
        stats.refs = sum(
            int((sim_time - rank.ref_offset) // t_refi) + 1
            for rank in ranks if sim_time >= rank.ref_offset
        )
        stats.alerts = sum(rank.alerts for rank in ranks)
        stats.rfm_commands = sum(rank.rfm_commands for rank in ranks)

        freq = config.cpu.freq_ghz
        llc_total = stream.llc_total
        return dict(
            sim_time_ns=sim_time,
            core_ipcs=[
                (core.total_instructions / (core.finish * freq))
                if core.finish > 0 else 0.0
                for core in cores
            ],
            instructions=sum(c.total_instructions for c in cores),
            stats=stats,
            llc_hit_rate=stream.llc_hits / llc_total if llc_total else 0.0,
        )

    # ------------------------------------------------------------------
    # Setup: banks, ranks, defenses
    # ------------------------------------------------------------------
    def _build_memory(self, config, defenses):
        """Bank and rank records over ``defenses`` (flat bank order)."""
        org = config.org
        banks: list[_EpochBank] = []
        ranks: list[_EpochRank] = []
        rank_count = org.channels * org.ranks
        stagger = config.timing.t_refi / max(1, rank_count)
        flat = 0
        for channel in range(org.channels):
            for rank in range(org.ranks):
                rank_banks: list[_EpochBank] = []
                for _bg in range(org.bankgroups):
                    for bank in range(org.banks_per_group):
                        record = _EpochBank(flat, bank, channel, defenses[flat])
                        banks.append(record)
                        rank_banks.append(record)
                        flat += 1
                rank_index = channel * org.ranks + rank
                rank_state = _EpochRank(
                    rank_index, rank_banks, stagger * rank_index
                )
                for record in rank_banks:
                    record.rank = rank_state
                ranks.append(rank_state)
        return banks, ranks

    # ------------------------------------------------------------------
    # The replay loop (hot): issue-ordered merge, one tREFI per batch
    # ------------------------------------------------------------------
    def _replay(self, cores, banks, ranks, config, stats, tm=None,
                log=None):
        timing = config.timing
        prac = config.prac
        t_rp = timing.t_rp
        t_rcd = timing.t_rcd
        t_cl = timing.t_cl
        t_burst = timing.t_burst
        t_rrd = timing.t_rrd
        t_rc = timing.t_rc
        t_ras = timing.t_ras
        t_wr = timing.t_wr
        t_rtp = timing.t_rtp
        t_refi = timing.t_refi
        t_rfc = timing.t_rfc
        llc_latency = config.cpu.llc_latency_ns
        # Shared short-occupancy resources (channel bus, rank tRRD gate)
        # are modeled as M/D/1-style queueing waits from the previous
        # window's utilization, not as hard reservation frontiers: the
        # replay processes requests in issue order, and a hard frontier
        # would let one congested bank's far-future transfer block every
        # other bank's earlier idle slots (head-of-line poison the
        # event engine, which commits in service order, never sees).
        n_channels = config.org.channels
        bus_acc = [0.0] * n_channels
        bus_wait = [0.0] * n_channels
        rank_avail = self._rank_avail
        # Telemetry is observation-only: one None test per request when
        # off, mirroring the controller's _service_hot slot.
        tm_record = tm.record_request if tm is not None else None
        # The memo's hook log (HookLog.act, inlined: two list appends
        # per ACT): one None test per ACT when off.
        if log is not None:
            log_bank, log_row = log.targets.append, log.args.append
        else:
            log_bank = log_row = None

        # The merge frontier: every live core's next issue time.  Four
        # cores, so a linear argmin beats a heap; requests are processed
        # in true non-decreasing issue order (each step only pushes the
        # chosen core's own next base later), which is what keeps the
        # shared bank/bus/rank frontiers honest across cores.
        #
        # A core's next issue time ("base") is its front-end schedule
        # plus the binding ROB/MSHR/write-buffer floor, computed inline
        # at each advance (bottom of the loop) from the stream's stall
        # columns (see _stall_columns for which entry binds).  The ROB
        # floor is *lag-based*: the event core stalls at the first entry
        # that no longer fits the window, and on resume still
        # re-executes every instruction between that entry and this
        # request — modeling the floor at this request's own front (a
        # plain ``max``) would silently delete that re-execution time,
        # so the lag folds it into the monotone delay accumulator
        # instead.  MSHR and write-buffer stalls do happen at the
        # request's own entry, so those are plain floors.
        live = [core for core in cores if core.n]
        epoch_end = t_refi
        # Aggregate counters accumulate in locals and flush once after
        # the loop (three attribute stores per request add up).
        n_reads = n_writes = n_acts = n_row_hits = 0
        read_latency_sum = 0.0
        while live:
            core = live[0]
            base = core.base
            for other in live:
                if other.base < base:
                    core = other
                    base = other.base
            if base >= epoch_end:
                # Window boundary: ranks whose REF ticks fell due while
                # they were idle catch up before the next batch (busy
                # ranks take their ticks in-stream, below), and the
                # bus/tRRD utilization windows roll over.
                epoch_end += t_refi
                for ch in range(n_channels):
                    rho = bus_acc[ch] / t_refi
                    if rho > 0.9:
                        rho = 0.9
                    bus_wait[ch] = rho / (2.0 * (1.0 - rho)) * t_burst
                    bus_acc[ch] = 0.0
                for rank in ranks:
                    rho = rank.act_acc * t_rrd / t_refi
                    if rho > 0.9:
                        rho = 0.9
                    rank.act_wait = rho / (2.0 * (1.0 - rho)) * t_rrd
                    rank.act_acc = 0
                    if rank.blackouts:
                        # Safe expiry: every future service query is at
                        # least the merge key (plus the LLC hop), so
                        # windows ending at or before it are done.
                        rank.blackouts = [
                            b for b in rank.blackouts if b[1] > base
                        ]
                    if rank.next_ref < base:
                        _fire_refs(rank, base, False, timing, tm, log)
                continue
            _front, bank_i, row, ch, is_write, demand = core.req

            t0 = base + llc_latency
            bank = banks[bank_i]
            rank = bank.rank
            start = t0
            if bank.busy > start:
                start = bank.busy
            if bank.blocked > start:
                start = bank.blocked
            if bank.open_row == row:
                cas = bank.cas_allowed
                if start > cas:
                    cas = start
                if not (rank.ref_free_start <= cas < rank.ref_free_end) \
                        or rank.blackouts:
                    cas = rank_avail(rank, cas, t_refi, t_rfc)
                n_row_hits += 1
                act_time = None
            else:
                if bank.open_row < 0:
                    act_ready = bank.act_allowed
                    if start > act_ready:
                        act_ready = start
                else:
                    pre = bank.pre_allowed
                    if start > pre:
                        pre = start
                    if not (rank.ref_free_start <= pre
                            < rank.ref_free_end) or rank.blackouts:
                        pre = rank_avail(rank, pre, t_refi, t_rfc)
                    act_ready = pre + t_rp
                    if bank.act_allowed > act_ready:
                        act_ready = bank.act_allowed
                act_time = act_ready + rank.act_wait
                if not (rank.ref_free_start <= act_time
                        < rank.ref_free_end) or rank.blackouts:
                    act_time = rank_avail(rank, act_time, t_refi, t_rfc)
                rank.act_acc += 1
                bank.open_row = row
                bank.act_allowed = act_time + t_rc
                bank.pre_allowed = act_time + t_ras
                cas = act_time + t_rcd
                bank.cas_allowed = cas
            data_start = cas + t_cl + bus_wait[ch]
            bus_acc[ch] += t_burst
            done = data_start + t_burst
            bank.busy = data_start
            if is_write:
                pre_floor = done + t_wr
                if pre_floor > bank.pre_allowed:
                    bank.pre_allowed = pre_floor
                n_writes += 1
                if demand:
                    core.write_done.append(done)
            else:
                pre_floor = cas + t_rtp
                if pre_floor > bank.pre_allowed:
                    bank.pre_allowed = pre_floor
                n_reads += 1
                read_latency_sum += done - t0
                pmax = core.read_pmax
                pmax.append(done if not pmax or done > pmax[-1]
                            else pmax[-1])
            if done > core.last_done:
                core.last_done = done
            if tm_record is not None:
                tm_record(t0, done, is_write, core.cid)
            if act_time is not None:
                n_acts += 1
                # In-stream REF catch-up: this rank's defense hooks fire
                # before the ACT that passed their tick time, preserving
                # the on_ref/on_activation interleaving the proactive
                # variants depend on.
                if rank.next_ref <= act_time:
                    _fire_refs(rank, act_time, True, timing, tm, log)
                rank.acts_since_rfm += 1
                if log_bank is not None:
                    log_bank(bank_i)
                    log_row(row)
                wants_alert = bank.on_activation(row)
                cadence = bank.cadence_acts
                if cadence is not None:
                    bank.cadence_counter += 1
                    if bank.cadence_counter >= cadence:
                        bank.cadence_counter = 0
                        self._cadence_rfm(bank, act_time, timing, stats, tm)
                if wants_alert:
                    self._maybe_alert(bank, rank, act_time, prac, timing, tm)

            # Advance: stage the next request and compute its issue time
            # (front-end schedule + ROB/MSHR/write-buffer floors; see the
            # loop header for the lag-based ROB semantics).
            i = core.idx + 1
            if i >= core.n:
                live.remove(core)
                continue
            core.idx = i
            r = core.reqs[i]
            core.req = r
            front_i = r[0]
            delay = core.delay
            if r[5]:  # demand request
                k = core.rob_read[i]
                if k != _NO_ROB_FLOOR:
                    # ROB space: the binding load retires at a DRAM
                    # read's prefix-max completion (or from 0.0), plus
                    # one LLC hop if that load was itself a hit, plus
                    # one per hit load issued after it.
                    if k >= 0:
                        resume = core.read_pmax[k]
                        if core.rob_hop[i]:
                            resume += llc_latency
                    else:
                        resume = 0.0
                    hits = core.hits[i]
                    if hits:
                        resume += hits * llc_latency
                    lag = resume - core.stall_front[i]
                    if lag > delay:
                        delay = lag
                base = front_i + delay
                m = core.ring[i]
                if m >= 0:
                    if r[4]:  # demand write: write-buffer ring
                        floor = core.write_done[m]
                    else:  # demand read: MSHR ring
                        floor = core.read_pmax[m]
                        if core.ring_hop[i]:
                            floor += llc_latency  # displaced load = hit
                    if floor > base:
                        base = floor
                        delay = base - front_i
                core.delay = delay
            else:
                base = front_i + delay
            if base < core.base:
                base = core.base  # in-order issue: never before previous
            core.base = base
        stats.reads += n_reads
        stats.writes += n_writes
        stats.acts += n_acts
        stats.row_hits += n_row_hits
        stats.total_read_latency_ns += read_latency_sum

    # ------------------------------------------------------------------
    # Rank availability (REF windows + RFMab blackouts), controller's math
    # ------------------------------------------------------------------
    @staticmethod
    def _rank_avail(rank, t, t_refi, t_rfc):
        """Earliest instant >= t outside REF windows and RFMab blackouts.

        Unlike the controller's twin, this must NOT prune the blackout
        list against the query time: the replay issues queries in
        *issue* order, so a congested bank can query far in the future
        before an idle bank queries inside a still-relevant window.
        Expired windows are dropped at window boundaries instead, against
        the merge key (a safe lower bound on every future query).
        """
        if not rank.blackouts:
            pos = (t - rank.ref_offset) % t_refi
            window_start = t - pos
            if pos < t_rfc:
                t = window_start + t_rfc
            rank.ref_free_start = window_start + t_rfc
            rank.ref_free_end = window_start + t_refi
            return t
        while True:
            moved = False
            pos = (t - rank.ref_offset) % t_refi
            if pos < t_rfc:
                t += t_rfc - pos
                moved = True
            for b_start, b_end in rank.blackouts:
                if b_start <= t < b_end:
                    t = b_end
                    moved = True
            if not moved:
                return t

    # ------------------------------------------------------------------
    # Activation-side protocol (same sequencing as the controller)
    # ------------------------------------------------------------------
    @staticmethod
    def _cadence_rfm(bank, act_time, timing, stats, tm=None):
        start = act_time + timing.t_rc
        blocked = bank.blocked
        bank.blocked = (blocked if blocked > start else start) + timing.t_rfm
        bank.open_row = -1
        bank.on_rfm(True)
        stats.cadence_rfms += 1
        if tm is not None:
            tm.record_blackout(start, bank.blocked, "cadence")

    @staticmethod
    def _maybe_alert(bank, rank, act_time, prac, timing, tm=None):
        if act_time < rank.alert_busy_until:
            return
        if rank.acts_since_rfm < prac.abo_delay:
            return
        rank.alerts += 1
        rank.acts_since_rfm = 0
        rfm_start = act_time + prac.abo_window_ns
        rfm_end = rfm_start + prac.n_mit * timing.t_rfm
        rank.alert_busy_until = rfm_end
        scope = rfm_scope_banks(prac.rfm_scope, rank.banks, bank)
        for _ in range(prac.n_mit):
            for member in scope:
                member.on_rfm(member is bank)
        rank.rfm_commands += prac.n_mit
        if tm is not None:
            tm.record_blackout(rfm_start, rfm_end, "abo")
        if prac.rfm_scope is RfmScope.ALL_BANK:
            rank.blackouts.append((rfm_start, rfm_end))
            for member in scope:
                member.open_row = -1
        else:
            for member in scope:
                if rfm_end > member.blocked:
                    member.blocked = rfm_end
                member.open_row = -1


def _fire_refs(rank, until, inclusive, timing, tm, log) -> None:
    """Fire ``rank``'s REF ticks due before ``until`` (and at it, when
    ``inclusive``), in order.

    The replay's one REF path, called at a window boundary (ticks before
    the merge key), before an ACT (ticks at or before its time, so the
    proactive variants see the event loop's on_ref/on_activation
    interleaving) and at the tail (ticks before the last core retires).
    Each tick calls every bank's ``on_ref``, then lands in the hook log
    and the telemetry when they are on.
    """
    t_refi = timing.t_refi
    while rank.next_ref < until or (inclusive and rank.next_ref == until):
        for hook in rank.on_refs:
            hook()
        if log is not None:
            log.ref(rank.index)
        if tm is not None:
            tm.record_ref(
                rank.next_ref, rank.next_ref + timing.t_rfc,
                (b.defense for b in rank.banks),
            )
        rank.next_ref += t_refi


class _StallColumns(NamedTuple):
    """Per-request positions in one core's stall-model rings.

    Row ``i`` describes the floors on request ``i``'s issue time, as
    typed columns (one per field, ``array.array``).  Only demand
    requests have floors; every other row holds the "none" values.

    ``rob_read``
        The DRAM read whose prefix-max completion the binding ROB load
        retires at: an index into ``read_pmax``, :data:`_ROB_FROM_ZERO`
        (no DRAM read at or before it: retire from 0.0) or
        :data:`_NO_ROB_FLOOR`.
    ``rob_hop``
        1 when the binding load is an LLC hit (one LLC hop on top).
    ``hits``
        LLC-hit loads issued after the binding load (an LLC hop each).
    ``stall_front``
        Front-end time the ROB stall is charged from.
    ``ring``
        The MSHR (demand read: index into ``read_pmax``) or
        write-buffer (demand write: index into ``write_done``) entry
        whose completion frees this request's slot; -1 for none.
    ``ring_hop``
        1 when the displaced MSHR load is an LLC hit.
    """

    rob_read: array
    rob_hop: array
    hits: array
    stall_front: array
    ring: array
    ring_hop: array


#: ``rob_read`` values that do not index ``read_pmax``.
_NO_ROB_FLOOR = -1
_ROB_FROM_ZERO = -2


def _stall_columns(front, inst, loads, is_write, is_demand, load_inst,
                   cpu) -> _StallColumns:
    """Where each request of one core binds in the stall-model rings.

    Per request (entry order): its front-end time, cumulative
    instruction mark and issued-load count (loads at or before its
    trace entry, LLC hits included), and its write / demand flags;
    ``load_inst`` holds the instruction mark of every load of the core.
    Along the requests the mark, the load count and the number of
    earlier DRAM reads never decrease, so every binding entry is a
    ``searchsorted`` over the core's loads or DRAM reads:

    * ROB: the binding load is the first one whose mark reaches
      ``inst - rob_entries``.  When even the newest issued load falls
      short, the whole window drains (over-ROB bubble-block
      streaming: the newest DRAM read, charged from the request's own
      front).  Otherwise it retires at the
      prefix-max completion of every DRAM read up to it (plus an LLC
      hop when it is a hit itself) and one more hop per hit load
      between it and the request, charged from the front where it left
      the window.  Retirement is quantized at load completions:
      bubbles and writes drain behind the nearest load.
    * MSHR: a read waits for the load ``max_outstanding_misses``
      before it (every load holds a slot, LLC hits included, and slots
      free on in-order retirement): the last DRAM read at or before
      that load, plus an LLC hop when the load is a hit.
    * Write buffer: a demand write waits for the demand write
      ``WRITE_BUFFER_DEPTH`` before it.
    """
    rob_entries = cpu.rob_entries
    per_inst_ns = cpu.cycle_ns / cpu.issue_width
    is_read = ~is_write
    # DRAM reads and demand writes strictly before each request.
    n_read = np.cumsum(is_read) - is_read
    demand_write = is_write & is_demand
    n_write = np.cumsum(demand_write) - demand_write
    read_loads = loads[is_read]
    # Leading sentinels: position 0 stands for "before the first".
    read_load_at = np.concatenate(([-1], read_loads))
    mark_before = np.concatenate(([0], load_inst))

    limit = inst - rob_entries
    has_rob = is_demand & (n_read > 0) & (limit > 0)
    rob_ptr = np.minimum(loads, np.searchsorted(load_inst, limit))
    drain = rob_ptr >= loads
    bind = rob_ptr + 1  # 1-based number of the binding load
    # DRAM reads at or before the binding load.
    n_bound = np.minimum(n_read, np.searchsorted(read_loads, bind, "right"))
    rob_read = np.where(
        drain, n_read - 1,
        np.where(n_bound > 0, n_bound - 1, _ROB_FROM_ZERO),
    )
    rob_read[~has_rob] = _NO_ROB_FLOOR
    bound = has_rob & ~drain
    rob_hop = bound & (n_bound > 0) & (read_load_at[n_bound] != bind)
    hits = np.where(
        bound, np.maximum(0, (loads - 1 - bind) - (n_read - n_bound)), 0
    )
    stall_front = np.where(
        drain, front,
        np.minimum((mark_before[rob_ptr] + rob_entries) * per_inst_ns,
                   front),
    )
    stall_front[~has_rob] = 0.0

    displaced = loads - cpu.max_outstanding_misses
    n_displaced = np.minimum(
        n_read, np.searchsorted(read_loads, displaced, "right")
    )
    mshr = is_demand & is_read & (displaced > 0) & (n_displaced > 0)
    ring_hop = mshr & (read_load_at[n_displaced] != displaced)
    write_ring = demand_write & (n_write >= WRITE_BUFFER_DEPTH)
    ring = np.where(
        mshr, n_displaced - 1,
        np.where(write_ring, n_write - WRITE_BUFFER_DEPTH, -1),
    )

    def column(code, values):
        return array(code, values.astype(np.dtype(code)).tobytes())

    return _StallColumns(
        rob_read=column("i", rob_read),
        rob_hop=column("b", rob_hop),
        hits=column("i", hits),
        stall_front=column("d", stall_front),
        ring=column("i", ring),
        ring_hop=column("b", ring_hop),
    )


class _PreparedStream:
    """Defense-independent replay input for one (workload, geometry) cell."""

    __slots__ = ("reqs", "stall", "front_total", "total_instructions",
                 "llc_hits", "llc_total")

    def __init__(self):
        self.reqs: list[list[tuple]] = []
        #: Per core: its :class:`_StallColumns`.
        self.stall: list[_StallColumns] = []
        self.front_total: list[float] = []
        self.total_instructions: list[int] = []
        self.llc_hits = 0
        self.llc_total = 0


@lru_cache(maxsize=8)
def _prepare_stream(workload, n_entries, seed, org, cpu) -> _PreparedStream:
    """Traces → merged LLC stream → per-core DRAM request columns.

    Trace columns are consumed vectorized (cumsum front-end clocks, one
    lexsort merge, the :func:`_llc_filter` pass, one array decode).  The
    result depends only on the workload, the trace length, the seed and
    the machine *geometry* — never on the defense or the timing
    parameters — so it is memoized exactly like
    :func:`~repro.workloads.synthetic.generate_trace`: a defense sweep
    re-simulating one workload under many defenses pays for the LLC
    filter and the stall columns (:func:`_stall_columns`) once.  Request
    tuples carry the flat bank *index* (banks are per-run objects);
    everything cached here is treated as immutable by the replay loop.
    """
    per_inst_ns = cpu.cycle_ns / cpu.issue_width
    traces = [
        generate_trace(workload, n_entries, org, seed=seed * 1000 + c)
        for c in range(cpu.cores)
    ]
    fronts, insts = [], []
    for trace in traces:
        needs = np.cumsum(trace.instruction_needs())
        insts.append(needs)
        fronts.append(needs * per_inst_ns)

    all_front = np.concatenate(fronts)
    all_core = np.concatenate([
        np.full(len(t), c, dtype=np.int64) for c, t in enumerate(traces)
    ])
    all_addr = np.concatenate([t.addresses for t in traces])
    all_write = np.concatenate([t.is_write for t in traces])
    # Unstalled front-end order approximates the event engine's temporal
    # interleaving — at the shared LLC *and* at the DRAM frontiers (bank
    # and bus state is touched in near-time order, which is what keeps
    # cross-core contention honest); core id breaks ties
    # deterministically.  Within one core this is entry order.
    order = np.lexsort((all_core, all_front))
    miss, writeback = _llc_filter(
        all_addr[order], all_write[order], org, cpu
    )
    # Back to per-core entry order (the concatenation's own order).
    miss_at = np.empty_like(miss)
    miss_at[order] = miss
    writeback_at = np.empty_like(writeback)
    writeback_at[order] = writeback

    mapper = AddressMapper(org)
    stream = _PreparedStream()
    lo = 0
    for c, trace in enumerate(traces):
        hi = lo + len(trace)
        entries = np.nonzero(miss_at[lo:hi])[0]
        victims = writeback_at[lo:hi][entries]
        has_wb = victims >= 0
        # Each miss emits its demand request, then its writeback (if
        # any: a non-demand write) directly after it.
        slot = np.arange(len(entries)) + np.cumsum(has_wb) - has_wb
        wb_slot = slot[has_wb] + 1
        n_reqs = len(entries) + len(wb_slot)
        req_entry = np.empty(n_reqs, dtype=np.int64)
        req_addr = np.empty(n_reqs, dtype=np.int64)
        req_write = np.ones(n_reqs, dtype=bool)
        req_demand = np.zeros(n_reqs, dtype=bool)
        req_entry[slot] = entries
        req_addr[slot] = trace.addresses[entries]
        req_write[slot] = trace.is_write[entries]
        req_demand[slot] = True
        req_entry[wb_slot] = entries[has_wb]
        req_addr[wb_slot] = victims[has_wb]
        # Load bookkeeping is LLC-independent: LLC-hit loads occupy MSHR
        # slots in the event core too (slots free on in-order
        # retirement), so the MSHR window counts every load, and the ROB
        # model retires at load granularity via per-load
        # cumulative-instruction marks.
        is_load = ~trace.is_write
        req_front = fronts[c][req_entry]
        if n_reqs:
            channel, _rank, _bg, _bank, row, _col, flat = (
                mapper.decode_arrays(req_addr)
            )
            reqs = list(zip(
                req_front.tolist(),
                flat.tolist(),
                row.tolist(),
                channel.tolist(),
                req_write.tolist(),
                req_demand.tolist(),
            ))
        else:
            reqs = []
        stream.reqs.append(reqs)
        stream.stall.append(_stall_columns(
            req_front, insts[c][req_entry], np.cumsum(is_load)[req_entry],
            req_write, req_demand, insts[c][is_load], cpu,
        ))
        stream.front_total.append(float(fronts[c][-1]))
        stream.total_instructions.append(trace.total_instructions)
        lo = hi
    stream.llc_total = len(order)
    stream.llc_hits = stream.llc_total - int(np.count_nonzero(miss))
    return stream


def _llc_filter(addr, is_write, org, cpu):
    """Exact LRU decisions of the shared LLC over one merged stream.

    Returns ``(miss, writeback)``: per access, whether it misses, and
    the address its miss writes back (-1 for none).  A set that never
    holds more than ``llc_ways`` distinct lines never evicts: an access
    there hits iff its line was seen before, and nothing is written
    back.  Only the accesses of sets that overflow run the sequential
    LRU — :meth:`~repro.cpu.cache.SetAssociativeCache.access`, inlined
    (keep in sync; ``tests/test_engines.py`` asserts parity against the
    canonical cache over real merged streams).
    """
    offset_bits = org.line_size_bytes.bit_length() - 1
    n_sets = cpu.llc_bytes // (cpu.llc_ways * org.line_size_bytes)
    set_bits = n_sets.bit_length() - 1
    n_ways = cpu.llc_ways
    line = addr >> np.int64(offset_bits)
    set_of = line & np.int64(n_sets - 1)
    lines, first = np.unique(line, return_index=True)
    miss = np.zeros(len(line), dtype=bool)
    miss[first] = True
    writeback = np.full(len(line), -1, dtype=np.int64)
    distinct = np.bincount(lines & np.int64(n_sets - 1), minlength=n_sets)
    overflowing = distinct > n_ways
    if not overflowing.any():
        return miss, writeback

    seq = np.nonzero(overflowing[set_of])[0]
    ways_of: list = [None] * n_sets
    for set_i in np.nonzero(overflowing)[0].tolist():
        ways_of[set_i] = OrderedDict()
    seq_miss: list[int] = []
    wb_at: list[int] = []
    wb_addr: list[int] = []
    for j, set_i, tag, dirty_access in zip(
        seq.tolist(), set_of[seq].tolist(),
        (line[seq] >> np.int64(set_bits)).tolist(), is_write[seq].tolist(),
    ):
        ways = ways_of[set_i]
        if tag in ways:
            ways.move_to_end(tag)
            if dirty_access:
                ways[tag] = True
            continue
        seq_miss.append(j)
        if len(ways) >= n_ways:
            victim, dirty = ways.popitem(last=False)
            if dirty:
                wb_at.append(j)
                wb_addr.append(((victim << set_bits) | set_i) << offset_bits)
        ways[tag] = dirty_access
    miss[seq] = False
    miss[seq_miss] = True
    writeback[wb_at] = wb_addr
    return miss, writeback
