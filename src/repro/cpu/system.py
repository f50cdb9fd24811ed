"""Multicore system driver: cores + shared LLC + DDR5 memory system.

Wires :class:`~repro.cpu.core.TraceCore` instances through a shared
:class:`~repro.cpu.cache.SetAssociativeCache` into the
:class:`~repro.controller.memctrl.MemorySystem`, runs the event loop to
completion, and reports per-core IPCs plus memory-side statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.controller.memctrl import DefenseFactory, MemorySystem, run_label
from repro.core.defense import MitigationReason, defense_stats
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.core import TraceCore
from repro.cpu.trace import Trace
from repro.errors import ConfigError, ReproError
from repro.params import SystemConfig
from repro.engine import EventQueue, _heappush

#: Hard cap on simulation events, guarding against scheduling livelock.
MAX_EVENTS = 200_000_000


@dataclass
class SystemResult:
    """Everything a benchmark needs from one simulation run."""

    workload: str
    variant: str
    sim_time_ns: float
    core_ipcs: list[float]
    instructions: int
    acts: int
    reads: int
    writes: int
    refs: int
    alerts: int
    rfm_commands: int
    cadence_rfms: int
    row_hit_rate: float
    llc_hit_rate: float
    avg_read_latency_ns: float
    mitigations: dict[MitigationReason, int] = field(default_factory=dict)
    #: Telemetry summary (percentiles, histogram, blackouts) when the run
    #: was observed; ``None`` otherwise.  Excluded from the canonical
    #: serialization — digests are identical with telemetry on or off.
    latency: dict | None = None

    @property
    def ipc_sum(self) -> float:
        return sum(self.core_ipcs)

    @property
    def alerts_per_trefi(self) -> float:
        """Alert Back-Offs per tREFI interval (paper Figure 15)."""
        if self.sim_time_ns <= 0:
            return 0.0
        trefis = self.sim_time_ns / 3900.0
        return self.alerts / trefis if trefis else 0.0

    @classmethod
    def from_stats(
        cls,
        workload: str,
        variant: str,
        sim_time_ns: float,
        core_ipcs: list[float],
        instructions: int,
        stats,
        llc_hit_rate: float,
        mitigations: dict[MitigationReason, int],
    ) -> "SystemResult":
        """Assemble a result from raw memory-side counters.

        ``stats`` is anything shaped like
        :class:`~repro.controller.memctrl.MemStats`; both simulation
        engines (event-driven and epoch-batched) report through this one
        constructor so derived rates are computed identically.
        """
        total_mem = stats.reads + stats.writes
        return cls(
            workload=workload,
            variant=variant,
            sim_time_ns=sim_time_ns,
            core_ipcs=core_ipcs,
            instructions=instructions,
            acts=stats.acts,
            reads=stats.reads,
            writes=stats.writes,
            refs=stats.refs,
            alerts=stats.alerts,
            rfm_commands=stats.rfm_commands,
            cadence_rfms=stats.cadence_rfms,
            row_hit_rate=stats.row_hits / total_mem if total_mem else 0.0,
            llc_hit_rate=llc_hit_rate,
            avg_read_latency_ns=stats.avg_read_latency_ns,
            mitigations=mitigations,
        )

    def weighted_speedup_vs(self, baseline: "SystemResult") -> float:
        """Normalised weighted speedup against a baseline run.

        For homogeneous workloads (the paper's setup) the per-core
        IPC_alone factors cancel, so this is the ratio of weighted sums.
        """
        base = baseline.ipc_sum
        if base <= 0:
            raise ReproError("baseline run has zero IPC")
        return self.ipc_sum / base

    def slowdown_pct_vs(self, baseline: "SystemResult") -> float:
        """Performance overhead in percent against the baseline."""
        return (1.0 - self.weighted_speedup_vs(baseline)) * 100.0


class MulticoreSystem:
    """One simulated machine: N trace cores, shared LLC, DDR5 memory."""

    def __init__(
        self,
        config: SystemConfig,
        traces: list[Trace],
        defense_factory: DefenseFactory,
        workload_name: str = "workload",
        telemetry=None,
    ) -> None:
        if not traces:
            raise ConfigError("at least one trace is required")
        if len(traces) > config.cpu.cores:
            raise ConfigError(
                f"{len(traces)} traces for {config.cpu.cores} cores"
            )
        self.cfg = config
        self.workload_name = workload_name
        self.defense_factory = defense_factory
        self.events = EventQueue()
        self.memory = MemorySystem(
            config, self.events, defense_factory, telemetry=telemetry
        )
        self.llc = SetAssociativeCache(
            config.cpu.llc_bytes,
            config.cpu.llc_ways,
            config.org.line_size_bytes,
        )
        #: One-element cell bumped per finishing core; shared with the
        #: event queue's tight drain loop as its stop condition.
        self._cores_done = [0]
        self._llc_latency_ns = config.cpu.llc_latency_ns
        # LLC geometry and hot callables for the per-access issue path
        # (the LLC lookup is inlined in _issue_access), packed so the
        # prologue is one attribute load plus a tuple unpack.
        llc = self.llc
        self._issue_hot = (
            llc,
            llc._sets,
            llc._offset_bits,
            llc._set_mask,
            llc._set_bits,
            llc.ways,
            self._llc_latency_ns,
            self.memory.enqueue,
            self.events,
        )
        self.cores = [
            TraceCore(
                i, trace, config.cpu, self._issue_access,
                on_finish=self._core_finished,
            )
            for i, trace in enumerate(traces)
        ]

    # ------------------------------------------------------------------
    # Memory-hierarchy glue
    # ------------------------------------------------------------------
    def _core_finished(self) -> None:
        self._cores_done[0] += 1

    def _issue_access(self, core_id, addr, is_write, time, callback) -> None:
        # SetAssociativeCache.access, inlined (this runs once per memory
        # instruction; keep in sync with repro.cpu.cache).
        (
            llc, sets, offset_bits, set_mask, set_bits, n_ways,
            llc_latency, mem_enqueue, events,
        ) = self._issue_hot
        line = addr >> offset_bits
        set_index = line & set_mask
        tag = line >> set_bits
        ways = sets[set_index]
        llc_done = time + llc_latency
        if ways is None:
            ways = sets[set_index] = {}
        elif tag in ways:
            llc.hits += 1
            ways[tag] = ways.pop(tag) or is_write
            if callback is not None:
                # events.schedule_future, inlined (hottest event source).
                seq = events._seq
                events._seq = seq + 1
                if llc_done < events._now:
                    llc_done = events._now
                _heappush(events._heap, (llc_done, seq, callback))
            return
        llc.misses += 1
        writeback = None
        if len(ways) >= n_ways:
            victim_tag = next(iter(ways))
            if ways.pop(victim_tag):
                llc.writebacks += 1
                writeback = (
                    (victim_tag << set_bits) | set_index
                ) << offset_bits
        ways[tag] = is_write
        mem_enqueue(
            addr, is_write, llc_done, callback=callback, core_id=core_id
        )
        if writeback is not None:
            mem_enqueue(writeback, True, llc_done, callback=None)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, variant_name: str | None = None) -> SystemResult:
        """Run all cores to completion and return aggregate results,
        labelled by :func:`~repro.controller.memctrl.run_label`.

        The loop stops exactly when the last core retires (cores report
        completion through ``on_finish``); it never polls every core per
        event, and never processes an event beyond the finishing one.
        The LLC is emptied once the result is assembled (its hit, miss
        and writeback counters stay), so a system runs once.
        """
        for core in self.cores:
            core.start()
        self.events.drain_until(self._cores_done, len(self.cores), MAX_EVENTS)
        sim_time = max(core.finish_time for core in self.cores)
        result = SystemResult.from_stats(
            workload=self.workload_name,
            variant=run_label(self.defense_factory, variant_name),
            sim_time_ns=sim_time,
            core_ipcs=[core.ipc() for core in self.cores],
            instructions=sum(core.total_instructions for core in self.cores),
            stats=self.memory.stats,
            llc_hit_rate=self.llc.hit_rate,
            mitigations=defense_stats(
                bank.defense for bank in self.memory.banks
            ),
        )
        # The finished system is cyclic garbage (cores hold bound
        # methods of it), freed only by a full collection: free the
        # LLC's sets now.
        self.llc.drop_lines()
        return result
