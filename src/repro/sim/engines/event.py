"""The ``event`` engine: the nanosecond event-driven reference simulator.

This is the original execution path — four :class:`~repro.cpu.core.TraceCore`
instances through a shared LLC into the
:class:`~repro.controller.memctrl.MemorySystem`, driven by
:class:`~repro.engine.EventQueue` — extracted behind the
:class:`~repro.sim.engines.base.SimEngine` seam.  It is the *reference*
engine: its results are pinned byte-for-byte by the golden-hash tests,
and every other engine's aggregates are judged against it.

A job that raises no Alert has exactly the request timing of any other
such job on the same stream, so ``simulate`` goes through the Alert-free
timing memo (:mod:`repro.sim.engines.memo`), as ``epoch`` does: a run
with no telemetry and no cadence defense records its defenses' hook
calls, and a later run on the same stream and timing that raises no
Alert drives its own defenses through that log instead of building the
trace and the event system.  Its result is byte-identical to a full run.
"""

from __future__ import annotations

from repro.controller.memctrl import DefenseFactory
from repro.cpu.system import MulticoreSystem, SystemResult
from repro.params import SystemConfig
from repro.sim.engines import memo
from repro.sim.engines.base import SimEngine, register_engine
from repro.workloads.synthetic import WorkloadSpec, generate_trace


def build_event_system(
    workload: WorkloadSpec,
    config: SystemConfig,
    defense_factory: DefenseFactory,
    n_entries: int,
    seed: int = 0,
    telemetry=None,
) -> MulticoreSystem:
    """Construct (but do not run) the event-driven system for one job.

    The paper's methodology: ``config.cpu.cores`` homogeneous copies of
    the workload with per-core seeds.  Shared with
    :func:`repro.sim.runner.build_system` (the public wrapper) and the
    bench harness, which needs the system handle for its event counter.
    """
    traces = [
        generate_trace(workload, n_entries, config.org, seed=seed * 1000 + core)
        for core in range(config.cpu.cores)
    ]
    return MulticoreSystem(
        config, traces, defense_factory, workload_name=workload.name,
        telemetry=telemetry,
    )


@register_engine(
    "event",
    summary="event-driven reference simulator (nanosecond fidelity, "
    "byte-identical golden path)",
)
class EventEngine(SimEngine):
    """Reference engine: full event-loop fidelity, pinned golden hashes."""

    work_unit_name = "events"

    def simulate(
        self,
        workload: WorkloadSpec,
        config: SystemConfig,
        defense_factory: DefenseFactory,
        n_entries: int,
        seed: int = 0,
        variant_name: str | None = None,
        telemetry=None,
    ) -> SystemResult:
        run = memo.lookup(self, workload, n_entries, seed, config,
                          defense_factory, telemetry, variant_name)
        if run.served is not None:
            self.work_units = 0
            return run.served
        system = build_event_system(
            workload, config, run.factory, n_entries, seed,
            telemetry=telemetry,
        )
        system.memory.hook_log = run.log
        result = system.run(variant_name=variant_name)
        self.work_units = system.events.events_processed
        memo.remember(run, result)
        # Observed runs carry their summary out-of-band of the canonical
        # payload.
        if telemetry is not None:
            result.latency = telemetry.summary_dict()
        return result
