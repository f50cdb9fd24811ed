"""Pluggable simulation engines: the fidelity/throughput tier.

The third registry of the reproduction, next to defenses
(:mod:`repro.defenses`) and sweep backends (:mod:`repro.exp.backend`).
An :class:`EngineSpec` names how a simulation executes::

    simulate_workload("429.mcf", defense="qprac")                  # event (reference)
    simulate_workload("429.mcf", defense="qprac", engine="epoch")  # batched, ~4x faster

Shipped engines:

``event``
    The nanosecond event-driven reference simulator.  Byte-identical to
    the pre-registry code path (golden-hash pinned); use it for every
    number that lands in a figure you compare against the paper.
``epoch``
    Batched tREFI-window engine: exact defense state machines and ABO
    protocol over approximate epoch-granular timing.  Several times
    faster; agrees with ``event`` on mean slowdown % and alerts/tREFI
    within the tolerance asserted by ``tests/test_engines.py``.  Use it
    for wide sweeps, smoke runs and interactive exploration.

Both serve a job that raises no Alert from the Alert-free timing memo
(:mod:`repro.sim.engines.memo`) when an earlier job on the same request
stream and timing recorded one: a run without Alerts has exactly the
timing of any other, so only its defenses are driven, through the
recorded hook log.  A served result is byte-identical to a full run.

Importing this package registers both; plugins add more with
:func:`register_engine`.
"""

from repro.sim.engines.base import (
    DEFAULT_ENGINE,
    DEFAULT_ENGINE_SPEC,
    EngineRegistry,
    EngineSpec,
    RegisteredEngine,
    REGISTRY,
    SimEngine,
    register_engine,
    registered_engines,
    resolve_engine,
)
from repro.sim.engines.event import EventEngine, build_event_system
from repro.sim.engines.epoch import EpochEngine

__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_ENGINE_SPEC",
    "EngineRegistry",
    "EngineSpec",
    "EpochEngine",
    "EventEngine",
    "REGISTRY",
    "RegisteredEngine",
    "SimEngine",
    "build_event_system",
    "register_engine",
    "registered_engines",
    "resolve_engine",
]
