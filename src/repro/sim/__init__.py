"""Simulation façade: pluggable engines, one defense selector, runners.

``simulate_workload``, ``build_system`` and ``run_bandwidth_attack``
name their defense one way — ``defense=`` (a
:class:`~repro.defenses.DefenseSpec`, a ``"name:key=value"`` string or
a :class:`~repro.params.MitigationVariant`; ``None`` runs
``config.variant``'s QPRAC policy).
"""

from repro.sim.bandwidth import (
    BandwidthResult,
    analytical_bandwidth_reduction,
    run_bandwidth_attack,
)
from repro.engine import EventQueue
from repro.sim.engines import (
    DEFAULT_ENGINE,
    EngineSpec,
    SimEngine,
    register_engine,
    registered_engines,
    resolve_engine,
)
from repro.sim.runner import (
    DEFAULT_ENTRIES,
    EVALUATED_VARIANTS,
    VariantComparison,
    build_system,
    simulate_workload,
)

__all__ = [
    "BandwidthResult",
    "analytical_bandwidth_reduction",
    "run_bandwidth_attack",
    "DEFAULT_ENGINE",
    "EngineSpec",
    "EventQueue",
    "SimEngine",
    "register_engine",
    "registered_engines",
    "resolve_engine",
    "DEFAULT_ENTRIES",
    "EVALUATED_VARIANTS",
    "VariantComparison",
    "build_system",
    "simulate_workload",
]
