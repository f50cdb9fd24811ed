"""The simulation-engine registry: named, serializable execution tiers.

A *simulation engine* is one way of executing a workload × defense job:
the ``event`` engine drives the nanosecond event loop (the reference —
byte-identical to the pre-registry simulator), the ``epoch`` engine
advances whole tREFI windows at a time (approximate timing, several
times faster).  Engines are a spec registry next to defenses
(:mod:`repro.defenses`) and attack patterns (:mod:`repro.attacks`):
everything that can run a simulation is addressable by name, so every
figure chooses its fidelity/throughput point with a string.

An :class:`EngineSpec` is the serializable selection — ``"event"``,
``"epoch"``, ``"epoch:trefi_chunk=4"`` — built on the shared
:class:`~repro.specs.Spec`, so it has the grammar, the
registry-independent identity and the fail-fast validation of
:class:`~repro.defenses.DefenseSpec`.  Specs join
:class:`~repro.exp.spec.Job` cache keys, so cached rows produced by
different engines can never collide.

External code plugs in new engines with one decorator::

    from repro.sim.engines import SimEngine, register_engine

    @register_engine("my-engine", summary="compiled event core")
    class MyEngine(SimEngine):
        def __init__(self, *, chunk: int = 1): ...
        def simulate(self, workload, config, defense_factory,
                     n_entries, seed, variant_name=None): ...

    simulate_workload("429.mcf", engine="my-engine:chunk=8")
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.specs import (
    RegisteredEntry,
    Registry,
    Spec,
    SpecParam,
    introspect_params,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.controller.memctrl import DefenseFactory
    from repro.cpu.system import SystemResult
    from repro.params import SystemConfig
    from repro.workloads.synthetic import WorkloadSpec

#: Name of the reference engine (the event-driven simulator).
DEFAULT_ENGINE = "event"


class SimEngine:
    """One execution tier for workload simulations.

    Subclasses are registered with :func:`register_engine`; instances are
    built per job from an :class:`EngineSpec` (``spec.build()``), so they
    may keep per-run state.  :meth:`simulate` receives everything a job
    resolves — workload spec, effective configuration, per-bank defense
    factory — and returns a :class:`~repro.cpu.system.SystemResult`.
    """

    #: Registry name (set by :func:`register_engine`).
    name: str = "?"
    #: Work-unit count of the most recent :meth:`simulate` call, for
    #: throughput reporting.  The *meaning* is engine-defined (simulator
    #: events for ``event``, consumed trace accesses for ``epoch``) and
    #: named by :attr:`work_unit_name`; cross-engine comparisons must use
    #: wall time, never work-unit rates.
    work_units: int = 0
    work_unit_name: str = "events"

    def simulate(
        self,
        workload: "WorkloadSpec",
        config: "SystemConfig",
        defense_factory: "DefenseFactory",
        n_entries: int,
        seed: int = 0,
        variant_name: str | None = None,
        telemetry=None,
    ) -> "SystemResult":
        """Run one fully-resolved simulation job to completion.

        ``telemetry`` is an optional :class:`~repro.obs.Telemetry`
        recorder.  Engines MUST produce byte-identical results with it
        enabled, disabled, or absent — it observes the simulated clock,
        never steers it — and should attach the summary to the result's
        ``latency`` field when enabled.  Callers only pass the keyword
        when telemetry is enabled, so engines predating the seam keep
        working.
        """
        raise NotImplementedError


#: One keyword parameter a registered engine's constructor accepts —
#: the shared :class:`~repro.specs.SpecParam` (same table the defense
#: registry uses, so listings and validation can never diverge).
EngineParam = SpecParam


class RegisteredEngine(RegisteredEntry):
    """Registry entry: the engine class (``target``) plus its parameter
    table."""


class EngineRegistry(Registry):
    """Name → :class:`RegisteredEngine` map with duplicate rejection.

    ``register(name, summary)`` decorates a :class:`SimEngine` subclass;
    its constructor keyword parameters (introspected from ``__init__``)
    become the spec's valid params.
    """

    kind = "engine"
    plural = "engines"
    entry_type = RegisteredEngine

    def _params(self, name: str, cls: type[SimEngine]):
        if not (isinstance(cls, type) and issubclass(cls, SimEngine)):
            raise ConfigError(
                f"@register_engine({name!r}) needs a SimEngine "
                f"subclass, got {cls!r}"
            )
        cls.name = name
        if cls.__init__ is object.__init__:
            return ()  # parameterless engine: no constructor declared
        return introspect_params(
            cls.__init__, skip=1, kind="engine", owner=repr(cls)
        )


#: The process-wide registry every un-scoped resolution consults.
REGISTRY = EngineRegistry()

#: Module-level decorator bound to the global registry (the public API).
register_engine = REGISTRY.register


class EngineSpec(Spec):
    """A serializable description of one engine: name + parameters (the
    shared :class:`~repro.specs.Spec`, so its serialized form — hence
    every cache key — is independent of what else is registered)."""

    registry = REGISTRY

    @property
    def is_reference(self) -> bool:
        """True for the byte-identical reference engine (``event``)."""
        return self.name == DEFAULT_ENGINE

    def build(self, registry: EngineRegistry | None = None) -> SimEngine:
        """Resolve to a ready :class:`SimEngine` instance (validated)."""
        engine = self.validate(registry).target(**self.params_dict)
        engine.spec = self  # type: ignore[attr-defined]
        return engine


#: The spec every un-specified simulation resolves to.
DEFAULT_ENGINE_SPEC = EngineSpec(DEFAULT_ENGINE)


def registered_engines() -> tuple[RegisteredEngine, ...]:
    """All globally registered engines, sorted by name."""
    return REGISTRY.entries()


def resolve_engine(
    engine: "EngineSpec | str | None",
    registry: EngineRegistry | None = None,
) -> EngineSpec:
    """Normalize any engine designator to a validated :class:`EngineSpec`.

    ``None`` resolves to the reference :data:`DEFAULT_ENGINE_SPEC`;
    strings use the ``name[:k=v,...]`` CLI syntax.
    """
    return EngineSpec.resolve(
        DEFAULT_ENGINE_SPEC if engine is None else engine, registry
    )
