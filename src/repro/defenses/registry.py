"""The defense registry: named, serializable, pluggable mitigations.

Every mitigation the simulator can run is described by a
:class:`DefenseSpec` — a plain ``(name, params)`` value that is hashable,
picklable, byte-stably serializable, and resolvable to a per-bank engine
factory through a process-wide :class:`DefenseRegistry`.  The spec is the
unit the experiment orchestrator sweeps, caches and labels by; the
registry is the single place a defense's construction logic lives.
Both are the shared :class:`~repro.specs.Spec` and
:class:`~repro.specs.Registry`: a spec's cache identity depends only on
its own name and params, and resolution (``spec.factory()`` or
:func:`resolve_defense`) fails fast on a typo'd name or parameter,
naming the registered alternatives.

External code plugs in new designs with one decorator::

    from repro.defenses import register_defense

    @register_defense("my-prac", summary="my follow-on PRAC design")
    def build_my_prac(bank_index, config, *, knob: int = 4):
        return MyPRACBank(config.prac, knob=knob)

    simulate_workload("429.mcf", defense="my-prac:knob=8")

For parallel sweeps (``run_sweep(..., jobs>1)``) register at import time
— the top level of an importable module, not under ``if __name__ ==
"__main__":`` or in a REPL cell.  Worker processes re-import the code
and rebuild the registry from those imports; with the ``spawn`` start
method (the default on macOS/Windows) a registration that only happened
in the parent's main block is invisible to workers and the sweep fails
with "unknown defense".
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError
from repro.params import MitigationVariant, SystemConfig
from repro.specs import (
    RegisteredEntry,
    Registry,
    Spec,
    SpecParam,
    introspect_params,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.defense import BankDefense

#: Builder signature: positional (bank_index, config) plus keyword params.
DefenseBuilder = Callable[..., "BankDefense"]

#: Canonical name of the paper's non-secure baseline defense.
BASELINE_NAME = "baseline"

#: One keyword parameter a registered builder accepts — the shared
#: :class:`~repro.specs.SpecParam` (same table the engine registry
#: uses, so listings and validation can never diverge).
DefenseParam = SpecParam


class RegisteredDefense(RegisteredEntry):
    """Registry entry: the builder (``target``) plus its parameter table."""


class DefenseRegistry(Registry):
    """Name → :class:`RegisteredDefense` map with duplicate rejection.

    ``register(name, summary)`` decorates a builder, called as
    ``builder(bank_index, config, **params)`` once per bank; its keyword
    parameters (introspected from the signature) become the spec's
    valid params.
    """

    kind = "defense"
    plural = "defenses"
    entry_type = RegisteredDefense

    def _params(self, name: str, builder: DefenseBuilder):
        """Parameter table from a builder's signature (skipping bank/config)."""
        if len(inspect.signature(builder).parameters) < 2:
            raise ConfigError(
                "a defense builder must accept (bank_index, config) plus "
                "keyword parameters"
            )
        return introspect_params(
            builder, skip=2, kind="defense builder", owner=repr(builder)
        )


#: The process-wide registry every un-scoped resolution consults.
REGISTRY = DefenseRegistry()

#: Module-level decorator bound to the global registry (the public API).
register_defense = REGISTRY.register


class DefenseSpec(Spec):
    """A serializable description of one defense: name + parameters
    (the shared :class:`~repro.specs.Spec`)."""

    registry = REGISTRY

    @property
    def is_baseline(self) -> bool:
        return self.name == BASELINE_NAME

    def factory(self, registry: DefenseRegistry | None = None):
        """Resolve to a per-bank :data:`DefenseFactory` (validated).

        The returned callable carries this spec as a ``spec`` attribute so
        downstream code can recover the name.
        """
        builder = self.validate(registry).target
        params = self.params_dict

        def make(bank_index: int, config: SystemConfig):
            return builder(bank_index, config, **params)

        make.spec = self  # type: ignore[attr-defined]
        return make


def registered_defenses() -> tuple[RegisteredDefense, ...]:
    """All globally registered defenses, sorted by name."""
    return REGISTRY.entries()


def resolve_defense(
    defense: "DefenseSpec | MitigationVariant | str",
    registry: DefenseRegistry | None = None,
) -> DefenseSpec:
    """Normalize any defense designator to a validated :class:`DefenseSpec`.

    Accepts a spec, a :class:`~repro.params.MitigationVariant` (each
    variant resolves to its registered QPRAC spec), or a string in the
    ``name[:k=v,...]`` CLI syntax.
    """
    if isinstance(defense, MitigationVariant):
        defense = DefenseSpec(defense.value)
    return DefenseSpec.resolve(defense, registry)
