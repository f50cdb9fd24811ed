"""The attack-pattern registry: named, serializable, pluggable adversaries.

Attack patterns are the third spec registry, next to defenses and
simulation engines: an :class:`AttackSpec` is a plain ``(name, params)``
value (the shared :class:`~repro.specs.Spec`, in the ``name[:k=v,...]``
grammar of :mod:`repro.specs`) — hashable, picklable, byte-stably
serializable — resolved through a process-wide :class:`AttackRegistry`
to a registered pattern generator.

A registered pattern provides one (or both) of two products:

* a **trace generator** — ``generator(org, n_entries, seed, **params)``
  returning a deterministic, seeded
  :class:`~repro.cpu.trace.Trace`.  Patterns enter sweeps as
  :class:`AttackWorkload` s (a :class:`~repro.workloads.synthetic.
  WorkloadSpec` subclass carrying its spec), so both simulation engines
  execute them through the exact workload path — generation, memoization,
  caching and digests all unchanged;
* a **bandwidth schedule** — an optional ``rows`` callable giving the
  per-bank aggressor-row pool the closed-loop Figure 19 attacker cycles
  (:func:`bandwidth_targets` composes it into per-bank address pools for
  :func:`~repro.sim.bandwidth.run_bandwidth_attack`).

The same two load-bearing properties as the defense registry hold:
registry-independent identity (a spec's serialized form — and every
cache key derived from it — depends only on its own name and params) and
fail-fast validation (a typo'd pattern or parameter dies before any
simulation runs, naming the registered alternatives).

External code plugs in new patterns with one decorator::

    from repro.attacks import register_attack

    @register_attack("my-pattern", summary="my adversarial schedule")
    def my_pattern(org, n_entries, seed, *, knob: int = 4):
        ...
        return Trace(bubbles, addresses, is_write, name="my-pattern")

    run_sweep(SweepSpec.build((), ["qprac"], attacks=["my-pattern:knob=8"]))

As with defenses, register at import time so parallel sweep workers
(which re-import the code) see the registration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.dram.address import bank_pools
from repro.errors import ConfigError, ReproError
from repro.params import DRAMOrganization
from repro.specs import (
    RegisteredEntry,
    Registry,
    Spec,
    SpecParam,
    introspect_params,
)
from repro.workloads.synthetic import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.trace import Trace

#: Generator signature: positional ``(org, n_entries, seed)`` plus
#: keyword params; returns a deterministic :class:`Trace`.
AttackGenerator = Callable[..., "Trace"]

#: Optional per-pattern bandwidth schedule: ``rows(org, seed, params)``
#: returns the per-bank aggressor row indices the pool attacker cycles.
#: ``params`` is the spec's params dict with the generator's defaults
#: filled in, so one parameter table serves both products.
AttackRows = Callable[..., "list[int]"]

#: One keyword parameter a registered generator accepts — the shared
#: :class:`~repro.specs.SpecParam` table every registry uses.
AttackParam = SpecParam


@dataclass(frozen=True)
class RegisteredAttack(RegisteredEntry):
    """Registry entry: the generator (``target``) plus its param table."""

    #: Per-bank aggressor-row pool for the closed-loop bandwidth
    #: attacker, or ``None`` when the pattern is trace-only.
    rows: AttackRows | None = None

    def full_params(self, params: Mapping[str, object]) -> dict[str, object]:
        """``params`` with the generator's declared defaults filled in."""
        filled = {p.name: p.default for p in self.params}
        filled.update(params)
        return filled


class AttackRegistry(Registry):
    """Name → :class:`RegisteredAttack` map with duplicate rejection.

    ``register(name, summary, rows=None)`` decorates a generator, called
    as ``generator(org, n_entries, seed, **params)``; its keyword
    parameters (introspected from the signature) become the spec's
    valid params.  ``rows`` optionally supplies the pattern's
    bandwidth-attack schedule.
    """

    kind = "attack pattern"
    plural = "patterns"
    entry_type = RegisteredAttack

    def _params(self, name: str, generator: AttackGenerator):
        """Param table from a generator's signature, skipping the three
        positional inputs ``(org, n_entries, seed)``."""
        return introspect_params(
            generator, skip=3, kind="attack generator", owner=repr(generator)
        )


#: The process-wide registry every un-scoped resolution consults.
REGISTRY = AttackRegistry()

#: Module-level decorator bound to the global registry (the public API).
register_attack = REGISTRY.register


class AttackSpec(Spec):
    """A serializable description of one attack pattern: name + params
    (the shared :class:`~repro.specs.Spec`)."""

    registry = REGISTRY


def registered_attacks() -> tuple[RegisteredAttack, ...]:
    """All globally registered attack patterns, sorted by name."""
    return REGISTRY.entries()


def resolve_attack(
    attack: "AttackSpec | str",
    registry: AttackRegistry | None = None,
) -> AttackSpec:
    """Normalize any attack designator to a validated :class:`AttackSpec`.

    Accepts a spec or a string in the ``name[:k=v,...]`` CLI syntax.
    """
    return AttackSpec.resolve(attack, registry)


def build_attack_trace(
    attack: "AttackSpec | str",
    n_entries: int,
    org: DRAMOrganization | None = None,
    seed: int = 0,
    registry: AttackRegistry | None = None,
) -> "Trace":
    """Generate the pattern's trace: validated, deterministic, seeded."""
    spec = resolve_attack(attack, registry)
    if n_entries < 1:
        raise ConfigError(f"n_entries must be >= 1, got {n_entries}")
    entry = (registry or REGISTRY).entry(spec.name)
    org = org or DRAMOrganization()
    return entry.target(org, n_entries, seed, **spec.params_dict)


def attack_rows(
    attack: "AttackSpec | str",
    org: DRAMOrganization | None = None,
    seed: int = 0,
    registry: AttackRegistry | None = None,
) -> list[int]:
    """The pattern's per-bank aggressor row indices (bandwidth schedule).

    Raises for trace-only patterns that declare no ``rows`` callable.
    """
    spec = resolve_attack(attack, registry)
    entry = (registry or REGISTRY).entry(spec.name)
    if entry.rows is None:
        raise ReproError(
            f"attack pattern {spec.name!r} defines no bandwidth schedule "
            "(register it with rows=... to drive the pool attacker)"
        )
    org = org or DRAMOrganization()
    rows = list(entry.rows(org, seed, entry.full_params(spec.params_dict)))
    if not rows:
        raise ReproError(
            f"attack pattern {spec.label!r} produced an empty row pool"
        )
    for row in rows:
        if not 0 <= row < org.rows_per_bank:
            raise ConfigError(
                f"attack pattern {spec.label!r} row {row} outside "
                f"[0, {org.rows_per_bank})"
            )
    return rows


def bandwidth_targets(
    attack: "AttackSpec | str",
    org: DRAMOrganization,
    attack_ranks: int = 1,
    seed: int = 0,
    registry: AttackRegistry | None = None,
) -> list[list[int]]:
    """Per-bank physical-address pools for the closed-loop attacker.

    Banks are enumerated in flat-bank order over the first
    ``attack_ranks`` ranks — the exact iteration order
    :func:`~repro.sim.bandwidth.run_bandwidth_attack` uses for its
    default pool, so swapping in a registry schedule changes only the
    rows, never the bank walk.
    """
    rows = attack_rows(attack, org, seed, registry)
    ranks_to_attack = min(attack_ranks, org.channels * org.ranks)
    return bank_pools(org, range(ranks_to_attack * org.banks_per_rank), rows)


@dataclass(frozen=True)
class AttackWorkload(WorkloadSpec):
    """An attack pattern wearing the workload interface.

    Carries its :class:`AttackSpec` and overrides trace generation via
    :meth:`build_trace`, which the synthetic generator's single dispatch
    point honours — so attack patterns flow through both simulation
    engines, the trace memo, job pickling and the workload fingerprint
    (and hence cache keys) exactly like ordinary workloads.  The
    statistical fields are nominal descriptors only (the trace is built
    by the pattern, not drawn from them); ``acts_pki`` is set high so
    intensity-based classifications file attacks as memory-intensive.
    """

    #: Sentinel default so the dataclass field order stays legal; a real
    #: spec is required (``attack_workload`` always supplies one).
    attack: AttackSpec = field(default=AttackSpec("unresolved-attack"))

    def build_trace(
        self, n_entries: int, org: DRAMOrganization, seed: int
    ) -> "Trace":
        return build_attack_trace(self.attack, n_entries, org, seed)


def attack_workload(
    attack: "AttackSpec | str",
    registry: AttackRegistry | None = None,
) -> AttackWorkload:
    """Wrap a validated attack pattern as a sweepable workload.

    The workload's name is the spec's canonical label (e.g.
    ``"decoy:reads_per_trefi=4"``), so sweep identifiers, progress lines
    and result tables distinguish patterns by their parameters.
    """
    spec = resolve_attack(attack, registry)
    return AttackWorkload(
        name=spec.label,
        suite="attack",
        acts_pki=1000.0,
        row_burst=1.0,
        footprint_mb=1.0,
        zipf_alpha=0.0,
        write_fraction=0.0,
        attack=spec,
    )
