"""Declarative sweep specifications.

A :class:`SweepSpec` names a grid of simulations — workloads × defenses ×
PRAC config overrides — and expands it into a deterministic list of
:class:`Job` s.  Jobs are plain frozen dataclasses: picklable (so they
cross the worker-process boundary), individually seeded, and content
addressed (:meth:`Job.cache_key` hashes everything that determines the
simulation's output, including the simulator's own code version).

Defenses are :class:`~repro.defenses.DefenseSpec` values: any registered
mitigation — QPRAC variants, MOAT, PrIDE, Mithril, Panopticon, UPRAC or
an externally registered plugin — sweeps through the same grid.  Plain
strings (``"moat:proactive_every_n_refs=4"``) and
:class:`~repro.params.MitigationVariant` members are accepted anywhere a
spec is and normalized on construction.

Expansion order is part of the contract: ``expand()`` returns the same
jobs in the same order for the same spec, so aggregated sweep output is
reproducible regardless of how many worker processes execute it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.attacks import AttackSpec, attack_workload
from repro.defenses import BASELINE_NAME, DefenseSpec, resolve_defense
from repro.errors import ConfigError
from repro.params import MitigationVariant, PRACParams, SystemConfig, default_config
from repro.sim.engines import DEFAULT_ENGINE_SPEC, EngineSpec, resolve_engine
from repro.exp.serialize import (
    SCHEMA_VERSION,
    canonical_json,
    code_version_salt,
    environment_fingerprint,
)
from repro.workloads.suites import workload as lookup_workload
from repro.workloads.synthetic import WorkloadSpec

#: Label of the paper's non-secure baseline runs (a registered defense).
BASELINE = BASELINE_NAME

#: The baseline's spec: parameterless, shared by every sweep expansion.
BASELINE_SPEC = DefenseSpec(BASELINE)

_PRAC_FIELDS = frozenset(f.name for f in dataclasses.fields(PRACParams))

Overrides = tuple[tuple[str, object], ...]


def _normalize_overrides(overrides: Mapping[str, object] | Overrides) -> Overrides:
    items = sorted(dict(overrides).items())
    for key, _value in items:
        if key not in _PRAC_FIELDS:
            raise ConfigError(
                f"unknown PRAC override {key!r}; valid keys: "
                f"{', '.join(sorted(_PRAC_FIELDS))}"
            )
    return tuple(items)


def overrides_label(overrides: Overrides) -> str:
    """Human-readable tag for one override set (``"-"`` when empty)."""
    if not overrides:
        return "-"
    return ",".join(f"{k}={v}" for k, v in overrides)


@dataclass(frozen=True)
class Job:
    """One fully-specified simulation: the unit of dispatch and caching."""

    workload: WorkloadSpec
    #: The defense this job runs (``DefenseSpec(BASELINE)`` for the
    #: non-secure baseline).
    defense: DefenseSpec
    #: PRAC overrides already folded into ``config`` (kept for labelling).
    overrides: Overrides
    #: Effective configuration (overrides and QPRAC variant applied).
    config: SystemConfig
    n_entries: int
    seed: int
    #: Simulation engine executing this job (``event`` = the reference).
    engine: EngineSpec = DEFAULT_ENGINE_SPEC

    @property
    def label(self) -> str:
        return f"{self.workload.name}/{self.defense.label}"

    def cache_key(self) -> str:
        """Content address: hash of every input that shapes the result.

        Includes a salt over the simulator sources
        (:func:`~repro.exp.serialize.code_version_salt`) so stale results
        are never served across code changes, and the payload schema
        version so layout changes invalidate cleanly.  The defense and
        the engine enter as their serialized ``{name, params}`` forms —
        independent of the registries' contents or registration order,
        so registering new defenses or engines never perturbs existing
        keys, and rows produced by different engines can never collide.
        The workload and the configuration enter as themselves:
        :func:`~repro.exp.serialize.canonical_json` encodes every field
        of both in its one walk.
        """
        identity = {
            "schema": SCHEMA_VERSION,
            "code": code_version_salt(),
            "env": environment_fingerprint(),
            "workload": self.workload,
            "defense": self.defense.to_dict(),
            "config": self.config,
            "n_entries": self.n_entries,
            "seed": self.seed,
            "engine": self.engine.to_dict(),
        }
        attack = self.attack
        if attack is not None:
            identity["attack"] = attack.to_dict()
        return hashlib.sha256(canonical_json(identity).encode()).hexdigest()

    @property
    def attack(self) -> "AttackSpec | None":
        """The attack pattern this job runs, if its workload carries one."""
        return getattr(self.workload, "attack", None)


@dataclass(frozen=True)
class SweepSpec:
    """A workloads × defenses × overrides grid, expanded into jobs.

    Parameters
    ----------
    workloads:
        Workload names (resolved against the 57-workload suite) or
        explicit :class:`WorkloadSpec` objects.
    defenses:
        Defenses to run for every workload: :class:`DefenseSpec` values,
        registered-defense strings (``"moat:eth=8"``) or
        :class:`MitigationVariant` members, freely mixed.
    attacks:
        Registered attack patterns swept alongside the workloads:
        :class:`~repro.attacks.AttackSpec` values or ``"name:k=v"``
        strings.  Each resolves to an
        :class:`~repro.attacks.AttackWorkload` appended after the
        ordinary workloads, so patterns run under every defense (and the
        baseline) exactly like workloads — same expansion order
        contract, same caching, same aggregation.  A sweep may be
        attacks-only (empty ``workloads``).
    overrides:
        PRAC parameter override sets; each dict is one grid axis value
        (``({},)`` — the default — runs the config as given).
    include_baseline:
        Also run the non-secure baseline once per workload (required to
        aggregate slowdowns).
    seed:
        Seed every expanded job carries explicitly.  Trace generation
        mixes in the workload name and core index, so distinct jobs never
        share a trace stream.
    engine:
        Simulation engine every job in the grid runs on — an
        :class:`~repro.sim.engines.EngineSpec`, a ``"name:k=v"`` string
        or ``None`` for the byte-identical ``event`` reference.  Joins
        every job's cache key, so grids swept under different engines
        never share rows.
    """

    workloads: tuple[WorkloadSpec, ...]
    defenses: tuple[DefenseSpec, ...]
    overrides: tuple[Overrides, ...] = ((),)
    config: SystemConfig = field(default_factory=default_config)
    include_baseline: bool = True
    n_entries: int = 20_000
    seed: int = 0
    engine: EngineSpec | str | None = DEFAULT_ENGINE_SPEC
    attacks: tuple[AttackSpec | str, ...] = ()

    def __post_init__(self) -> None:
        attack_workloads = tuple(
            attack_workload(attack) for attack in self.attacks
        )
        object.__setattr__(
            self, "attacks", tuple(w.attack for w in attack_workloads)
        )
        object.__setattr__(
            self,
            "workloads",
            tuple(
                w if isinstance(w, WorkloadSpec) else lookup_workload(w)
                for w in self.workloads
            ) + attack_workloads,
        )
        object.__setattr__(
            self,
            "defenses",
            tuple(resolve_defense(d) for d in self.defenses),
        )
        object.__setattr__(self, "engine", resolve_engine(self.engine))
        object.__setattr__(
            self,
            "overrides",
            tuple(_normalize_overrides(o) for o in self.overrides),
        )
        if not self.workloads:
            raise ConfigError(
                "a sweep needs at least one workload or attack pattern"
            )
        names = [w.name for w in self.workloads]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(
                f"duplicate workloads in sweep: {', '.join(dupes)}"
            )
        labels = [d.label for d in self.defenses]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ConfigError(
                f"duplicate defenses in sweep: {', '.join(dupes)}"
            )
        if self.include_baseline and any(d.is_baseline for d in self.defenses):
            raise ConfigError(
                "the baseline is already included via include_baseline=True; "
                "drop it from defenses (or pass include_baseline=False)"
            )
        if not self.defenses and not self.include_baseline:
            raise ConfigError("a sweep needs defenses or the baseline")
        if not self.overrides:
            raise ConfigError("overrides must contain at least one set "
                              "(use ({},) for none)")
        if self.n_entries < 1:
            raise ConfigError("n_entries must be >= 1")

    @property
    def workload_names(self) -> tuple[str, ...]:
        return tuple(w.name for w in self.workloads)

    @property
    def job_count(self) -> int:
        """``len(self.expand())``, from the grid's dimensions alone: per
        workload, one job per (override set, defense) plus one baseline."""
        per_workload = len(self.overrides) * len(self.defenses)
        return len(self.workloads) * (per_workload + self.include_baseline)

    def expand(self) -> list[Job]:
        """Materialise the grid, in stable (override, workload, defense)
        order with each workload's baseline first.

        Baselines are emitted once per workload, from the *un-overridden*
        config: overrides are restricted to PRAC parameters, which only
        shape the defense — a baseline (no-defense) run is identical
        under every set, so one simulation (and one cache key, shared by
        sweeps over different override grids) serves them all.
        """
        jobs: list[Job] = []
        for set_index, overrides in enumerate(self.overrides):
            base = self.config.with_prac(**dict(overrides))
            for workload in self.workloads:
                if self.include_baseline and set_index == 0:
                    jobs.append(Job(
                        workload=workload,
                        defense=BASELINE_SPEC,
                        overrides=(),
                        config=self.config,
                        n_entries=self.n_entries,
                        seed=self.seed,
                        engine=self.engine,
                    ))
                for defense in self.defenses:
                    variant = defense.variant
                    config = base.with_variant(variant) if variant else base
                    jobs.append(Job(
                        workload=workload,
                        defense=defense,
                        overrides=overrides,
                        config=config,
                        n_entries=self.n_entries,
                        seed=self.seed,
                        engine=self.engine,
                    ))
        return jobs

    @classmethod
    def build(
        cls,
        workloads: Sequence[str | WorkloadSpec],
        defenses: Iterable[DefenseSpec | MitigationVariant | str],
        overrides: Sequence[Mapping[str, object]] = ({},),
        **kwargs: object,
    ) -> "SweepSpec":
        """Convenience constructor accepting plain lists/dicts."""
        return cls(
            workloads=tuple(workloads),
            defenses=tuple(defenses),
            overrides=tuple(_normalize_overrides(o) for o in overrides),
            **kwargs,  # type: ignore[arg-type]
        )
