"""Cached bandwidth-attack jobs: the orchestrator for Figure 19 sims.

The performance-attack simulations
(:func:`repro.sim.bandwidth.run_bandwidth_attack`) are not workload
sweeps — there is no trace, no cores, no ``SystemResult`` — but they are
exactly as cacheable: a run is fully determined by the defense, the
configuration and the attack parameters.  This module gives them the
same treatment :class:`~repro.exp.spec.Job` gives workload simulations:
a frozen, picklable job record with a content-addressed cache key
(code-version salted), executed through the shared
:class:`~repro.exp.cache.ResultStore`.

Closing the ROADMAP item: with this, every simulated figure —
14/15/16/17/18/20/21/22 via ``SweepSpec`` and 19 via ``AttackJob`` —
replays from one content-addressed cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.attacks import AttackSpec, bandwidth_targets, resolve_attack
from repro.defenses import DefenseSpec, resolve_defense
from repro.errors import ReproError
from repro.exp.cache import ResultStore
from repro.exp.runner import run_batch
from repro.exp.serialize import (
    SCHEMA_VERSION,
    KeyFragments,
    code_version_salt,
    content_key,
)
from repro.params import MitigationVariant, SystemConfig, default_config
from repro.sim.bandwidth import BandwidthResult, run_bandwidth_attack
from repro.sim.engines import DEFAULT_ENGINE_SPEC, EngineSpec, resolve_engine

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class AttackJob:
    """One fully-specified bandwidth-attack simulation.

    ``engine`` joins the cache key like workload jobs' — today only the
    ``event`` reference can execute bandwidth attacks (the attacker
    drives the controller's Alert protocol cycle-by-cycle, which the
    batched engine does not model), and :func:`execute_attack_job`
    rejects anything else with a clear error rather than silently
    falling back.
    """

    defense: DefenseSpec
    config: SystemConfig
    measure_ns: float = 400_000.0
    warmup_ns: float | None = None
    pool_rows_per_bank: int = 24
    attack_ranks: int = 1
    engine: EngineSpec = DEFAULT_ENGINE_SPEC
    #: Registered attack pattern supplying the per-bank row schedule
    #: (``None`` keeps the classic strided pool attacker).
    attack: AttackSpec | None = None

    @property
    def pattern_label(self) -> str:
        """The attack side of the job: the registered pattern's label,
        or the classic pool attacker's parameters."""
        if self.attack is not None:
            return self.attack.label
        return (
            f"pool:ranks={self.attack_ranks},"
            f"rows={self.pool_rows_per_bank}"
        )

    @property
    def label(self) -> str:
        """Progress/report label naming *both* sides of the run — two
        jobs differing only in attack parameters must render apart."""
        return f"attack[{self.pattern_label}]/{self.defense.label}"

    def cache_key(self, fragments: KeyFragments | None = None) -> str:
        """Content address (same contract as :meth:`Job.cache_key`)."""
        identity = {
            "kind": "bandwidth_attack",
            "schema": SCHEMA_VERSION,
            "code": code_version_salt(),
            "defense": self.defense,
            "config": self.config,
            "measure_ns": self.measure_ns,
            "warmup_ns": self.warmup_ns,
            "pool_rows_per_bank": self.pool_rows_per_bank,
            "attack_ranks": self.attack_ranks,
            "engine": self.engine,
        }
        if self.attack is not None:
            identity["attack"] = self.attack
        return content_key(identity, fragments)


def attack_job(
    defense: DefenseSpec | MitigationVariant | str,
    config: SystemConfig | None = None,
    engine: EngineSpec | str | None = None,
    attack: "AttackSpec | str | None" = None,
    **params,
) -> AttackJob:
    """Build an :class:`AttackJob` for a validated defense, running
    ``config`` as given (``None``: :func:`~repro.params.default_config`).

    ``attack`` optionally names a registered pattern (validated here, so
    a typo dies before any simulation) whose row schedule replaces the
    classic strided pool.
    """
    return AttackJob(
        defense=resolve_defense(defense),
        config=config or default_config(),
        engine=resolve_engine(engine),
        attack=resolve_attack(attack) if attack is not None else None,
        **params,
    )


def execute_attack_job(job: AttackJob) -> dict:
    """Run one attack simulation; returns the serialized payload."""
    if not job.engine.is_reference:
        raise ReproError(
            f"bandwidth attacks require the event reference engine; "
            f"{job.engine.label!r} does not model the attacker's "
            "cycle-level Alert interplay"
        )
    targets = None
    if job.attack is not None:
        targets = bandwidth_targets(
            job.attack, job.config.org, attack_ranks=job.attack_ranks
        )
    result = run_bandwidth_attack(
        job.config,
        defense=job.defense,
        measure_ns=job.measure_ns,
        warmup_ns=job.warmup_ns,
        pool_rows_per_bank=job.pool_rows_per_bank,
        attack_ranks=job.attack_ranks,
        targets=targets,
    )
    return {
        "acts": result.acts,
        "alerts": result.alerts,
        "duration_ns": result.duration_ns,
    }


def _result_from_payload(payload: dict) -> BandwidthResult:
    return BandwidthResult(
        acts=payload["acts"],
        alerts=payload["alerts"],
        duration_ns=payload["duration_ns"],
    )


def run_attack_jobs(
    jobs: Sequence[AttackJob],
    store: ResultStore | None = None,
    progress: ProgressFn | None = None,
    backend: str = "auto",
    workers: int = 1,
    hosts: Sequence[str] | None = None,
) -> list[BandwidthResult]:
    """Execute attack jobs, reusing cached results where available.

    Results come back in job order.  The jobs run through
    :func:`~repro.exp.runner.run_batch`, the loop workload sweeps use:
    every fresh simulation is persisted to ``store`` (salt-tagged) the
    moment it finishes, so interrupted figure runs resume, and the
    uncached remainder runs on any registered
    :class:`~repro.exp.backend.SweepBackend` (``backend`` +
    ``workers``/``hosts``).  Payloads are reassembled positionally, so
    every backend aggregates byte-identically.
    """
    def report(completed: int, index: int, cached: bool) -> None:
        if progress is not None:
            source = "cached" if cached else "simulated"
            progress(f"[{completed}/{len(jobs)}] {jobs[index].label} {source}")

    batch = run_batch(jobs, execute_attack_job, store, backend, workers,
                      hosts, report)
    return [_result_from_payload(payload) for payload in batch.payloads]
