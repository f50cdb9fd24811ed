"""Experiment façade: one-call simulation of a workload under a defense.

This is the API the benchmarks and examples use::

    from repro.sim import simulate_workload

    result = simulate_workload("429.mcf")              # qprac+proactive-ea
    result = simulate_workload("429.mcf", defense="baseline")
    result = simulate_workload("429.mcf", defense="moat:proactive_every_n_refs=4")

``defense=`` is the one way to name a defense: a
:class:`~repro.defenses.DefenseSpec`, its ``"name:key=value"`` string or
a :class:`~repro.params.MitigationVariant`, resolved against the defense
registry; ``None`` runs :data:`DEFAULT_DEFENSE`.  Every run simulates
the configuration it is given.  Results carry the resolved spec's
label, so distinct defenses are never conflated in tables or cache
rows; designs outside the built-ins plug in through
:func:`~repro.defenses.register_defense`.  Sweeps over many workloads
and defenses go through :func:`repro.exp.run_sweep`.

Execution is equally pluggable: ``engine=`` selects a registered
:class:`~repro.sim.engines.SimEngine` by
:class:`~repro.sim.engines.EngineSpec` (``"event"`` — the byte-identical
reference — by default; ``"epoch"`` for the batched tier).  Every run
builds four homogeneous copies of the named workload (the paper's
methodology) with per-core seeds, executes them to completion on the
selected engine, and reports a :class:`~repro.cpu.system.SystemResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.system import MulticoreSystem, SystemResult
from repro.defenses import DefenseSpec, resolve_defense
from repro.errors import ConfigError
from repro.params import MitigationVariant, SystemConfig, default_config
from repro.sim.engines import EngineSpec, build_event_system, resolve_engine
from repro.workloads.suites import workload as lookup_workload
from repro.workloads.synthetic import WorkloadSpec

#: Trace length (memory accesses per core) used when none is requested.
#: Long enough to span dozens of tREFI intervals at memory-intensive rates.
DEFAULT_ENTRIES = 20_000

#: The five evaluated designs of Section V, in the paper's order.
EVALUATED_VARIANTS: tuple[MitigationVariant, ...] = (
    MitigationVariant.QPRAC_NOOP,
    MitigationVariant.QPRAC,
    MitigationVariant.QPRAC_PROACTIVE,
    MitigationVariant.QPRAC_PROACTIVE_EA,
    MitigationVariant.QPRAC_IDEAL,
)


def _resolve_spec(workload: str | WorkloadSpec) -> WorkloadSpec:
    if isinstance(workload, WorkloadSpec):
        return workload
    return lookup_workload(workload)


def _resolve_workload_or_attack(workload, attack) -> WorkloadSpec:
    """Exactly one of ``workload``/``attack`` selects the trace source.

    ``attack`` resolves through the attack registry to an
    :class:`~repro.attacks.AttackWorkload`, which the engines execute
    through the ordinary workload path.
    """
    if (workload is None) == (attack is None):
        raise ConfigError("pass exactly one of workload= or attack=")
    if attack is not None:
        from repro.attacks import attack_workload

        return attack_workload(attack)
    return _resolve_spec(workload)


#: What ``defense=None`` runs: the paper's default design, QPRAC with
#: energy-aware proactive mitigation.
DEFAULT_DEFENSE = DefenseSpec(MitigationVariant.QPRAC_PROACTIVE_EA.value)

#: Anything ``defense=`` accepts (``None``: :data:`DEFAULT_DEFENSE`).
Defense = DefenseSpec | MitigationVariant | str | None


def build_system(
    workload: str | WorkloadSpec,
    config: SystemConfig | None = None,
    defense: Defense = None,
    n_entries: int = DEFAULT_ENTRIES,
    seed: int = 0,
    telemetry=None,
) -> MulticoreSystem:
    """Construct (but do not run) a four-copy homogeneous event system.

    This is inherently an ``event``-engine helper — the handle it
    returns *is* the event-driven system; batched engines have no
    equivalent object.  Kept public for the bench harness and tests.
    """
    spec = resolve_defense(DEFAULT_DEFENSE if defense is None else defense)
    return build_event_system(
        _resolve_spec(workload), config or default_config(), spec.factory(),
        n_entries, seed, telemetry=telemetry,
    )


def simulate_workload(
    workload: str | WorkloadSpec | None = None,
    config: SystemConfig | None = None,
    defense: Defense = None,
    n_entries: int = DEFAULT_ENTRIES,
    seed: int = 0,
    engine: EngineSpec | str | None = None,
    telemetry=None,
    attack=None,
) -> SystemResult:
    """Simulate one workload — or one attack pattern — under one defense.

    ``defense`` selects any registered defense — a
    :class:`~repro.defenses.DefenseSpec`, a ``"name:key=value"`` string,
    or a :class:`MitigationVariant`; ``None`` runs
    :data:`DEFAULT_DEFENSE`.  The result is labeled with the spec's
    label.

    ``attack`` names a registered attack pattern (an
    :class:`~repro.attacks.AttackSpec` or ``"name:k=v"`` string) to run
    *instead of* a workload: the pattern's deterministic trace flows
    through the selected engine exactly like a workload trace.  Exactly
    one of ``workload``/``attack`` must be given.

    ``engine`` selects the simulation engine by
    :class:`~repro.sim.engines.EngineSpec` (or its string form); ``None``
    runs the byte-identical ``event`` reference.

    ``telemetry`` attaches a :class:`~repro.obs.Telemetry` recorder to
    the run (see :mod:`repro.obs`); results are byte-identical with or
    without one.
    """
    spec = resolve_defense(DEFAULT_DEFENSE if defense is None else defense)
    sim = resolve_engine(engine).build()
    return sim.simulate(
        _resolve_workload_or_attack(workload, attack),
        config or default_config(),
        spec.factory(),
        n_entries=n_entries,
        seed=seed,
        variant_name=spec.label,
        telemetry=telemetry,
    )


@dataclass
class VariantComparison:
    """Per-workload slowdowns of each defense against the shared baseline.

    Keys of ``results`` are defense labels
    (:attr:`~repro.defenses.DefenseSpec.label`): QPRAC variants keep
    their historical names (``"qprac"``, ``"qprac+proactive"``, ...) and
    parameterized defenses read like ``"mithril:t_rh=256"``.
    """

    workloads: list[str]
    baseline: dict[str, SystemResult]
    results: dict[str, dict[str, SystemResult]] = field(default_factory=dict)

    def slowdown_pct(self, variant: str, workload: str) -> float:
        return self.results[variant][workload].slowdown_pct_vs(
            self.baseline[workload]
        )

    def mean_slowdown_pct(self, variant: str) -> float:
        values = [
            self.slowdown_pct(variant, w) for w in self.workloads
        ]
        return sum(values) / len(values) if values else 0.0

    def mean_alerts_per_trefi(self, variant: str) -> float:
        values = [
            self.results[variant][w].alerts_per_trefi for w in self.workloads
        ]
        return sum(values) / len(values) if values else 0.0
