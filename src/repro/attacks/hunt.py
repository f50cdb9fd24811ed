"""Worst-pattern search: rank attack patterns against each defense.

``repro hunt`` expands a grid of registered attack patterns × defenses
(plus the non-secure baseline, for slowdowns), runs it through the
ordinary sweep machinery — content-addressed cache, pluggable backends,
telemetry — and ranks each defense's patterns by how hard they bite:

1. **alerts/tREFI** — how hard the pattern drives the ABO protocol
   (the paper's Figure 15 metric, and the attacker's lever on
   bandwidth);
2. **slowdown %** vs the baseline run of the same pattern — the
   performance damage the pattern extracts;
3. **PSQ high-water** — how deep the pattern pushes the priority queue
   (telemetry tier), the early-warning sign of queue-pressure attacks.

The ranking is deterministic: jobs are content-addressed (so re-runs
cache-hit), telemetry is recorded on execution and ``run_sweep`` carries
it forward from the sweep trace file onto cached outcomes, and ties
break on the pattern label.  The report (:meth:`HuntResult.to_dict`) is a plain
JSON-able dict suitable for CI artifacts.

Lives outside :mod:`repro.attacks`'s package exports because it imports
the experiment orchestration layer; import it directly::

    from repro.attacks.hunt import run_hunt
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.attacks.registry import resolve_attack
from repro.errors import ConfigError
from repro.exp.cache import ResultStore
from repro.exp.runner import SweepResult, run_sweep
from repro.exp.serialize import canonical_json
from repro.exp.spec import SweepSpec
from repro.params import SystemConfig

ProgressFn = Callable[[str], None]

#: The default hunt grid: one operating point per built-in family plus a
#: second decoy point, so the search exercises both the reads-per-tREFI
#: and the self-sync axes the fuzzer literature sweeps.
DEFAULT_PATTERNS = (
    "hammer:banks=8",
    "double-sided:pairs=2",
    "many-sided:sides=8",
    "decoy:reads_per_trefi=4",
    "decoy:reads_per_trefi=8,self_sync_cycles=2",
)


@dataclass(frozen=True)
class PatternScore:
    """One (defense, pattern) cell of the hunt: the ranking metrics."""

    pattern: str
    alerts_per_trefi: float
    slowdown_pct: float
    psq_high_water: int

    @property
    def sort_key(self):
        """Worst first: alerts, then slowdown, then PSQ depth; the
        pattern label breaks ties deterministically."""
        return (
            -self.alerts_per_trefi,
            -self.slowdown_pct,
            -self.psq_high_water,
            self.pattern,
        )

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "alerts_per_trefi": self.alerts_per_trefi,
            "slowdown_pct": self.slowdown_pct,
            "psq_high_water": self.psq_high_water,
        }


@dataclass
class HuntResult:
    """Per-defense pattern rankings plus the underlying sweep."""

    sweep: SweepResult
    #: ``{defense_label: [PatternScore, ...]}``, worst pattern first.
    rankings: dict[str, list[PatternScore]]

    def worst(self, defense_label: str) -> PatternScore:
        """The winning (worst) pattern against one defense."""
        try:
            return self.rankings[defense_label][0]
        except KeyError:
            known = ", ".join(sorted(self.rankings)) or "(none)"
            raise ConfigError(
                f"no hunt ranking for defense {defense_label!r}; "
                f"ranked defenses: {known}"
            ) from None

    def to_dict(self) -> dict:
        """The deterministic hunt report (the CI artifact payload)."""
        spec = self.sweep.spec
        return {
            "kind": "hunt_report",
            "patterns": sorted(
                w.name for w in spec.workloads
                if getattr(w, "attack", None) is not None
            ),
            "defenses": [d.label for d in spec.defenses],
            "engine": spec.engine.label,
            "n_entries": spec.n_entries,
            "seed": spec.seed,
            "rankings": {
                defense: [score.to_dict() for score in scores]
                for defense, scores in sorted(self.rankings.items())
            },
        }

    def digest(self) -> str:
        """Content digest of the report — byte-stable across backends,
        worker counts and cache states."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode()
        ).hexdigest()


def run_hunt(
    defenses: Sequence[str],
    patterns: Sequence[str] | None = None,
    config: SystemConfig | None = None,
    n_entries: int = 4_000,
    seed: int = 0,
    engine: str | None = None,
    store: ResultStore | None = None,
    backend: str = "auto",
    jobs: int = 1,
    progress: ProgressFn | None = None,
) -> HuntResult:
    """Sweep ``patterns`` × ``defenses`` and rank patterns per defense.

    ``patterns`` defaults to :data:`DEFAULT_PATTERNS`.  Every pattern is
    validated against the registry before any simulation runs.  The
    sweep always includes the baseline (slowdowns need it) and records
    telemetry (the PSQ column needs it); both enter the ordinary cache,
    so repeated hunts — and hunts overlapping earlier sweeps — replay
    from disk.
    """
    chosen = tuple(patterns) if patterns is not None else DEFAULT_PATTERNS
    if not chosen:
        raise ConfigError("a hunt needs at least one attack pattern")
    if not defenses:
        raise ConfigError("a hunt needs at least one defense")
    for pattern in chosen:
        resolve_attack(pattern)
    kwargs: dict = {"n_entries": n_entries, "seed": seed}
    if config is not None:
        kwargs["config"] = config
    if engine is not None:
        kwargs["engine"] = engine
    spec = SweepSpec.build(
        workloads=(),
        defenses=tuple(defenses),
        attacks=chosen,
        include_baseline=True,
        **kwargs,
    )
    sweep = run_sweep(
        spec,
        jobs=jobs,
        store=store,
        progress=progress,
        backend=backend,
        telemetry=True,
    )

    baselines = sweep.baselines()
    rankings: dict[str, list[PatternScore]] = {}
    for outcome in sweep.outcomes:
        job = outcome.job
        if job.defense.is_baseline:
            continue
        if getattr(job.workload, "attack", None) is None:
            continue
        latency = outcome.result.latency or {}
        score = PatternScore(
            pattern=job.workload.name,
            alerts_per_trefi=outcome.result.alerts_per_trefi,
            slowdown_pct=outcome.result.slowdown_pct_vs(
                baselines[job.workload.name]
            ),
            psq_high_water=int(latency.get("psq_high_water", 0)),
        )
        rankings.setdefault(job.defense.label, []).append(score)
    for scores in rankings.values():
        scores.sort(key=lambda score: score.sort_key)
    return HuntResult(sweep=sweep, rankings=rankings)
