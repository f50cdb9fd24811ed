"""Experiment orchestration: declarative sweeps, parallel execution,
content-addressed result caching.

The layer between the simulator core and every consumer that runs more
than one simulation.  Grids are workloads × defenses × PRAC overrides,
where a defense is anything the registry knows — QPRAC variants, MOAT,
PrIDE, Mithril, or an externally registered plugin — named by a
:class:`~repro.defenses.DefenseSpec` (strings like
``"moat:proactive_every_n_refs=4"`` work anywhere a spec does)::

    from repro.exp import ResultStore, SweepSpec, run_sweep

    spec = SweepSpec.build(
        ["429.mcf", "470.lbm"],
        ["qprac", "moat", "mithril:t_rh=256"],
        n_entries=5000,
    )
    sweep = run_sweep(spec, jobs=4, store=ResultStore("/tmp/cache"))
    table = sweep.comparison()          # VariantComparison, as before
    print(sweep.cache_hits, sweep.executed)

Every job is content addressed by its serialized defense spec, workload,
configuration and code-version salt, so re-running any grid — mixed
defenses included — is a cache replay, byte-identical at any ``jobs``
count.

Execution is pluggable: ``run_sweep(..., backend="pool")`` (or
``serial``, or ``remote-fleet`` with ``hosts=[...]``) routes the
uncached remainder through the backend registry in
:mod:`repro.exp.backend`; every backend aggregates byte-identically.
"""

from repro.exp.aggregate import comparison_from_sweep, mean_slowdown_by_override
from repro.exp.backend import (
    SweepBackend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.exp.attack import (
    AttackJob,
    attack_job,
    execute_attack_job,
    run_attack_jobs,
)
from repro.exp.cache import (
    CACHE_DIR_ENV,
    ResultStore,
    StoreInfo,
    default_cache_dir,
    gc_spool,
    spool_usage,
)
from repro.exp.runner import (
    JobOutcome,
    SweepResult,
    execute_job,
    run_sweep,
    stderr_progress,
    sweep_digest,
)
from repro.exp.serialize import (
    SCHEMA_VERSION,
    canonical_json,
    code_version_salt,
    result_from_dict,
    result_to_dict,
)
from repro.exp.spec import BASELINE, Job, SweepSpec, overrides_label

__all__ = [
    "AttackJob",
    "BASELINE",
    "CACHE_DIR_ENV",
    "Job",
    "attack_job",
    "execute_attack_job",
    "run_attack_jobs",
    "JobOutcome",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoreInfo",
    "SweepBackend",
    "SweepResult",
    "SweepSpec",
    "canonical_json",
    "code_version_salt",
    "comparison_from_sweep",
    "default_cache_dir",
    "execute_job",
    "gc_spool",
    "mean_slowdown_by_override",
    "overrides_label",
    "spool_usage",
    "sweep_digest",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "result_from_dict",
    "result_to_dict",
    "run_sweep",
    "stderr_progress",
]
