"""Fault-tolerant fleet execution tier.

The package splits into leaf modules safe to import from anywhere —
:mod:`repro.fleet.policy` (shared retry/lease dataclasses) and
:mod:`repro.fleet.faults` (the chaos-injection grammar) — and the
heavier :mod:`repro.fleet.coordinator`, which registers the
``remote-fleet`` backend and is imported lazily by the backend
registry to keep ``repro.exp.backend`` ↔ ``repro.fleet`` acyclic.
"""

from repro.fleet.faults import (
    WORKER_FAULT_ENV,
    FleetFault,
    FleetFaultPlan,
    WorkerFault,
)
from repro.fleet.policy import (
    DEFAULT_LEASE_POLICY,
    DEFAULT_RETRY_POLICY,
    LeasePolicy,
    RetryPolicy,
)

__all__ = [
    "WORKER_FAULT_ENV",
    "FleetFault",
    "FleetFaultPlan",
    "WorkerFault",
    "DEFAULT_LEASE_POLICY",
    "DEFAULT_RETRY_POLICY",
    "LeasePolicy",
    "RetryPolicy",
]
