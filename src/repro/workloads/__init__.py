"""Workloads: the 57-application synthetic suite and attack traffic."""

from repro.workloads.attacks import hammer_trace
from repro.workloads.suites import (
    ALL_WORKLOADS,
    REPRESENTATIVE_WORKLOADS,
    memory_intensive_workloads,
    suites,
    workload,
    workloads_by_suite,
)
from repro.workloads.synthetic import (
    MEMORY_INTENSIVE_RBMPKI,
    WorkloadSpec,
    generate_trace,
)

__all__ = [
    "ALL_WORKLOADS",
    "REPRESENTATIVE_WORKLOADS",
    "MEMORY_INTENSIVE_RBMPKI",
    "WorkloadSpec",
    "generate_trace",
    "hammer_trace",
    "memory_intensive_workloads",
    "suites",
    "workload",
    "workloads_by_suite",
]
