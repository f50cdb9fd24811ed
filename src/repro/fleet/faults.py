"""Chaos injection for the fleet tier: every failure mode as a fixture.

A :class:`FleetFaultPlan` is a list of :class:`FleetFault` directives
the coordinator consults at well-defined seams — transport launch,
worker dispatch — and *consumes* (each fault fires a bounded number of
times), so a chaos run is deterministic: the same plan against the same
sweep injects the same failures at the same points, and the acceptance
bar stays byte-equivalence with ``serial``.

Fault kinds
-----------

``kill-worker``
    The worker process dies hard (``os._exit``) just before executing
    its ``after_jobs``-th job of the batch — results for earlier jobs
    are already flushed, later jobs are simply missing.
``truncate-result``
    The worker executes its ``after_jobs``-th job but flushes only half
    of the result row before dying — the parent must treat the torn row
    as missing, not crash on it.
``corrupt-result``
    The worker writes a garbage line in place of its ``after_jobs``-th
    result row and keeps going — a well-behaved reader skips the row
    and the job is retried.
``heartbeat``
    The worker's heartbeat channel fails: beats start only after
    ``delay_s`` (``delay_s=None`` suppresses them entirely).  The
    worker also holds before its first job for ``hold_s`` seconds,
    modelling a long-running job behind a dead heartbeat channel — the
    supervisor cannot tell the difference, which is the point: the
    lease must expire and the jobs must migrate.
``drop-host``
    The transport to the host fails at launch (connection refused /
    unreachable), before any worker runs.

Worker-side faults (everything but ``drop-host``) travel to the worker
process as a JSON directive in :data:`WORKER_FAULT_ENV`; the
coordinator decides *whether* a fault fires (consuming its budget
in-process), the worker only obeys.

Plans are written in a compact spec grammar, one fault per
``;``-separated clause (``repro sweep --faults`` / the service's
``faults`` field, parsed by :meth:`FleetFaultPlan.parse`)::

    kill-worker:after_jobs=1;drop-host:host=local@1,times=2
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.errors import ReproError

#: Environment variable carrying one worker-side fault directive (JSON),
#: injected per dispatch by the coordinator.
WORKER_FAULT_ENV = "REPRO_FLEET_FAULT"

#: Fault kinds executed inside the worker process.
WORKER_FAULT_KINDS = (
    "kill-worker", "truncate-result", "corrupt-result", "heartbeat",
)

#: Fault kinds executed in the coordinator (transport layer).
TRANSPORT_FAULT_KINDS = ("drop-host",)

FAULT_KINDS = WORKER_FAULT_KINDS + TRANSPORT_FAULT_KINDS


@dataclass(frozen=True)
class FleetFault:
    """One injectable failure; see the module docstring for kinds."""

    kind: str
    #: Coordinator host id the fault targets (``None`` = any host).
    host: str | None = None
    #: Worker-side trigger: fire on the batch's N-th job (0-based).
    after_jobs: int = 0
    #: ``heartbeat`` only: seconds before beats start (None = never).
    delay_s: float | None = None
    #: ``heartbeat`` only: seconds the worker holds before its first
    #: job (filled in by the coordinator from its lease policy when 0).
    hold_s: float = 0.0
    #: Dispatches this fault fires on before its budget is spent.
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ReproError(
                f"unknown fleet fault kind {self.kind!r}; known: {known}"
            )
        if self.times < 1:
            raise ReproError(f"fault times must be >= 1, got {self.times}")

    def directive(self, hold_s: float | None = None) -> str:
        """The JSON directive a worker process receives via
        :data:`WORKER_FAULT_ENV`."""
        return json.dumps({
            "kind": self.kind,
            "after_jobs": self.after_jobs,
            "delay_s": self.delay_s,
            "hold_s": hold_s if hold_s is not None else self.hold_s,
        }, sort_keys=True)


def _parse_clause(clause: str) -> FleetFault:
    kind, _, params = clause.partition(":")
    kwargs: dict = {}
    if params:
        for pair in params.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ReproError(
                    f"bad fault parameter {pair!r} in {clause!r} "
                    "(expected key=value)"
                )
            value = value.strip()
            if key == "host":
                kwargs["host"] = value
            elif key in ("after_jobs", "times"):
                kwargs[key] = _number(int, key, value, clause)
            elif key == "delay":
                kwargs["delay_s"] = (
                    None if value == "never"
                    else _number(float, key, value, clause)
                )
            elif key == "hold":
                kwargs["hold_s"] = _number(float, key, value, clause)
            else:
                raise ReproError(
                    f"unknown fault parameter {key!r} in {clause!r}"
                )
    return FleetFault(kind=kind.strip(), **kwargs)


def _number(kind: type, key: str, value: str, clause: str):
    """``kind(value)``, or a :class:`ReproError` naming the clause and
    the key (a bare ``ValueError`` would escape as a traceback)."""
    try:
        return kind(value)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ReproError(
            f"bad fault parameter {key}={value!r} in {clause!r} "
            f"(expected {expected})"
        ) from None


@dataclass
class FleetFaultPlan:
    """A consumable set of faults plus their remaining fire budgets."""

    faults: tuple[FleetFault, ...] = ()
    #: Remaining fires per fault position (mutable run state).
    _budget: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self._budget:
            self._budget = [fault.times for fault in self.faults]

    @classmethod
    def parse(cls, text: str | None) -> "FleetFaultPlan":
        """Build a plan from the compact ``;``-separated spec grammar."""
        if not text or not text.strip():
            return cls()
        return cls(faults=tuple(
            _parse_clause(clause)
            for clause in text.split(";") if clause.strip()
        ))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def fire(self, kinds: tuple[str, ...], host: str) -> FleetFault | None:
        """Consume and return the first armed fault matching ``kinds``
        on ``host``, or ``None``.  At most one fault fires per call, so
        a dispatch never suffers two injected failures at once."""
        for position, fault in enumerate(self.faults):
            if fault.kind not in kinds:
                continue
            if fault.host is not None and fault.host != host:
                continue
            if self._budget[position] <= 0:
                continue
            self._budget[position] -= 1
            return fault
        return None

    def fired(self) -> dict[str, int]:
        """Fires consumed so far, by kind (chaos-test observability)."""
        spent: dict[str, int] = {}
        for position, fault in enumerate(self.faults):
            used = fault.times - self._budget[position]
            if used:
                spent[fault.kind] = spent.get(fault.kind, 0) + used
        return spent


@dataclass(frozen=True)
class WorkerFault:
    """The worker-process side of a fault directive (decoded env JSON)."""

    kind: str
    after_jobs: int = 0
    delay_s: float | None = None
    hold_s: float = 0.0

    @classmethod
    def from_env(cls) -> "WorkerFault | None":
        raw = os.environ.get(WORKER_FAULT_ENV)
        if not raw:
            return None
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"bad {WORKER_FAULT_ENV} directive: {exc}"
            ) from exc
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ReproError(
                f"bad {WORKER_FAULT_ENV} directive: expected a JSON "
                "object with a 'kind'"
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})
