"""Retry/backoff and heartbeat-lease policy for the fleet tier.

The ``remote-fleet`` coordinator makes three decisions about a worker:
*how often* it proves it is alive (:class:`LeasePolicy`), *how many
times* a lost task may be re-dispatched, and *how long* to wait before
each re-dispatch (:class:`RetryPolicy`).  The defaults below are the one
place those semantics are defined; tests pass tighter instances.

Backoff is deterministic by construction: the delay before attempt *n*
is ``backoff_base_s * 2**(n-1)`` (capped), plus a jitter slice derived
from a SHA-256 over the task's sweep position and the attempt number —
never from a random source.  Two runs of the same sweep therefore retry
in the same order with the same spacing, which keeps chaos tests
reproducible and makes "the sweep digest matches serial under every
injected fault" a meaningful assertion.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ReproError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_retries`` counts *re*-dispatches: a task may run at most
    ``max_retries + 1`` times before the sweep gives up.  ``jitter_frac``
    spreads retries of different tasks apart (avoiding a thundering herd
    onto a recovering host) without sacrificing reproducibility: the
    jitter is keyed off the task's sweep position, not a clock or RNG.
    """

    #: Re-dispatches allowed per task after its first attempt.
    max_retries: int = 2
    #: Delay before the first retry; doubles per subsequent attempt.
    backoff_base_s: float = 0.05
    #: Ceiling on any single backoff delay.
    backoff_cap_s: float = 2.0
    #: Fraction of the delay added as key-derived jitter (0 disables).
    jitter_frac: float = 0.25
    #: Consecutive failures before a host is quarantined.
    quarantine_after: int = 2
    #: Seconds a quarantined host sits out before a re-probe.
    cooldown_s: float = 5.0
    #: Quarantines a host may serve; one more and it is down for the run.
    max_quarantines: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.quarantine_after < 1:
            raise ReproError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )

    def attempts_exhausted(self, retries: int) -> bool:
        """True once a task has been re-dispatched ``max_retries`` times."""
        return retries > self.max_retries

    def backoff_s(self, attempt: int, key: str = "") -> float:
        """Deterministic delay before retry ``attempt`` (1-based).

        ``key`` is the task's stable identity (``task:<index>``, its
        sweep position); the jitter slice is a pure function of ``(key,
        attempt)``, so repeated runs back off identically.
        """
        if attempt < 1:
            return 0.0
        delay = min(
            self.backoff_base_s * (2.0 ** (attempt - 1)),
            self.backoff_cap_s,
        )
        if self.jitter_frac <= 0.0:
            return delay
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return delay * (1.0 + self.jitter_frac * unit)


@dataclass(frozen=True)
class LeasePolicy:
    """Heartbeat lease a supervised worker must keep renewing.

    The supervisor declares a worker lost when it goes
    ``lease_timeout_s`` without renewing (a heartbeat, or visible task
    progress).  ``startup_grace_s`` covers the window before the first
    heartbeat — interpreter start-up and imports — during which silence
    is normal.  ``job_deadline_s`` bounds a *single job*: a worker that
    heartbeats forever but never finishes its job is livelocked, and the
    deadline converts that into a recoverable kill-and-migrate event.
    """

    #: How often a healthy worker renews its lease.
    heartbeat_s: float = 0.5
    #: Silence longer than this (after the first renewal) loses the lease.
    lease_timeout_s: float = 300.0
    #: Allowed silence before the first heartbeat (process start-up).
    startup_grace_s: float = 60.0
    #: Max seconds without a finished job before the dispatch is killed;
    #: ``None`` disables the per-job deadline.
    job_deadline_s: float | None = 900.0

    def __post_init__(self) -> None:
        if self.heartbeat_s <= 0:
            raise ReproError(
                f"heartbeat_s must be > 0, got {self.heartbeat_s}"
            )
        if self.lease_timeout_s <= self.heartbeat_s:
            raise ReproError(
                "lease_timeout_s must exceed heartbeat_s "
                f"({self.lease_timeout_s} <= {self.heartbeat_s})"
            )


#: The one place the platform's retry semantics are defined.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: The one place the platform's heartbeat/lease constants are defined.
DEFAULT_LEASE_POLICY = LeasePolicy()
