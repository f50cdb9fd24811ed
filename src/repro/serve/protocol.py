"""Wire format of the sweep service: one JSON request grammar shared
with the CLI.

A submission is a JSON object with two kinds of fields.  *Grid* fields
(workloads, defenses, attacks, entries, nbo, n_mit, seed, engine) name
the sweep itself — they build the :class:`~repro.exp.spec.SweepSpec`
and therefore the sweep's content identity
(:func:`~repro.obs.sweep_id_for`).  *Run* fields (backend, jobs, hosts,
trace, faults) only say how to execute it; two submissions that differ
only in run fields are the same sweep and coalesce onto one record.

:func:`build_spec` is the single spec constructor used by both ``repro
sweep``/``repro submit`` and the HTTP service, so a spec submitted over
HTTP is identical *by construction* to the one the CLI would run — and
so are its cache keys, its sweep id, and its aggregate digest.  Every
default below (5000 entries, N_BO=32, PRAC-1, seed 0, the ``event``
engine, the paper's five QPRAC variants) is the CLI default for the
same field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

from repro.errors import ReproError


def build_spec(
    workloads: Sequence[str],
    defenses: Sequence[str] | None = None,
    attacks: Sequence[str] | None = None,
    entries: int = 5000,
    nbo: int = 32,
    n_mit: int = 1,
    seed: int = 0,
    engine: str = "event",
):
    """The one ``SweepSpec`` constructor behind CLI and service.

    ``defenses=None`` selects the paper's evaluated QPRAC variants,
    exactly like omitting ``--defenses`` on the command line.
    """
    from repro.defenses import resolve_defense
    from repro.exp import SweepSpec
    from repro.params import default_config
    from repro.sim import EVALUATED_VARIANTS

    if not workloads and not attacks:
        raise ReproError("a sweep needs workloads and/or --attacks patterns")
    config = default_config().with_prac(n_bo=nbo, n_mit=n_mit, abo_delay=None)
    if defenses:
        resolved = tuple(resolve_defense(d) for d in defenses)
    else:
        resolved = tuple(resolve_defense(v) for v in EVALUATED_VARIANTS)
    return SweepSpec(
        workloads=tuple(workloads),
        defenses=resolved,
        config=config,
        n_entries=entries,
        seed=seed,
        engine=engine,
        attacks=tuple(attacks or ()),
    )


@dataclass(frozen=True)
class SweepRequest:
    """One parsed submission: grid fields plus run options.

    Frozen so a record can hold it safely across worker threads.  Its
    spec is built once (:meth:`spec`), so validation, the service's
    dedup and job count, and the worker that runs it share one object.
    """

    workloads: tuple[str, ...] = ()
    defenses: tuple[str, ...] | None = None
    attacks: tuple[str, ...] | None = None
    entries: int = 5000
    nbo: int = 32
    n_mit: int = 1
    seed: int = 0
    engine: str = "event"
    # Run options — not part of the sweep's identity.
    backend: str = "serial"
    jobs: int = 1
    hosts: tuple[str, ...] | None = None
    trace: bool = False
    faults: str | None = None

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SweepRequest":
        """Parse and validate a JSON submission body.

        Raises :class:`~repro.errors.ReproError` on unknown fields or
        values the sweep machinery would reject — the service maps that
        to HTTP 400, before anything is queued.
        """
        if not isinstance(payload, Mapping):
            raise ReproError("submission body must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ReproError(
                f"unknown submission field(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )

        def _strings(key) -> tuple[str, ...] | None:
            value = payload.get(key)
            if value is None:
                return None
            if isinstance(value, str) or not isinstance(value, Sequence):
                raise ReproError(f"{key!r} must be a list of strings")
            return tuple(str(v) for v in value)

        def _int(key, default) -> int:
            value = payload.get(key, default)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ReproError(f"{key!r} must be an integer")
            return value

        def _bool(key) -> bool:
            value = payload.get(key, False)
            if not isinstance(value, bool):
                raise ReproError(f"{key!r} must be true or false")
            return value

        request = cls(
            workloads=_strings("workloads") or (),
            defenses=_strings("defenses"),
            attacks=_strings("attacks"),
            entries=_int("entries", 5000),
            nbo=_int("nbo", 32),
            n_mit=_int("n_mit", 1),
            seed=_int("seed", 0),
            engine=str(payload.get("engine", "event")),
            backend=str(payload.get("backend", "serial")),
            jobs=_int("jobs", 1),
            hosts=_strings("hosts"),
            trace=_bool("trace"),
            faults=(
                None if payload.get("faults") is None
                else str(payload["faults"])
            ),
        )
        request.validate()
        return request

    def validate(self) -> None:
        """Fail fast on anything run_sweep would reject later."""
        if self.jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {self.jobs}")
        if self.n_mit not in (1, 2, 4):
            raise ReproError(f"n_mit must be 1, 2 or 4, got {self.n_mit}")
        if self.backend != "auto":
            from repro.exp.backend import backend_class

            backend_class(self.backend)  # unknown name -> 400, not queued
        if self.faults is not None:
            if self.backend != "remote-fleet":
                raise ReproError(
                    "fault injection needs backend 'remote-fleet', "
                    f"got {self.backend!r}"
                )
            from repro.fleet.faults import FleetFaultPlan

            FleetFaultPlan.parse(self.faults)
        self.spec()  # workloads/defenses/attacks/engine resolve or raise

    def spec(self):
        """The sweep this request names (identity lives here), built on
        the first call and returned as the same object after it."""
        spec = self.__dict__.get("_spec")
        if spec is None:
            spec = build_spec(
                self.workloads,
                defenses=self.defenses,
                attacks=self.attacks,
                entries=self.entries,
                nbo=self.nbo,
                n_mit=self.n_mit,
                seed=self.seed,
                engine=self.engine,
            )
            object.__setattr__(self, "_spec", spec)  # frozen: not a field
        return spec

    def to_payload(self) -> dict:
        """JSON-able round-trip form (echoed back in status payloads)."""
        payload: dict = {
            "workloads": list(self.workloads),
            "entries": self.entries,
            "nbo": self.nbo,
            "n_mit": self.n_mit,
            "seed": self.seed,
            "engine": self.engine,
            "backend": self.backend,
            "jobs": self.jobs,
            "trace": self.trace,
        }
        if self.defenses is not None:
            payload["defenses"] = list(self.defenses)
        if self.attacks is not None:
            payload["attacks"] = list(self.attacks)
        if self.hosts is not None:
            payload["hosts"] = list(self.hosts)
        if self.faults is not None:
            payload["faults"] = self.faults
        return payload
