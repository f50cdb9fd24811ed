"""Simulator performance benchmark harness (``python -m repro bench``).

The QPRAC reproduction regenerates every paper figure by replaying
millions of nanosecond-granularity events through
:class:`repro.engine.EventQueue`; the experiment orchestrator multiplies
that cost across sweep grids.  This module is the *proof layer* for the
simulator's throughput: it runs a fixed set of workload x defense cells,
reports events/second and wall time, persists the measurement as a
``BENCH_<timestamp>.json`` trajectory point, and compares against the
previous point with a regression threshold.

Usage::

    python -m repro bench                 # full cells, 5 repeats, writes JSON
    python -m repro bench --quick         # small cells, 1 repeat (CI smoke)
    python -m repro bench --no-write      # measure + compare only

Profiling a cell is one command away (the harness is deliberately
``cProfile``-friendly: no subprocesses, no threads)::

    python -m cProfile -s cumulative -m repro bench --quick --repeats 1

Trajectory format (``BENCH_*.json``, schema 1):

``meta``
    timestamp, quick flag, repeats, and a host fingerprint
    (python/platform) — wall-clock numbers are only comparable between
    runs on the same machine.
``cells``
    one record per workload x defense cell: ``n_entries``, best
    ``wall_s`` over the repeats, simulator ``events`` processed,
    ``events_per_s`` and the simulated ``sim_time_ns``.
``reference``
    the headline cell (``429.mcf x qprac``) echoed for quick reading.

Cells are measured end to end — trace generation, system construction
and the event loop — exactly what ``simulate_workload`` costs a sweep.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError

#: Trajectory file schema; bump on layout changes.  Schema 2 added the
#: per-cell ``latency`` block (request-latency percentiles measured in
#: an untimed telemetry pass); schema-1 reports still load.
BENCH_SCHEMA = 2

#: File-name prefix of trajectory points (sorted lexically = sorted by time).
BENCH_PREFIX = "BENCH_"

#: The standard workload x defense cells measured by every bench run.
DEFAULT_CELLS: tuple[tuple[str, str], ...] = (
    ("429.mcf", "qprac"),
    ("429.mcf", "baseline"),
    ("470.lbm", "qprac+proactive"),
    ("ycsb-a", "moat"),
)

#: The headline cell: the reference for speedup/regression summaries.
REFERENCE_CELL: tuple[str, str] = ("429.mcf", "qprac")

#: Entries per core: full runs match ``simulate_workload``'s default.
DEFAULT_ENTRIES = 20_000
QUICK_ENTRIES = 4_000

#: Regression gate: a cell slower than the previous trajectory point by
#: more than this fraction fails the comparison.
DEFAULT_REGRESSION_THRESHOLD_PCT = 20.0


@dataclass
class CellResult:
    """Measurement of one workload x defense cell.

    ``events`` counts the executing engine's *work units* — simulator
    events for the ``event`` engine, consumed trace accesses for
    ``epoch`` — so ``events_per_s`` is only comparable between cells of
    the same engine.  Cross-engine comparisons use wall time.
    """

    workload: str
    defense: str
    n_entries: int
    wall_s: float
    events: int
    events_per_s: float
    sim_time_ns: float
    repeats: int
    engine: str = "event"
    #: Request-latency summary (p50/p95/p99, histogram, blackouts) from
    #: a separate *untimed* telemetry pass — the timed repeats always run
    #: with telemetry off so ``wall_s`` stays gate-comparable.
    latency: dict | None = None

    @property
    def key(self) -> str:
        return f"{self.workload}/{self.defense}"

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "defense": self.defense,
            "n_entries": self.n_entries,
            "wall_s": self.wall_s,
            "events": self.events,
            "events_per_s": self.events_per_s,
            "sim_time_ns": self.sim_time_ns,
            "repeats": self.repeats,
            "engine": self.engine,
            "latency": self.latency,
        }


@dataclass
class BenchReport:
    """One trajectory point: all cells of one bench run."""

    cells: list[CellResult]
    quick: bool
    repeats: int
    timestamp: str
    host: dict = field(default_factory=dict)
    #: Engine the cells ran on (one engine per trajectory point).
    engine: str = "event"
    #: When ``engine`` is not the reference: the reference cell measured
    #: under the ``event`` engine in the same run, for an honest
    #: same-host speedup (``speedup_vs_event`` in the JSON).
    reference_event: CellResult | None = None

    def cell(self, workload: str, defense: str) -> CellResult | None:
        for cell in self.cells:
            if cell.workload == workload and cell.defense == defense:
                return cell
        return None

    @property
    def reference(self) -> CellResult | None:
        return self.cell(*REFERENCE_CELL)

    @property
    def speedup_vs_event(self) -> float | None:
        """Reference-cell wall-clock speedup of this engine over event."""
        reference = self.reference
        if reference is None or self.reference_event is None \
                or reference.wall_s <= 0:
            return None
        return self.reference_event.wall_s / reference.wall_s

    def to_dict(self) -> dict:
        reference = self.reference
        payload = {
            "schema": BENCH_SCHEMA,
            "meta": {
                "timestamp": self.timestamp,
                "quick": self.quick,
                "repeats": self.repeats,
                "host": self.host,
                "engine": self.engine,
            },
            "cells": [cell.to_dict() for cell in self.cells],
            "reference": reference.to_dict() if reference else None,
        }
        if self.reference_event is not None:
            payload["reference_event"] = self.reference_event.to_dict()
            payload["speedup_vs_event"] = self.speedup_vs_event
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchReport":
        meta = payload.get("meta", {})

        def cell_from(c: dict) -> CellResult:
            return CellResult(
                workload=c["workload"],
                defense=c["defense"],
                n_entries=c["n_entries"],
                wall_s=c["wall_s"],
                events=c["events"],
                events_per_s=c["events_per_s"],
                sim_time_ns=c["sim_time_ns"],
                repeats=c.get("repeats", 1),
                engine=c.get("engine", "event"),
                latency=c.get("latency"),  # absent in schema-1 reports
            )

        ref_event = payload.get("reference_event")
        return cls(
            cells=[cell_from(c) for c in payload.get("cells", [])],
            quick=bool(meta.get("quick", False)),
            repeats=int(meta.get("repeats", 1)),
            timestamp=str(meta.get("timestamp", "")),
            host=dict(meta.get("host", {})),
            engine=str(meta.get("engine", "event")),
            reference_event=cell_from(ref_event) if ref_event else None,
        )


def host_fingerprint() -> dict:
    """Machine facts that make wall-clock numbers (in)comparable."""
    return {
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _measure_cell(
    workload: str, defense: str, n_entries: int, seed: int = 0,
    engine: str = "event", telemetry=None,
) -> tuple[float, int, float, dict | None]:
    """Run one cell end to end.

    Returns ``(wall_s, work_units, sim_time_ns, latency_summary)``.
    Mirrors :func:`repro.sim.runner.simulate_workload` — defense and
    engine resolution, trace generation, construction and the simulation
    itself are all inside the timed window — but drives the engine
    directly so its work-unit counter is observable.  ``telemetry`` is
    a :class:`~repro.obs.Telemetry` recorder or ``None``.
    """
    from repro.defenses import resolve_defense
    from repro.params import default_config
    from repro.sim.engines import memo, resolve_engine
    from repro.workloads.suites import workload as lookup_workload

    # Time a full run, never one served from the Alert-free timing memo
    # an earlier run left behind.
    memo.clear()
    started = time.perf_counter()
    spec = resolve_defense(defense)
    sim = resolve_engine(engine).build()
    workload_spec = lookup_workload(workload)
    result = sim.simulate(
        workload_spec,
        default_config(),
        spec.factory(),
        n_entries=n_entries,
        seed=seed,
        variant_name=spec.label,
        telemetry=telemetry,
    )
    wall = time.perf_counter() - started
    return wall, sim.work_units, result.sim_time_ns, result.latency


def _measure_cell_task(task: dict) -> dict:
    """Backend task: measure one cell ``repeats`` times, best time wins.

    Module-level and dict-in/dict-out so any registered
    :class:`~repro.exp.backend.SweepBackend` — including the
    ``remote-fleet`` worker — can run bench cells.  Wall time is
    measured *inside* the worker, so a parallel bench still reports
    genuine per-cell wall clocks (noisier under contention; ``serial``
    remains the reference for regression gating).
    """
    best_wall = float("inf")
    events = 0
    sim_time = 0.0
    engine = task.get("engine", "event")
    for _ in range(task["repeats"]):
        wall, run_events, run_sim_time, _ = _measure_cell(
            task["workload"], task["defense"], task["n_entries"],
            engine=engine,
        )
        if wall < best_wall:
            best_wall = wall
        events = run_events
        sim_time = run_sim_time
    latency = None
    if task.get("telemetry"):
        # Separate untimed pass with the recorder on: the timed repeats
        # above stay telemetry-free so wall_s remains gate-comparable
        # across telemetry settings (and proves the seam costs nothing).
        from repro.obs import Telemetry

        _, _, _, latency = _measure_cell(
            task["workload"], task["defense"], task["n_entries"],
            engine=engine, telemetry=Telemetry(),
        )
    return {
        "workload": task["workload"],
        "defense": task["defense"],
        "n_entries": task["n_entries"],
        "wall_s": best_wall,
        "events": events,
        "events_per_s": events / best_wall if best_wall > 0 else 0.0,
        "sim_time_ns": sim_time,
        "repeats": task["repeats"],
        "engine": engine,
        "latency": latency,
    }


def run_bench(
    cells: Sequence[tuple[str, str]] = DEFAULT_CELLS,
    n_entries: int = DEFAULT_ENTRIES,
    repeats: int = 5,
    quick: bool = False,
    progress=None,
    backend: str = "serial",
    workers: int = 1,
    hosts: Sequence[str] | None = None,
    engine: str = "event",
    telemetry: bool = True,
) -> BenchReport:
    """Measure every cell ``repeats`` times; keep each cell's best time.

    ``backend`` dispatches cells through the sweep-backend registry
    (``serial`` — the default and the timing reference — runs in
    process; ``pool`` and ``remote-fleet`` parallelise the full run at
    some per-cell precision cost).  ``engine`` selects the
    simulation engine for every cell; when it is not the ``event``
    reference, the reference cell is additionally measured under
    ``event`` so the trajectory point records an honest same-host
    ``speedup_vs_event``.  ``telemetry`` adds one *untimed* recorded
    pass per cell for the latency percentiles; the timed repeats are
    always telemetry-free.
    """
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")
    from repro.sim.engines import resolve_engine

    engine_label = resolve_engine(engine).label
    tasks = [
        (index, {
            "workload": workload,
            "defense": defense,
            "n_entries": n_entries,
            "repeats": repeats,
            "engine": engine_label,
            "telemetry": telemetry,
        })
        for index, (workload, defense) in enumerate(cells)
    ]
    payloads: list[dict | None] = [None] * len(tasks)

    def finish(index: int, payload: dict) -> None:
        payloads[index] = payload
        if progress is not None:
            latency = payload.get("latency") or {}
            tail = (
                f", p50 {latency['p50_ns']:.0f}ns"
                f" p99 {latency['p99_ns']:.0f}ns"
                if latency.get("count") else ""
            )
            progress(
                f"{payload['workload']}/{payload['defense']}: "
                f"{payload['wall_s']:.3f}s "
                f"({payload['events_per_s']:,.0f} events/s){tail}"
            )

    from repro.exp.backend import resolve_backend

    chosen = resolve_backend(backend, jobs=workers, hosts=hosts)
    chosen.execute(tasks, _measure_cell_task, finish)
    missing = [
        f"{cells[i][0]}/{cells[i][1]}"
        for i, payload in enumerate(payloads) if payload is None
    ]
    if missing:
        # A dropped cell must fail loudly: a report silently missing a
        # cell would also silently pass the regression gate.
        raise ReproError(
            f"backend {chosen.name!r} returned no measurement for "
            f"cell(s): {', '.join(missing)}"
        )
    results = [
        CellResult(**payload)  # type: ignore[arg-type]
        for payload in payloads
    ]
    reference_event = None
    if engine_label != "event" and any(
        (c.workload, c.defense) == REFERENCE_CELL for c in results
    ):
        ref_payload = _measure_cell_task({
            "workload": REFERENCE_CELL[0],
            "defense": REFERENCE_CELL[1],
            "n_entries": n_entries,
            "repeats": repeats,
            "engine": "event",
        })
        reference_event = CellResult(**ref_payload)
        if progress is not None:
            ref = next(
                c for c in results
                if (c.workload, c.defense) == REFERENCE_CELL
            )
            speedup = reference_event.wall_s / ref.wall_s \
                if ref.wall_s > 0 else 0.0
            progress(
                f"event reference: {reference_event.wall_s:.3f}s "
                f"({engine_label} speedup x{speedup:.2f})"
            )
    return BenchReport(
        cells=results,
        quick=quick,
        repeats=repeats,
        timestamp=time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        host=host_fingerprint(),
        engine=engine_label,
        reference_event=reference_event,
    )


# ----------------------------------------------------------------------
# Trajectory persistence and comparison
# ----------------------------------------------------------------------
def trajectory_files(directory: str | Path = ".") -> list[Path]:
    """Committed trajectory points, oldest first (timestamped names)."""
    return sorted(Path(directory).glob(f"{BENCH_PREFIX}*.json"))


def load_report(path: str | Path) -> BenchReport:
    with open(path) as handle:
        return BenchReport.from_dict(json.load(handle))


def latest_trajectory_for_engine(
    directory: str | Path = ".", engine: str = "event"
) -> Path | None:
    """Newest trajectory point recorded under ``engine``, or None.

    Cells only ever compare within one engine, so the default regression
    baseline must be engine-matched — otherwise a bench run would pick a
    different engine's newer point, find zero comparable cells, and the
    gate would silently pass."""
    for path in reversed(trajectory_files(directory)):
        try:
            report = load_report(path)
        except (OSError, ValueError, KeyError, TypeError):
            continue  # unreadable/foreign file: not a usable baseline
        if report.engine == engine:
            return path
    return None


def write_report(report: BenchReport, directory: str | Path = ".") -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{BENCH_PREFIX}{report.timestamp}.json"
    path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return path


@dataclass
class CellComparison:
    """One cell measured against the previous trajectory point."""

    key: str
    wall_s: float
    previous_wall_s: float

    @property
    def speedup(self) -> float:
        """>1 means faster than the previous point."""
        return self.previous_wall_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def regression_pct(self) -> float:
        """Positive when slower than the previous point."""
        if self.previous_wall_s <= 0:
            return 0.0
        return (self.wall_s / self.previous_wall_s - 1.0) * 100.0


def compare_reports(
    current: BenchReport, previous: BenchReport
) -> list[CellComparison]:
    """Pair up cells measured in both reports (matching entry counts
    *and* engines — a regression gate must never compare an ``epoch``
    wall clock against an ``event`` baseline)."""
    comparisons = []
    for cell in current.cells:
        prev = previous.cell(cell.workload, cell.defense)
        if prev is None or prev.n_entries != cell.n_entries \
                or prev.engine != cell.engine:
            continue
        comparisons.append(
            CellComparison(
                key=cell.key,
                wall_s=cell.wall_s,
                previous_wall_s=prev.wall_s,
            )
        )
    return comparisons


def regressions(
    comparisons: Sequence[CellComparison],
    threshold_pct: float = DEFAULT_REGRESSION_THRESHOLD_PCT,
) -> list[CellComparison]:
    return [c for c in comparisons if c.regression_pct > threshold_pct]
