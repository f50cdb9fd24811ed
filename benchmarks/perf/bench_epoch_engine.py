"""Microbenchmark: the epoch engine vs the event reference, per phase.

Times the reference cell under both engines and breaks the epoch
engine's cost into its three phases (memory construction, the cached
stream preparation, the replay loop), so a regression is attributable
before reaching the full ``python -m repro bench --engine epoch`` gate::

    PYTHONPATH=src python benchmarks/perf/bench_epoch_engine.py
    PYTHONPATH=src python -m cProfile -s tottime benchmarks/perf/bench_epoch_engine.py

Note the stream-cache asterisk: ``_prepare_stream`` is memoized on
(workload, entries, seed, geometry) exactly like trace generation, so
the steady-state epoch cost a defense sweep pays is ``build + replay``;
the cold first cell also pays ``prepare`` once.  Both cold and warm
timings are printed.  Every timed run is a full one: the Alert-free
timing memo (:mod:`repro.sim.engines.memo`) is cleared before each.
"""

from __future__ import annotations

import time

from repro.controller.memctrl import MemStats, build_ranks
from repro.defenses import resolve_defense
from repro.params import default_config
from repro.sim.engines import EngineSpec, memo
from repro.sim.engines.epoch import EpochEngine, _EpochCore, _prepare_stream
from repro.workloads.suites import workload as lookup_workload

WORKLOAD = "429.mcf"
DEFENSE = "qprac"
N_ENTRIES = 20_000
REPEATS = 3


def main() -> None:
    spec = resolve_defense(DEFENSE)
    config = default_config()
    workload = lookup_workload(WORKLOAD)

    def run_cell(engine: str) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            sim = EngineSpec.from_string(engine).build()
            memo.clear()
            started = time.perf_counter()
            sim.simulate(
                workload, config, spec.factory(),
                n_entries=N_ENTRIES, seed=0, variant_name=spec.label,
            )
            best = min(best, time.perf_counter() - started)
        return best

    # Cold: include one fresh stream preparation in the first epoch run.
    _prepare_stream.cache_clear()
    memo.clear()
    cold = float("inf")
    sim = EpochEngine()
    started = time.perf_counter()
    sim.simulate(workload, config, spec.factory(), n_entries=N_ENTRIES)
    cold = time.perf_counter() - started

    event_s = run_cell("event")
    epoch_s = run_cell("epoch")

    # Phase breakdown (warm stream cache).
    engine = EpochEngine()
    t0 = time.perf_counter()
    banks, ranks = build_ranks(config, spec.factory())
    t1 = time.perf_counter()
    stream = _prepare_stream(
        workload, N_ENTRIES, 0, config.org, config.cpu
    )
    t2 = time.perf_counter()
    cores = [
        _EpochCore(
            reqs=stream.reqs[c],
            stall=stream.stall[c],
            front_total=stream.front_total[c],
            total_instructions=stream.total_instructions[c],
        )
        for c in range(len(stream.reqs))
    ]
    engine._replay(cores, banks, ranks, config, MemStats())
    t3 = time.perf_counter()

    requests = sum(len(r) for r in stream.reqs)
    print(
        f"{WORKLOAD} x {DEFENSE} ({N_ENTRIES} entries/core, "
        f"{requests} DRAM requests):"
    )
    print(f"  event engine:        {event_s:.3f}s (best of {REPEATS})")
    print(f"  epoch engine (warm): {epoch_s:.3f}s "
          f"-> x{event_s / epoch_s:.2f} vs event")
    print(f"  epoch engine (cold): {cold:.3f}s "
          f"-> x{event_s / cold:.2f} vs event")
    print(
        f"  epoch phases: build {t1 - t0:.3f}s, "
        f"prepare (cached across defenses) {t2 - t1:.3f}s, "
        f"replay {t3 - t2:.3f}s "
        f"({requests / max(1e-9, t3 - t2):,.0f} requests/s)"
    )


if __name__ == "__main__":
    main()
