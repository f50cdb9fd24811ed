"""Microbenchmark: the reference cell end to end, with events/sec.

This is one cell of ``python -m repro bench`` kept as a minimal script
so it stays trivially profileable::

    PYTHONPATH=src python -m cProfile -s tottime benchmarks/perf/bench_end_to_end.py
"""

from __future__ import annotations

import time

from repro.defenses import resolve_defense
from repro.sim.runner import build_system

WORKLOAD = "429.mcf"
DEFENSE = "qprac"
N_ENTRIES = 20_000
REPEATS = 3


def main() -> None:
    spec = resolve_defense(DEFENSE)
    best = float("inf")
    events = 0
    for _ in range(REPEATS):
        started = time.perf_counter()
        system = build_system(WORKLOAD, defense=spec, n_entries=N_ENTRIES)
        system.run(variant_name=spec.label)
        elapsed = time.perf_counter() - started
        events = system.events.events_processed
        best = min(best, elapsed)
    print(
        f"{WORKLOAD} x {DEFENSE} ({N_ENTRIES} entries/core): "
        f"{best:.3f}s, {events} events, {events / best:,.0f} events/s"
    )


if __name__ == "__main__":
    main()
