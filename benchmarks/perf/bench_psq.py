"""Microbenchmark: PSQ observe/top throughput, bisect-ordered vs reference.

The bisect-ordered queue keeps its entries sorted, so its top and
eviction victim sit at the ends of one list; the retained reference
implementation scans per call.  The simulator calls ``observe`` plus a
top-count read once per DRAM activation, so this pair *is* the per-ACT
tracking cost.

Sizes 16 and 64 show how each layout scales; the simulated queues are
the paper's, at most 5 entries (default 5, Figure 17 sweeps 1-5).
"""

from __future__ import annotations

import random
import time

from repro.core.psq import PriorityServiceQueue, ReferencePriorityServiceQueue


def drive(queue, ops: list[tuple[int, int]]) -> float:
    observe = queue.observe
    max_count = queue.max_count
    started = time.perf_counter()
    for row, count in ops:
        observe(row, count)
        max_count()
    return len(ops) / (time.perf_counter() - started)


def make_ops(n: int = 200_000, rows: int = 64, seed: int = 0):
    """The simulator's shape: per-row counters that only count up."""
    rng = random.Random(seed)
    counters = [0] * rows
    ops = []
    for _ in range(n):
        row = rng.randrange(rows)
        counters[row] += 1
        ops.append((row, counters[row]))
    return ops


def main() -> None:
    ops = make_ops()
    for size in (5, 16, 64):
        fast = max(
            drive(PriorityServiceQueue(size), ops) for _ in range(3)
        )
        ref = max(
            drive(ReferencePriorityServiceQueue(size), ops)
            for _ in range(3)
        )
        print(
            f"size {size:3d}: bisect-ordered {fast:12,.0f} ops/s   "
            f"reference {ref:12,.0f} ops/s   ({fast / ref:.2f}x)"
        )


if __name__ == "__main__":
    main()
