"""Build the ``replay-serve`` result store.

Usage: ``python3 fixture.py <store-dir>`` with the program's ``src`` on
``PYTHONPATH``.  Runs in its own process so that neither the parent's
``setup_s`` nor its peak RSS carries the simulation.  Simulates the full
replay grid once, then appends history rows (copies of the grid's
payloads under distinct keys) through ``ResultStore.put`` under the
current code salt, up to ``REPLAY_STORE_ROWS`` rows: every row is live
and current, so the store never auto-compacts during the run.  Prints
one JSON line with the row count.
"""

import hashlib
import json
import os
import sys

from loads import (
    REPLAY_DEFENSES,
    REPLAY_GRID,
    REPLAY_STORE_ROWS,
    REPLAY_WORKLOADS,
)


def main() -> int:
    directory = sys.argv[1]
    # The fixture's durability is irrelevant; only the timed service
    # appends would pay for fsync, and a replay appends nothing.
    os.environ["REPRO_STORE_FSYNC"] = "0"
    from repro.exp import ResultStore, code_version_salt, run_sweep
    from repro.serve.protocol import build_spec

    spec = build_spec(REPLAY_WORKLOADS, defenses=REPLAY_DEFENSES,
                      **REPLAY_GRID)
    store = ResultStore(directory)
    run_sweep(spec, store=store, backend="serial")
    payloads = [store.get(job.cache_key()) for job in spec.expand()]
    salt = code_version_salt()
    index = 0
    while len(store) < REPLAY_STORE_ROWS:
        key = hashlib.sha256(f"history:{index}".encode()).hexdigest()
        store.put(key, payloads[index % len(payloads)], salt=salt)
        index += 1
    print(json.dumps({"rows": len(store), "grid_rows": len(payloads)}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
