"""Regenerate ``pins.json``: the round digests of the default seed.

Usage, from the repository root::

    python3 perfbench/pins.py

Runs the first rounds of every workload at ``run.DEFAULT_SEED`` on fresh
stores and writes their digests (``sweep_digest``, ``HuntResult.digest()``
or, for ``replay-serve``, the in-process ``sweep_digest`` of each
request's spec).  A measured run at the default seed fails every round
whose digest differs from its pin, so regenerate the pins only with a
change that is meant to alter simulated results.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from calib import Clock  # noqa: E402
from loads import Round, make_load  # noqa: E402
from run import DEFAULT_SEED, WORK, build_fixture  # noqa: E402

#: Rounds pinned per workload: more than a measured run makes.
PINNED_ROUNDS = {
    "sweep-epoch": 24,
    "sweep-event": 24,
    "hunt-epoch": 24,
    "replay-serve": 400,
}


def round_digests(workload: str, rounds: int, directory: Path) -> list[str]:
    load = make_load(workload)
    if workload == "replay-serve":
        build_fixture(directory)
        load.directory = directory
        records = [
            Round(index=index, ops=1,
                  request=load.next_request(DEFAULT_SEED))
            for index in range(rounds)
        ]
        return [load.replay(DEFAULT_SEED, record)[1] for record in records]
    load.open(directory)
    clock = Clock()
    clock.start()
    return [
        load.digest(load.run_round(clock, DEFAULT_SEED, index))
        for index in range(rounds)
    ]


def main() -> int:
    pins = {}
    for workload, rounds in PINNED_ROUNDS.items():
        directory = WORK / f"pins-{workload}"
        shutil.rmtree(directory, ignore_errors=True)
        try:
            pins[workload] = round_digests(workload, rounds, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        print(f"{workload}: {rounds} rounds pinned", flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
