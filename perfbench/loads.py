"""The benchmark's four closed-loop workloads.

Each workload runs *rounds* (or requests) against the program from this
one process.  Every round draws a fresh seed from the benchmark seed, so
cold state always comes from new inputs.  Ops are timed through a
:class:`~calib.Clock`: one segment per op, with the calibration kernel
run between ops while the program is idle.

* ``sweep-epoch`` / ``sweep-event``: serial ``run_sweep`` rounds over
  :data:`SWEEP_WORKLOADS` x {baseline + :data:`SWEEP_DEFENSES`}; one op is
  one job, timed between ``events`` callbacks.
* ``hunt-epoch``: ``run_hunt`` rounds over :data:`HUNT_PATTERNS` x
  {baseline + :data:`HUNT_DEFENSES`}; one op is one job, timed between
  per-job ``progress`` lines.
* ``replay-serve``: one client submits distinct sub-grids of a fully
  cached grid to an in-process ``SweepService`` behind
  ``SweepHTTPServer``; one op is one request, from submit until done.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

SWEEP_WORKLOADS = ("429.mcf", "470.lbm", "ycsb-a", "541.leela")
SWEEP_DEFENSES = ("qprac", "qprac+proactive", "moat")

#: Points whose ACT count (40k per job at 10k entries) and Alert count
#: do not depend on the seed.  ``double-sided:pairs=2`` is absorbed by
#: the LLC for about one seed in three (128 ACTs), and pairs=3 or 4 flip
#: between 30k and 40k ACTs by seed, which would spread the figures by
#: seed rather than by code.
HUNT_PATTERNS = (
    "double-sided:pairs=6",
    "double-sided:pairs=8",
    "many-sided:sides=8",
    "many-sided:sides=16",
)
HUNT_DEFENSES = ("qprac", "qprac+proactive", "moat")

#: The replay grid: 12 workloads across the suites x 6 defenses.
REPLAY_WORKLOADS = (
    "429.mcf", "470.lbm", "462.libquantum", "510.parest", "541.leela",
    "505.mcf", "tpcc64", "tpch6", "hadoop-sort", "mb-jpeg2000", "ycsb-a",
    "ycsb-e",
)
REPLAY_DEFENSES = (
    "qprac", "qprac+proactive", "qprac-noop", "moat", "pride:t_rh=256",
    "mithril:t_rh=256",
)
#: Grid fields of every replay request (and of the fixture that holds
#: their rows).  Only the store's row count matters to a replay, so the
#: fixture uses the cheap engine and a short trace.
REPLAY_GRID = {"entries": 2000, "seed": 7, "engine": "epoch"}
#: Rows in the replay store: the grid's 84 plus history rows.
REPLAY_STORE_ROWS = 2000


def round_seed(workload: str, seed: int, index: int) -> int:
    """Seed of round ``index`` of a run started with ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class Round:
    """One round (or one replay request) and what it produced."""

    index: int
    ops: int
    failed: int = 0
    #: SweepResult, HuntResult, or the replay's response snapshot.
    result: object = None
    error: str | None = None
    #: Replay only: the request's grid fields.
    request: dict = field(default_factory=dict)
    #: Digest taken after the timed phase.
    digest: str | None = None
    #: The round's JobOutcomes (simulated counts are summed over them).
    outcomes: tuple = ()


class SweepLoad:
    """Serial ``run_sweep`` rounds (``sweep-epoch``, ``sweep-event``)."""

    ops_per_round = len(SWEEP_WORKLOADS) * (1 + len(SWEEP_DEFENSES))

    def __init__(self, name: str, engine: str, entries: int) -> None:
        self.name = name
        self.engine = engine
        self.entries = entries
        self.store = None

    def open(self, directory: Path) -> None:
        from repro.exp import ResultStore

        self.store = ResultStore(directory)

    def close(self) -> None:
        """Nothing runs in the background; the store stays open for the
        untimed re-runs."""

    def spec(self, seed: int, index: int):
        from repro.exp import SweepSpec

        return SweepSpec.build(
            SWEEP_WORKLOADS, SWEEP_DEFENSES, n_entries=self.entries,
            seed=round_seed(self.name, seed, index), engine=self.engine,
        )

    def run_round(self, clock, seed: int, index: int) -> Round:
        import repro.exp as exp

        def on_event(event: dict) -> None:
            clock.lap("op", label=event["label"])

        record = Round(index=index, ops=self.ops_per_round)
        try:
            # Looked up at call time, so a traced phase sees the wrapper.
            record.result = exp.run_sweep(
                self.spec(seed, index), store=self.store, backend="serial",
                events=on_event,
            )
            record.outcomes = tuple(record.result.outcomes)
        except Exception as exc:  # an op failure, reported not raised
            record.error = f"{type(exc).__name__}: {exc}"
            record.failed = record.ops
        clock.lap("tail")
        return record

    def digest(self, record: Round) -> str:
        from repro.exp import sweep_digest

        return sweep_digest(record.result)

    def replay(self, seed: int, record: Round) -> tuple[int, str]:
        """Re-run a round against the store: (executed, digest)."""
        import repro.exp as exp

        sweep = exp.run_sweep(self.spec(seed, record.index),
                              store=self.store, backend="serial")
        return sweep.executed, exp.sweep_digest(sweep)


class HuntLoad(SweepLoad):
    """``run_hunt`` rounds (``hunt-epoch``)."""

    ops_per_round = len(HUNT_PATTERNS) * (1 + len(HUNT_DEFENSES))

    def _hunt(self, seed: int, index: int, progress=None):
        import repro.attacks.hunt as hunt

        return hunt.run_hunt(
            HUNT_DEFENSES, patterns=HUNT_PATTERNS, n_entries=self.entries,
            seed=round_seed(self.name, seed, index), engine=self.engine,
            store=self.store, backend="serial", progress=progress,
        )

    def run_round(self, clock, seed: int, index: int) -> Round:
        def on_progress(line: str) -> None:
            if line.startswith("["):  # one line per job, then a summary
                clock.lap("op", label=line)

        record = Round(index=index, ops=self.ops_per_round)
        try:
            record.result = self._hunt(seed, index, on_progress)
            record.outcomes = tuple(record.result.sweep.outcomes)
        except Exception as exc:  # an op failure, reported not raised
            record.error = f"{type(exc).__name__}: {exc}"
            record.failed = record.ops
        clock.lap("tail")
        return record

    def digest(self, record: Round) -> str:
        return record.result.digest()

    def replay(self, seed: int, record: Round) -> tuple[int, str]:
        again = self._hunt(seed, record.index)
        return again.sweep.executed, again.digest()


class ReplayLoad:
    """Closed-loop replays through the HTTP sweep service
    (``replay-serve``): one client, one connection at a time."""

    ops_per_round = 1
    #: Longest a status long-poll waits server-side (seconds).
    POLL_WAIT_S = 5.0

    def __init__(self, name: str) -> None:
        self.name = name
        self.directory: Path | None = None
        self._verify_store = None
        self.service = None
        self.server = None
        self.base_url = ""
        self._thread = None
        self._idle_threads = 0
        self._rng: random.Random | None = None
        self._seen: set = set()
        #: Status polls made per request, in request order.
        self.polls: list[int] = []
        #: Raw client latency of each request (seconds), request order.
        self.latency_s: list[float] = []

    def open(self, directory: Path) -> None:
        from repro.serve.http import SweepHTTPServer
        from repro.serve.service import SweepService

        self.directory = directory
        self.service = SweepService(cache_dir=str(directory), workers=1)
        self.server = SweepHTTPServer(("127.0.0.1", 0), self.service)
        self.service.start()
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.5},
            name="perfbench-http", daemon=True,
        )
        self._thread.start()
        host, port = self.server.server_address[:2]
        self.base_url = f"http://{host}:{port}"
        self._idle_threads = threading.active_count()

    def close(self) -> None:
        if self.service is not None:
            self.service.stop(timeout=30)
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.service = self.server = self._thread = None

    def _settle(self) -> None:
        """Wait (bounded) until every HTTP handler thread has exited, so
        the kernel samples an idle program."""
        deadline = time.perf_counter() + 0.2
        while (threading.active_count() > self._idle_threads
               and time.perf_counter() < deadline):
            time.sleep(0.0002)

    def next_request(self, seed: int) -> dict:
        """A seeded sub-grid no earlier request of this run used."""
        if self._rng is None:
            self._rng = random.Random(f"{self.name}:{seed}")
        rng = self._rng
        while True:
            workloads = sorted(
                rng.sample(range(len(REPLAY_WORKLOADS)), rng.randint(1, 4))
            )
            defenses = sorted(
                rng.sample(range(len(REPLAY_DEFENSES)), rng.randint(1, 4))
            )
            key = (tuple(workloads), tuple(defenses))
            if key not in self._seen:
                self._seen.add(key)
                return dict(
                    REPLAY_GRID,
                    workloads=[REPLAY_WORKLOADS[i] for i in workloads],
                    defenses=[REPLAY_DEFENSES[i] for i in defenses],
                )

    def run_round(self, clock, seed: int, index: int) -> Round:
        from repro.serve import client

        request = self.next_request(seed)
        record = Round(index=index, ops=1, request=request)
        polls = 0
        started = time.perf_counter()
        try:
            snapshot = client.submit(self.base_url, request)
            while snapshot.get("state") not in ("done", "failed"):
                snapshot = client.status(
                    self.base_url, snapshot["sweep_id"],
                    wait_s=self.POLL_WAIT_S,
                )
                polls += 1
        except Exception as exc:  # an op failure, reported not raised
            snapshot = None
            record.error = f"{type(exc).__name__}: {exc}"
        self.latency_s.append(time.perf_counter() - started)
        clock.lap("op", label=",".join(request["workloads"]),
                  settle=self._settle)
        self.polls.append(polls)
        record.result = snapshot
        if snapshot is None:
            record.failed = 1
        elif snapshot.get("state") != "done" or snapshot.get("executed"):
            record.failed = 1
            record.error = (f"state={snapshot.get('state')} "
                            f"executed={snapshot.get('executed')}")
        return record

    def digest(self, record: Round) -> str:
        return record.result["digest"]

    def replay(self, seed: int, record: Round) -> tuple[int, str]:
        """The in-process answer for the same spec from the same store."""
        import repro.exp as exp
        from repro.serve.protocol import build_spec

        if self._verify_store is None:
            self._verify_store = exp.ResultStore(self.directory)
        sweep = exp.run_sweep(build_spec(**record.request),
                              store=self._verify_store, backend="serial")
        record.outcomes = tuple(sweep.outcomes)
        return sweep.executed, exp.sweep_digest(sweep)


def make_load(name: str):
    if name == "sweep-epoch":
        return SweepLoad(name, engine="epoch", entries=10_000)
    if name == "sweep-event":
        return SweepLoad(name, engine="event", entries=5_000)
    if name == "hunt-epoch":
        return HuntLoad(name, engine="epoch", entries=10_000)
    if name == "replay-serve":
        return ReplayLoad(name)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-epoch", "sweep-event", "hunt-epoch", "replay-serve")
