"""Tests for the pluggable sweep-execution backends.

The contract under test: every backend runs the same canonical
``run_one`` on the same task objects and the caller reassembles
payloads positionally — so ``serial`` and ``pool`` aggregate
**byte-identically**, a killed ``pool`` sweep takes its workers down
with it and resumes from the :class:`~repro.exp.cache.ResultStore` to
the same digest, and a raising task fails the sweep without running
the chunks queued behind it.  ``remote-fleet`` and its chaos matrix
live in ``tests/test_fleet.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.exp import (
    ResultStore,
    SweepSpec,
    register_backend,
    registered_backends,
    resolve_backend,
    run_sweep,
)
from repro.exp.backend import PoolBackend, SerialBackend, SweepBackend
from repro.exp.runner import execute_job
from repro.exp.serialize import canonical_json, result_to_dict
from repro.exp.worker import (
    load_jobs_file,
    read_worker_rows,
    run_worker,
    write_jobs_file,
)

ENTRIES = 300


def mixed_spec() -> SweepSpec:
    """Tiny mixed-defense grid: baseline + 2 defenses = 3 jobs."""
    return SweepSpec.build(
        ["541.leela"], ["qprac", "moat"], n_entries=ENTRIES
    )


def aggregate_bytes(sweep) -> str:
    return canonical_json([result_to_dict(o.result) for o in sweep.outcomes])


@pytest.fixture(scope="module")
def serial_aggregate() -> str:
    """Reference bytes every other backend must reproduce."""
    return aggregate_bytes(run_sweep(mixed_spec(), jobs=1, store=None))


class TestRegistry:
    def test_shipped_backends_are_registered(self):
        assert registered_backends() == ("pool", "remote-fleet", "serial")

    def test_unknown_backend_is_a_clear_error(self):
        with pytest.raises(ReproError, match="unknown sweep backend"):
            resolve_backend("nonsense")

    def test_auto_resolves_by_jobs(self):
        assert resolve_backend("auto", jobs=1).name == "serial"
        assert resolve_backend("auto", jobs=4).name == "pool"

    def test_auto_stays_in_process_for_one_pending_task(self):
        assert resolve_backend("auto", jobs=4, pending=1).name == "serial"
        assert resolve_backend("auto", jobs=4, pending=0).name == "serial"
        assert resolve_backend("auto", jobs=4, pending=2).name == "pool"
        assert resolve_backend("auto", jobs=1, pending=9).name == "serial"
        assert resolve_backend("pool", jobs=4, pending=1).name == "pool"

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            register_backend("serial")(SerialBackend)

    def test_external_backend_plugs_in(self):
        @register_backend("test-inline")
        class InlineBackend(SweepBackend):
            def __init__(self, jobs=1, hosts=None):
                pass

            def execute(self, tasks, run_one, emit):
                for index, obj in tasks:
                    emit(index, run_one(obj))

        try:
            sweep = run_sweep(mixed_spec(), backend="test-inline")
            assert sweep.backend == "test-inline"
            assert sweep.executed == 3
        finally:
            from repro.exp.backend import _BACKENDS

            del _BACKENDS["test-inline"]

    def test_exp_reaches_the_fleet_only_through_remote_fleet(self):
        """Importing ``repro.exp``, and resolving or validating
        ``serial`` / ``pool``, loads no ``repro.fleet`` module; only a
        lookup that misses the loaded registry imports the coordinator
        (which registers ``remote-fleet``)."""
        code = "\n".join([
            "import sys",
            "import repro.exp",
            "from repro.exp import registered_backends, resolve_backend",
            "from repro.serve import SweepRequest",
            "def fleet():",
            "    return sorted(m for m in sys.modules",
            "                  if m.startswith('repro.fleet'))",
            "print(fleet())",
            "resolve_backend('serial')",
            "resolve_backend('pool', jobs=2)",
            "SweepRequest.from_payload({'workloads': ['429.mcf']})",
            "print(fleet())",
            "registered_backends()",
            "print('repro.fleet.coordinator' in fleet())",
        ])
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:3] == ["[]", "[]", "True"]


class TestEquivalence:
    """The acceptance criterion: byte-identical aggregates everywhere."""

    @pytest.mark.parametrize("backend,jobs", [
        ("pool", 4),
    ])
    def test_parallel_backend_matches_serial_byte_identical(
        self, backend, jobs, serial_aggregate
    ):
        sweep = run_sweep(mixed_spec(), jobs=jobs, backend=backend)
        assert sweep.backend == backend
        assert sweep.executed == sweep.total_jobs == 3
        assert aggregate_bytes(sweep) == serial_aggregate

    def test_backends_fill_the_cache_identically(
        self, tmp_path, serial_aggregate
    ):
        def rows(store):
            return sorted(
                json.dumps(json.loads(line), sort_keys=True)
                for line in store.path.read_text().splitlines()
            )

        stores = {}
        for backend, jobs in (("serial", 1), ("pool", 3)):
            store = ResultStore(tmp_path / backend)
            run_sweep(mixed_spec(), jobs=jobs, backend=backend, store=store)
            stores[backend] = store
        assert rows(stores["serial"]) == rows(stores["pool"])
        # And a replay from either cache reproduces the serial bytes.
        replay = run_sweep(
            mixed_spec(), store=ResultStore(tmp_path / "pool")
        )
        assert replay.cache_hits == replay.total_jobs
        assert aggregate_bytes(replay) == serial_aggregate

    def test_attack_jobs_backend_matches_serial(self):
        from repro.exp import attack_job, run_attack_jobs

        jobs = [
            attack_job("qprac", measure_ns=30_000.0),
            attack_job("moat", measure_ns=30_000.0),
        ]
        serial = run_attack_jobs(jobs)
        parallel = run_attack_jobs(jobs, backend="pool", workers=2)
        assert [(r.acts, r.alerts, r.duration_ns) for r in serial] == [
            (r.acts, r.alerts, r.duration_ns) for r in parallel
        ]


class TestPoolSupervision:
    def test_worker_exception_propagates_not_retries(self):
        with pytest.raises(ValueError, match="boom"):
            PoolBackend(jobs=1).execute(
                [(0, None)], _always_raise, lambda i, p: None
            )

    def test_failing_task_cancels_the_chunks_queued_behind_it(
        self, tmp_path
    ):
        """A raising task fails the sweep at once: chunks no worker has
        taken yet are cancelled, so once the pool has wound down fewer
        tasks have started than were submitted (each task touches a
        marker as it starts)."""
        # 16 tasks on 2 workers run as 8 chunks of 2.  The raising task
        # ends the first chunk, so no task is skipped merely because an
        # earlier one in its chunk raised.
        tasks = [(i, (str(tmp_path), i, i == 1)) for i in range(16)]
        with pytest.raises(ValueError, match="task 1 failed"):
            PoolBackend(jobs=2).execute(
                tasks, _mark_then_work, lambda i, p: None
            )
        deadline = time.monotonic() + 60
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "pool workers never exited"
            time.sleep(0.05)
        started = len(list(tmp_path.iterdir()))
        assert 2 <= started < len(tasks)

    def test_killed_sweep_resumes_from_store_to_same_digest(
        self, tmp_path, serial_aggregate
    ):
        """SIGKILL a ``pool`` sweep mid-run: its workers exit with it
        (so joining the killed process returns at once instead of
        waiting on pipes the orphans hold), the store keeps whatever
        finished, and the resumed sweep replays it and simulates the
        rest, to the same digest."""
        cache_dir = tmp_path / "cache"
        proc = multiprocessing.Process(
            target=_run_pool_sweep, args=(str(cache_dir),)
        )
        proc.start()
        store_file = cache_dir / "results.jsonl"
        deadline = time.time() + 120
        # Kill as soon as at least one finished row hit the disk.
        while time.time() < deadline:
            if store_file.exists() and store_file.read_text().count("\n"):
                break
            time.sleep(0.02)
        else:
            proc.kill()
            pytest.fail("sweep never flushed a row to the store")
        proc.kill()
        killed = time.monotonic()
        proc.join(timeout=30)
        # Orphaned workers would hold the sentinel pipe open for 30s.
        assert time.monotonic() - killed < 5.0
        flushed = len(ResultStore(cache_dir))
        assert flushed >= 1
        resumed = run_sweep(
            mixed_spec(), jobs=1, store=ResultStore(cache_dir)
        )
        assert resumed.cache_hits >= 1
        assert resumed.cache_hits + resumed.executed == resumed.total_jobs
        assert aggregate_bytes(resumed) == serial_aggregate


def _run_pool_sweep(cache_dir: str) -> None:
    run_sweep(
        mixed_spec(), jobs=2, backend="pool", store=ResultStore(cache_dir),
    )


def _always_raise(obj) -> dict:
    raise ValueError("boom")


def _mark_then_work(obj) -> dict:
    marker_dir, index, fail = obj
    Path(marker_dir, str(index)).touch()
    if fail:
        raise ValueError(f"task {index} failed")
    time.sleep(0.2)
    return {"index": index}


class TestWorkerSerializationBoundary:
    def test_jobs_file_roundtrip(self, tmp_path):
        jobs = mixed_spec().expand()
        tasks = [(i, job) for i, job in enumerate(jobs)]
        path = tmp_path / "jobs.pkl"
        write_jobs_file(path, execute_job, tasks)
        run_one, loaded = load_jobs_file(path)
        assert run_one is execute_job
        assert loaded == tasks

    def test_rejects_damaged_jobs_file(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.raises(ReproError, match="unreadable jobs file"):
            load_jobs_file(path)

    def test_run_worker_streams_results(self, tmp_path, serial_aggregate):
        jobs = mixed_spec().expand()
        jobs_file = tmp_path / "jobs.pkl"
        out_file = tmp_path / "out.jsonl"
        write_jobs_file(
            jobs_file, execute_job, [(i, job) for i, job in enumerate(jobs)]
        )
        assert run_worker(jobs_file, out_file) == len(jobs)
        rows = {
            row["index"]: row["payload"] for row in read_worker_rows(out_file)
        }
        assert sorted(rows) == list(range(len(jobs)))
        assert canonical_json(
            [rows[i] for i in range(len(jobs))]
        ) == serial_aggregate

    def test_worker_cli_subprocess(self, tmp_path):
        """The real boundary: a fresh interpreter via ``repro worker``."""
        jobs = mixed_spec().expand()[:1]
        jobs_file = tmp_path / "jobs.pkl"
        out_file = tmp_path / "out.jsonl"
        write_jobs_file(jobs_file, execute_job, [(0, jobs[0])])
        env = dict(os.environ)
        package_parent = str(Path(execute_job.__code__.co_filename).parents[2])
        env["PYTHONPATH"] = (
            package_parent + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "worker",
             "--jobs-file", str(jobs_file), "--out", str(out_file),
             "--quiet"],
            capture_output=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr.decode()
        rows = list(read_worker_rows(out_file))
        assert len(rows) == 1 and rows[0]["index"] == 0
        assert "payload" in rows[0]

    def test_partial_output_rows_are_skipped(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text(
            json.dumps({"index": 0, "payload": {"v": 1}}) + "\n"
            + '{"index": 1, "payl'  # killed mid-flush
        )
        assert list(read_worker_rows(out)) == [
            {"index": 0, "payload": {"v": 1}}
        ]
