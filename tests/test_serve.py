"""Tests for the sweep service: protocol, queue semantics, HTTP layer.

The acceptance contract of the service is digest equality: a sweep
submitted over HTTP must aggregate byte-identically to `repro sweep
--backend serial`, and resubmitting a completed spec must execute zero
jobs and report the same digest.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
import repro.serve.http as http_module
import repro.serve.service as service_module
from repro.errors import ReproError
from repro.exp import ResultStore, run_sweep, sweep_digest
from repro.obs import read_trace, sweep_id_for
from repro.serve import (
    ServiceError,
    SweepHTTPServer,
    SweepRequest,
    SweepService,
    build_spec,
    client,
)

#: One small grid shared by most tests (2 jobs: baseline + qprac).
GRID = {"workloads": ["429.mcf"], "defenses": ["qprac"], "entries": 150}
#: A grid sharing no job with GRID (2 jobs).
OTHER = {"workloads": ["470.lbm"], "defenses": ["qprac"], "entries": 150}
#: A grid sharing GRID's baseline job (2 jobs, 1 of them new).
THIRD = {"workloads": ["429.mcf"], "defenses": ["moat"], "entries": 150}


def serial_digest(tmp_path) -> str:
    spec = build_spec(["429.mcf"], defenses=["qprac"], entries=150)
    store = ResultStore(tmp_path / "serial-cache")
    return sweep_digest(run_sweep(spec, store=store, backend="serial"))


def run_to_end(service: SweepService, payload: dict) -> dict:
    """Submit ``payload`` and wait for its terminal snapshot."""
    snapshot, _ = service.submit(payload)
    return service.status(snapshot["sweep_id"], wait_s=120.0)


def store_block(snapshot: dict) -> dict:
    """A finished sweep's store block (its ``SweepMetrics.store``), which
    the snapshot carries whether or not the run wrote a trace."""
    return snapshot["store"]


def scratch_rows(directory: Path, payload: dict) -> tuple[list[str], str]:
    """Run ``payload``'s grid into a store of its own: its JSONL lines
    and the serial digest."""
    spec = build_spec(payload["workloads"], defenses=payload["defenses"],
                      entries=payload["entries"])
    store = ResultStore(directory)
    digest = sweep_digest(run_sweep(spec, store=store, backend="serial"))
    return store.path.read_text().splitlines(), digest


def post(base: str, payload: dict, query: str = "") -> tuple[int, dict]:
    """A raw ``POST /sweeps<query>``: the HTTP code and the JSON answer."""
    request = urllib.request.Request(
        f"{base}/sweeps{query}", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@contextlib.contextmanager
def listening(svc: SweepService):
    """``svc`` behind a live HTTP listener; yields its base URL."""
    server = SweepHTTPServer(("127.0.0.1", 0), svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def service(tmp_path):
    svc = SweepService(cache_dir=tmp_path / "cache", workers=2).start()
    yield svc
    svc.stop(timeout=30.0)


@pytest.fixture
def http_service(tmp_path):
    svc = SweepService(cache_dir=tmp_path / "cache", workers=2)
    with listening(svc) as base:
        svc.start()
        yield svc, base
        svc.stop(timeout=30.0)


@pytest.fixture
def idle_http_service(tmp_path):
    """A listening service whose workers never start: every sweep it
    accepts stays queued."""
    svc = SweepService(cache_dir=tmp_path / "cache")
    with listening(svc) as base:
        yield svc, base


class TestProtocol:
    def test_defaults_mirror_the_cli(self):
        request = SweepRequest.from_payload({"workloads": ["429.mcf"]})
        assert request.entries == 5000
        assert request.nbo == 32
        assert request.n_mit == 1
        assert request.seed == 0
        assert request.engine == "event"
        assert request.defenses is None  # -> the evaluated variants
        assert request.backend == "serial"

    def test_spec_identical_to_cli_builder(self):
        request = SweepRequest.from_payload(GRID)
        via_service = sweep_id_for(request.spec())
        via_cli = sweep_id_for(
            build_spec(["429.mcf"], defenses=["qprac"], entries=150)
        )
        assert via_service == via_cli

    def test_run_options_stay_out_of_identity(self):
        plain = SweepRequest.from_payload(GRID)
        tweaked = SweepRequest.from_payload(
            dict(GRID, backend="pool", jobs=4, trace=True)
        )
        assert sweep_id_for(plain.spec()) == sweep_id_for(tweaked.spec())

    def test_unknown_field_rejected(self):
        with pytest.raises(ReproError, match="unknown submission field"):
            SweepRequest.from_payload(dict(GRID, warkloads=["x"]))

    def test_non_object_body_rejected(self):
        with pytest.raises(ReproError, match="JSON object"):
            SweepRequest.from_payload(["429.mcf"])

    def test_bad_types_rejected(self):
        with pytest.raises(ReproError, match="list of strings"):
            SweepRequest.from_payload({"workloads": "429.mcf"})
        with pytest.raises(ReproError, match="integer"):
            SweepRequest.from_payload(dict(GRID, entries="many"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ReproError, match="workloads"):
            SweepRequest.from_payload({})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ReproError):
            SweepRequest.from_payload({"workloads": ["no.such"]})

    def test_faults_need_the_fleet_backend(self):
        with pytest.raises(ReproError, match="remote-fleet"):
            SweepRequest.from_payload(dict(GRID, faults="kill-worker"))

    def test_fleet_backend_spools_under_the_given_cache_dir(self, tmp_path):
        from repro.fleet.coordinator import RemoteFleetBackend

        request = SweepRequest.from_payload(dict(GRID, backend="remote-fleet"))
        backend = request.build_backend(tmp_path)
        assert isinstance(backend, RemoteFleetBackend)
        assert backend.spool_root == tmp_path
        assert not backend.fault_plan
        faulted = SweepRequest.from_payload(dict(
            GRID, backend="remote-fleet", faults="kill-worker:times=2",
        )).build_backend(tmp_path)
        assert [f.kind for f in faulted.fault_plan.faults] == ["kill-worker"]
        assert SweepRequest.from_payload(GRID).build_backend(tmp_path) == (
            "serial"
        )

    def test_bad_fault_plan_rejected(self):
        with pytest.raises(ReproError):
            SweepRequest.from_payload(dict(
                GRID, backend="remote-fleet", faults="explode-everything"
            ))

    def test_payload_round_trip(self):
        request = SweepRequest.from_payload(dict(GRID, jobs=2))
        again = SweepRequest.from_payload(request.to_payload())
        assert again == request

    @pytest.mark.parametrize("value", ["false", "no", "true", 1, 0, None, []])
    def test_trace_must_be_a_json_boolean(self, value):
        with pytest.raises(ReproError, match="'trace' must be true or false"):
            SweepRequest.from_payload(dict(GRID, trace=value))

    def test_trace_booleans_and_absence(self):
        assert SweepRequest.from_payload(GRID).trace is False
        assert SweepRequest.from_payload(dict(GRID, trace=True)).trace is True
        assert SweepRequest.from_payload(
            dict(GRID, trace=False)
        ).trace is False


class TestService:
    def test_submit_runs_and_matches_serial_digest(self, service, tmp_path):
        snapshot, code = service.submit(GRID)
        assert code == 202
        assert snapshot["state"] == "queued"
        assert snapshot["total_jobs"] == 2
        final = service.status(snapshot["sweep_id"], wait_s=120.0)
        assert final["state"] == "done"
        assert final["executed"] == 2
        assert final["cache_hits"] == 0
        assert final["digest"] == serial_digest(tmp_path)
        assert final["aggregates"], "final payload carries the aggregates"

    def test_duplicate_submission_replays_with_zero_executed(
        self, service, tmp_path
    ):
        first, _ = service.submit(GRID)
        done = service.status(first["sweep_id"], wait_s=120.0)
        again, code = service.submit(GRID)
        assert code == 200
        assert again["replay"] is True
        assert again["executed"] == 0
        assert again["cache_hits"] == again["total_jobs"]
        assert again["digest"] == done["digest"]
        assert service.metrics.replays == 1

    def test_partial_cache_resumes_byte_identically(self, service, tmp_path):
        # Half the grid is already in the store (as after a coordinator
        # killed mid-sweep): resubmission executes only the remainder
        # and the digest still equals an uncached serial run.
        warm = build_spec(["429.mcf"], defenses=None, entries=150)
        subset = build_spec(["429.mcf"], defenses=["qprac"], entries=150)
        run_sweep(subset, store=ResultStore(service.cache_dir))
        snapshot, _ = service.submit({"workloads": ["429.mcf"],
                                      "entries": 150})
        final = service.status(snapshot["sweep_id"], wait_s=300.0)
        assert final["state"] == "done"
        assert final["cache_hits"] == 2  # baseline + qprac from the store
        assert final["executed"] == final["total_jobs"] - 2
        fresh = run_sweep(
            warm, store=ResultStore(service.cache_dir / "fresh")
        )
        assert final["digest"] == sweep_digest(fresh)

    def test_attach_while_queued(self, tmp_path):
        svc = SweepService(cache_dir=tmp_path / "cache", workers=1)
        # Not started: the record stays queued, the duplicate attaches.
        first, code1 = svc.submit(GRID)
        second, code2 = svc.submit(GRID)
        assert (code1, code2) == (202, 202)
        assert second["sweep_id"] == first["sweep_id"]
        assert second["submissions"] == 2
        assert svc.metrics.attached == 1
        svc._stopped = True  # never started; nothing to drain

    def test_invalid_submission_is_400(self, service):
        snapshot, code = service.submit({"workloads": ["no.such"]})
        assert code == 400
        assert "no.such" in snapshot["error"] or snapshot["error"]
        assert service.metrics.rejected == 1

    def test_bad_fault_value_is_400_and_counted(self, service):
        snapshot, code = service.submit(dict(
            GRID, backend="remote-fleet", faults="kill-worker:after_jobs=x"
        ))
        assert code == 400
        assert "bad fault parameter after_jobs='x'" in snapshot["error"]
        assert service.metrics.submissions == 1
        assert service.metrics.rejected == 1

    def test_one_spec_from_submit_to_worker(self, tmp_path, monkeypatch):
        """Validation, dedup, the job count and the worker's run all
        use the spec built once for the request."""
        import repro.serve.protocol as protocol

        built = []
        real = protocol.build_spec

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(protocol, "build_spec", counting)
        svc = SweepService(cache_dir=tmp_path / "cache", workers=1).start()
        try:
            final = run_to_end(svc, GRID)
        finally:
            svc.stop(timeout=30.0)
        assert final["state"] == "done"
        assert len(built) == 1

    def test_unknown_backend_is_400_not_queued(self, service):
        """An unregistered backend name is refused at the wire (400,
        counted as rejected) instead of queuing a sweep that can only
        fail in its worker."""
        names = ("local-queue-typo", "local-queue", "subprocess-ssh")
        for count, name in enumerate(names, start=1):
            snapshot, code = service.submit(dict(GRID, backend=name))
            assert code == 400
            assert snapshot["error"] == (
                f"unknown sweep backend {name!r}; registered backends: "
                "pool, remote-fleet, serial"
            )
            assert service.metrics.rejected == count
        assert service.metrics.failed == 0
        assert service.status(sweep_id_for(build_spec(
            GRID["workloads"], defenses=GRID["defenses"],
            entries=GRID["entries"],
        ))) is None

    def test_queue_limit_is_429(self, tmp_path):
        svc = SweepService(cache_dir=tmp_path / "cache", queue_limit=1)
        svc.submit(GRID)  # workers not started: stays queued
        overflow, code = svc.submit(
            {"workloads": ["470.lbm"], "entries": 150}
        )
        assert code == 429
        assert "full" in overflow["error"]

    def test_failed_resubmission_meets_the_queue_limit(
        self, tmp_path, monkeypatch
    ):
        import repro.exp

        real_run_sweep = repro.exp.run_sweep
        running, release = threading.Event(), threading.Event()
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("coordinator died")
            if calls["n"] == 2:  # hold the worker: later sweeps queue
                running.set()
                release.wait(timeout=120.0)
            return real_run_sweep(*args, **kwargs)

        monkeypatch.setattr(repro.exp, "run_sweep", flaky)
        svc = SweepService(cache_dir=tmp_path / "cache", queue_limit=1)
        svc.start()
        try:
            failed = run_to_end(svc, GRID)
            assert failed["state"] == "failed"
            assert svc.submit(OTHER)[1] == 202
            assert running.wait(timeout=60.0)
            queued, code = svc.submit(THIRD)  # the queue is full now
            assert code == 202
            rejected, code = svc.submit(GRID)
            assert code == 429
            assert "full" in rejected["error"]
            assert svc.metrics.rejected == 1
            kept = svc.status(failed["sweep_id"])
            assert kept["state"] == "failed"
            assert kept["submissions"] == 1
            assert "coordinator died" in kept["error"]
            assert [s["state"] for s in svc.list_sweeps()].count(
                "queued") == 1
            release.set()
            assert svc.status(queued["sweep_id"],
                              wait_s=120.0)["state"] == "done"
            assert svc.submit(GRID)[1] == 202  # room again: it retries
            assert svc.status(failed["sweep_id"],
                              wait_s=120.0)["state"] == "done"
        finally:
            release.set()
            svc.stop(timeout=30.0)

    def test_draining_rejects_with_503(self, service):
        service.drain(timeout=30.0)
        snapshot, code = service.submit(GRID)
        assert code == 503
        assert "drain" in snapshot["error"]

    def test_failed_sweep_requeues_on_resubmit(self, service, monkeypatch):
        import repro.exp

        real_run_sweep = repro.exp.run_sweep
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("coordinator died")
            return real_run_sweep(*args, **kwargs)

        monkeypatch.setattr(repro.exp, "run_sweep", flaky)
        snapshot, _ = service.submit(GRID)
        failed = service.status(snapshot["sweep_id"], wait_s=120.0)
        assert failed["state"] == "failed"
        assert "coordinator died" in failed["error"]
        assert service.metrics.failed == 1
        retried, code = service.submit(GRID)
        assert code == 202
        final = service.status(snapshot["sweep_id"], wait_s=120.0)
        assert final["state"] == "done"
        assert final["digest"]

    def test_status_unknown_id_is_none(self, service):
        assert service.status("feedfacefeedface") is None

    def test_status_by_prefix(self, service):
        snapshot, _ = service.submit(GRID)
        service.status(snapshot["sweep_id"], wait_s=120.0)
        assert (
            service.status(snapshot["sweep_id"][:8])["sweep_id"]
            == snapshot["sweep_id"]
        )

    def test_events_cover_every_job(self, service):
        snapshot, _ = service.submit(GRID)
        service.status(snapshot["sweep_id"], wait_s=120.0)
        events, seq, terminal = service.events_since(
            snapshot["sweep_id"], 0
        )
        assert terminal
        assert seq == len(events) == snapshot["total_jobs"]
        assert {e["type"] for e in events} == {"job"}
        assert sorted(e["index"] for e in events) == [0, 1]

    def test_evicted_sweep_is_404_then_replays_from_store(
        self, http_service, monkeypatch
    ):
        monkeypatch.setattr(service_module, "MAX_FINISHED_RECORDS", 2)
        _svc, base = http_service
        finals = []
        for grid in (GRID, OTHER, THIRD):  # cap + 1 distinct sweeps
            snapshot = client.submit(base, grid)
            finals.append(client.wait_done(base, snapshot["sweep_id"],
                                           timeout=120.0))
        oldest = finals[0]
        with pytest.raises(ServiceError) as exc:
            client.status(base, oldest["sweep_id"])
        assert exc.value.status == 404
        assert client.healthz(base)["sweeps"] == 2
        again = client.submit(base, GRID)
        assert again["replay"] is False  # the record is gone: a re-run
        final = client.wait_done(base, again["sweep_id"], timeout=120.0)
        assert final["state"] == "done"
        assert final["executed"] == 0
        assert final["cache_hits"] == final["total_jobs"]
        assert final["digest"] == oldest["digest"]

    def test_cap_never_evicts_a_running_sweep(self, tmp_path, monkeypatch):
        import repro.exp

        monkeypatch.setattr(service_module, "MAX_FINISHED_RECORDS", 1)
        release = threading.Event()
        real_run_sweep = repro.exp.run_sweep

        def gated(spec, **kwargs):
            if spec.workloads[0].name == "470.lbm":
                release.wait(timeout=120.0)
            return real_run_sweep(spec, **kwargs)

        monkeypatch.setattr(repro.exp, "run_sweep", gated)
        svc = SweepService(cache_dir=tmp_path / "cache", workers=2).start()
        try:
            # The oldest record runs until released; two younger ones
            # finish past the cap of one meanwhile.
            held = svc.submit(OTHER)[0]["sweep_id"]
            done = [run_to_end(svc, grid)["sweep_id"]
                    for grid in (GRID, THIRD)]
            assert svc.status(held)["state"] in ("queued", "running")
            assert svc.status(done[0]) is None  # oldest finished goes
            assert svc.status(done[1])["state"] == "done"
            release.set()
            assert svc.status(held, wait_s=120.0)["state"] == "done"
            assert svc.status(done[1]) is None
            assert svc.sweep_count() == 1
        finally:
            release.set()
            svc.stop(timeout=30.0)

    def test_stress_many_workers_small_cap(self, tmp_path, monkeypatch):
        """More workers than cores, a short switch interval and a cap of
        two: every cached sweep completes on its worker's own store and
        exactly the cap's worth of finished records remains.  A lost
        update to the record bookkeeping breaks a count or kills a
        worker."""
        import itertools

        monkeypatch.setattr(service_module, "MAX_FINISHED_RECORDS", 2)
        workloads = ("429.mcf", "470.lbm")
        defenses = ("qprac", "moat", "qprac+proactive")
        cache = tmp_path / "cache"
        run_sweep(build_spec(list(workloads), defenses=list(defenses),
                             entries=150), store=ResultStore(cache))
        grids = [
            {"workloads": list(ws), "defenses": list(ds), "entries": 150}
            for n in (1, 2) for ws in itertools.combinations(workloads, n)
            for m in (1, 2, 3) for ds in itertools.combinations(defenses, m)
        ]
        svc = SweepService(cache_dir=cache, workers=4,
                           queue_limit=len(grids))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            svc.start()
            for grid in grids:
                assert svc.submit(grid)[1] == 202
            assert svc.drain(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
            svc.stop(timeout=30.0)
        assert all(not thread.is_alive() for thread in svc._threads)
        assert svc.metrics.completed == len(grids) == 21
        assert svc.metrics.failed == 0
        assert svc.sweep_count() == 2
        # Every sweep was a replay: nothing was appended to the store.
        assert ResultStore(cache).info().total_records == 8

    def test_writes_sweep_trace_keyed_by_id(self, service):
        from repro.obs import trace_path_for

        snapshot, _ = service.submit(GRID)
        final = service.status(snapshot["sweep_id"], wait_s=120.0)
        expected = trace_path_for(service.cache_dir, snapshot["sweep_id"])
        assert final["trace_path"] == str(expected)
        assert expected.exists()


class TestWorkerStore:
    """Each worker keeps one store, synced before every sweep."""

    @pytest.fixture
    def one_worker(self, tmp_path):
        svc = SweepService(cache_dir=tmp_path / "cache", workers=1).start()
        yield svc
        svc.stop(timeout=30.0)

    def test_start_opens_no_store(self, tmp_path, monkeypatch):
        opened = []
        real_init = ResultStore.__init__

        def counting_init(store, *args, **kwargs):
            opened.append(threading.current_thread().name)
            real_init(store, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "__init__", counting_init)
        svc = SweepService(cache_dir=tmp_path / "cache", workers=1).start()
        try:
            assert opened == []
            assert run_to_end(svc, GRID)["state"] == "done"
            assert run_to_end(svc, OTHER)["state"] == "done"
            assert opened == ["sweep-worker-0"]  # once, by the worker
        finally:
            svc.stop(timeout=30.0)

    def test_rows_from_another_process_are_cache_hits(self, one_worker):
        run_to_end(one_worker, GRID)  # opens the worker's store
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(repro.__file__).resolve().parents[1]),
            env.get("PYTHONPATH"),
        ]))
        out = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "470.lbm",
             "--defenses", "qprac", "--entries", "150",
             "--backend", "serial", "--cache-dir",
             str(one_worker.cache_dir), "--quiet", "--print-digest"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        digest = out.stdout.split("aggregate sha256: ")[1].split()[0]
        final = run_to_end(one_worker, OTHER)
        assert final["state"] == "done"
        assert final["executed"] == 0
        assert final["cache_hits"] == 2
        assert final["digest"] == digest
        assert store_block(final)["reconciled_records"] == 2

    @pytest.mark.parametrize("size", ["same", "larger"])
    def test_external_compaction_is_picked_up(self, tmp_path, size):
        # OTHER's rows come back into the service's store only through
        # another instance's compaction, which lands the file at the
        # same byte size as (or past) what the worker last synced.
        lines, digest = scratch_rows(tmp_path / "scratch", OTHER)
        width = sum(len(line) + 1 for line in lines)
        if size == "larger":
            width //= 2
        cache = tmp_path / "cache"
        empty = {"key": "filler", "payload": {"pad": ""}, "salt": "old"}
        pad = width - len(json.dumps(empty, sort_keys=True)) - 1
        ResultStore(cache).put("filler", {"pad": "x" * pad}, salt="old")
        assert (cache / "results.jsonl").stat().st_size == width
        svc = SweepService(cache_dir=cache, workers=1).start()
        try:
            run_to_end(svc, GRID)  # the worker syncs filler + GRID rows
            synced = (cache / "results.jsonl").stat().st_size
            other = ResultStore(cache)
            other.compact()  # drops the stale filler: a new inode
            for line in lines:
                row = json.loads(line)
                other.put(row["key"], row["payload"], salt=row["salt"])
            grown = (cache / "results.jsonl").stat().st_size
            assert (grown == synced) if size == "same" else grown > synced
            final = run_to_end(svc, OTHER)
            assert final["executed"] == 0
            assert final["digest"] == digest
            assert final["trace_path"] is None  # never traced: none written
            store = store_block(final)
            assert store["stale_records"] == 0
            assert store["damaged_lines"] == 0
            assert store["live_keys"] == 4
        finally:
            svc.stop(timeout=30.0)

    def test_torn_tail_is_not_served_or_counted_twice(
        self, one_worker, tmp_path
    ):
        run_to_end(one_worker, GRID)  # opens the worker's store
        lines, digest = scratch_rows(tmp_path / "scratch", OTHER)
        # A writer killed mid-append left half of an OTHER row behind.
        with (one_worker.cache_dir / "results.jsonl").open("a") as fh:
            fh.write(lines[0][: len(lines[0]) // 2])
        final = run_to_end(one_worker, OTHER)
        assert final["executed"] == 2  # the torn row is never served
        assert final["digest"] == digest
        assert store_block(final)["damaged_lines"] == 1
        later = run_to_end(one_worker, THIRD)
        assert store_block(later)["damaged_lines"] == 1
        assert ResultStore(one_worker.cache_dir).info().damaged_lines == 1

    def test_mostly_stale_store_auto_compacts_on_next_sweep(
        self, one_worker, monkeypatch
    ):
        from repro.exp.cache import AUTO_COMPACT_MIN_WASTE

        run_to_end(one_worker, GRID)  # opens the worker's store
        monkeypatch.setenv("REPRO_STORE_FSYNC", "0")
        writer = ResultStore(one_worker.cache_dir)
        for n in range(AUTO_COMPACT_MIN_WASTE):
            writer.put(f"old-{n}", {"v": n}, salt="obsolete-salt")
        final = run_to_end(one_worker, OTHER)
        store = store_block(final)
        assert store["auto_compactions"] == 1
        assert store["compaction"]["count"] == 1
        assert store["stale_records"] == 0
        on_disk = ResultStore(one_worker.cache_dir, auto_compact=False)
        assert on_disk.info().stale_records == 0
        assert len(on_disk) == 4

    def test_store_block_is_the_one_a_written_trace_holds(self, one_worker):
        final = run_to_end(one_worker, GRID)
        assert final["executed"] == 2
        header = read_trace(final["trace_path"])["header"]
        assert store_block(final) == header["metrics"]["store"]

    def test_each_sweep_reports_its_own_store_counters(self, one_worker):
        first = store_block(run_to_end(one_worker, GRID))
        assert (first["hits"], first["misses"]) == (0, 2)
        assert first["flush"]["count"] == 2
        both = dict(GRID, defenses=["qprac", "moat"])
        second = store_block(run_to_end(one_worker, both))
        assert (second["hits"], second["misses"]) == (2, 1)
        assert second["flush"]["count"] == 1
        assert second["live_keys"] == 3  # on-disk state stays whole

    def test_failed_sweep_reopens_the_store(self, one_worker, monkeypatch):
        import repro.exp

        opened = []
        real_init = ResultStore.__init__

        def counting_init(store, *args, **kwargs):
            opened.append(1)
            real_init(store, *args, **kwargs)

        real_run_sweep = repro.exp.run_sweep
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("coordinator died")
            return real_run_sweep(*args, **kwargs)

        monkeypatch.setattr(ResultStore, "__init__", counting_init)
        monkeypatch.setattr(repro.exp, "run_sweep", flaky)
        run_to_end(one_worker, GRID)
        assert run_to_end(one_worker, OTHER)["state"] == "failed"
        assert run_to_end(one_worker, THIRD)["state"] == "done"
        assert len(opened) == 2


class TestHTTP:
    def test_healthz(self, http_service):
        svc, base = http_service
        health = client.healthz(base)
        assert health["status"] == "ok"
        assert health["metrics"]["submissions"] == 0
        assert health["cache_dir"] == str(svc.cache_dir)

    def test_submit_poll_digest_equality(self, http_service, tmp_path):
        _svc, base = http_service
        snapshot = client.submit(base, GRID)
        final = client.wait_done(base, snapshot["sweep_id"], timeout=120.0)
        assert final["state"] == "done"
        assert final["digest"] == serial_digest(tmp_path)

    def test_duplicate_over_http_replays(self, http_service):
        _svc, base = http_service
        first = client.submit(base, GRID)
        client.wait_done(base, first["sweep_id"], timeout=120.0)
        again = client.submit(base, GRID)
        assert again["replay"] is True
        assert again["executed"] == 0

    def test_stream_ends_with_status_line(self, http_service):
        _svc, base = http_service
        snapshot = client.submit(base, GRID)
        lines = list(client.stream(base, snapshot["sweep_id"],
                                   timeout=120.0))
        assert lines[-1]["type"] == "status"
        assert lines[-1]["state"] == "done"
        jobs = [l for l in lines if l.get("type") == "job"]
        assert len(jobs) == snapshot["total_jobs"]

    def test_unknown_sweep_404(self, http_service):
        _svc, base = http_service
        with pytest.raises(ServiceError) as exc:
            client.status(base, "feedfacefeedface")
        assert exc.value.status == 404

    def test_invalid_body_400(self, http_service):
        _svc, base = http_service
        with pytest.raises(ServiceError) as exc:
            client.submit(base, {"workloads": ["no.such"]})
        assert exc.value.status == 400

    def test_malformed_json_400(self, http_service):
        _svc, base = http_service
        request = urllib.request.Request(
            f"{base}/sweeps", data=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10)
        assert exc.value.code == 400

    @pytest.mark.parametrize("body", [
        b"\x80abc",  # not UTF-8: a UnicodeDecodeError
        b"[" * 100_000,  # under the size cap, too deep to decode
    ], ids=["non-utf8", "deep-nesting"])
    def test_undecodable_body_400_and_service_lives(self, http_service, body):
        _svc, base = http_service
        request = urllib.request.Request(
            f"{base}/sweeps", data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10)
        assert exc.value.code == 400
        assert "invalid JSON body" in json.loads(exc.value.read())["error"]
        assert client.healthz(base)["status"] == "ok"

    def test_bad_fault_value_over_http_400(self, http_service):
        svc, base = http_service
        with pytest.raises(ServiceError) as exc:
            client.submit(base, dict(
                GRID, backend="remote-fleet",
                faults="kill-worker:after_jobs=x",
            ))
        assert exc.value.status == 400
        assert "after_jobs" in exc.value.payload["error"]
        assert svc.metrics.rejected == 1
        assert client.healthz(base)["status"] == "ok"

    def test_unknown_endpoint_404(self, http_service):
        _svc, base = http_service
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{base}/nope", timeout=10)
        assert exc.value.code == 404

    def test_drain_rejects_new_submissions(self, http_service):
        svc, base = http_service
        svc.drain(timeout=30.0)
        assert client.healthz(base)["status"] == "draining"
        with pytest.raises(ServiceError) as exc:
            client.submit(base, GRID)
        assert exc.value.status == 503

    def test_waited_post_answers_done_in_one_exchange(
        self, http_service, tmp_path
    ):
        _svc, base = http_service
        code, snapshot = post(base, GRID, "?wait=60")
        assert code == 200
        assert snapshot["state"] == "done"
        assert snapshot["replay"] is False
        assert snapshot["digest"] == serial_digest(tmp_path)
        # The POST carried the answer: no status request was made.
        assert client.healthz(base)["metrics"]["status_requests"] == 0

    def test_waited_post_answers_202_when_the_wait_runs_out(
        self, idle_http_service
    ):
        svc, base = idle_http_service
        started = time.monotonic()
        code, snapshot = post(base, GRID, "?wait=0.5")
        elapsed = time.monotonic() - started
        assert code == 202
        assert snapshot["state"] == "queued"
        assert snapshot["total_jobs"] == 2
        assert 0.5 <= elapsed < 10.0
        assert svc.metrics.status_requests == 0

    @pytest.mark.parametrize("value", ["nope", "nan"])
    def test_bad_wait_is_400_and_queues_nothing(
        self, idle_http_service, value
    ):
        svc, base = idle_http_service
        code, answer = post(base, GRID, f"?wait={value}")
        assert code == 400
        assert "wait" in answer["error"]
        assert svc.sweep_count() == 0
        assert svc.metrics.submissions == 0
        # GET reads the same parameter through the same parser.
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{base}/sweeps/abc?wait={value}",
                                   timeout=10)
        assert exc.value.code == 400

    def test_waited_post_is_capped(self, idle_http_service, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_WAIT_S", 0.3)
        _svc, base = idle_http_service
        started = time.monotonic()
        code, snapshot = post(base, GRID, "?wait=60")
        elapsed = time.monotonic() - started
        assert code == 202
        assert snapshot["state"] == "queued"
        assert 0.3 <= elapsed < 10.0

    def test_client_hanging_up_mid_wait_leaves_no_traceback(
        self, idle_http_service, capsys
    ):
        import socket

        svc, base = idle_http_service
        port = int(base.rsplit(":", 1)[1])
        body = json.dumps(GRID).encode()
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(
                b"POST /sweeps?wait=0.3 HTTP/1.0\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
        # The handler answers into the closed socket once the wait ends.
        time.sleep(1.0)
        assert "Traceback" not in capsys.readouterr().err
        assert svc.metrics.submissions == 1
        assert client.healthz(base)["status"] == "ok"

    def test_draining_waited_post_is_503_at_once(self, http_service):
        svc, base = http_service
        svc.drain(timeout=30.0)
        started = time.monotonic()
        code, answer = post(base, GRID, "?wait=60")
        assert code == 503
        assert "drain" in answer["error"]
        assert time.monotonic() - started < 10.0

    def test_post_without_wait_answers_the_queued_snapshot(
        self, http_service
    ):
        svc, base = http_service
        code, snapshot = post(base, GRID)
        assert code == 202
        assert snapshot["state"] == "queued"
        assert snapshot["sweep_id"] == sweep_id_for(build_spec(
            GRID["workloads"], defenses=GRID["defenses"],
            entries=GRID["entries"],
        ))
        final = client.wait_done(base, snapshot["sweep_id"], timeout=120.0)
        assert final["state"] == "done"
        assert svc.metrics.status_requests >= 1

    def test_chaos_fleet_through_the_service(self, http_service, tmp_path):
        # The PR-8 chaos harness must keep passing through the service
        # path: faults fire, the fleet recovers, the digest still
        # matches a clean serial run.
        _svc, base = http_service
        snapshot = client.submit(base, dict(
            GRID,
            backend="remote-fleet",
            hosts=["local"],
            faults="kill-worker:times=1",
        ))
        final = client.wait_done(base, snapshot["sweep_id"], timeout=300.0)
        assert final["state"] == "done"
        assert final["digest"] == serial_digest(tmp_path)
        assert final["fleet"]["hosts"]["local"]["status"] == "active"


class TestCli:
    def test_parser_has_service_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--workers", "2"])
        assert args.port == 0 and args.workers == 2
        args = parser.parse_args([
            "submit", "429.mcf", "--defenses", "qprac",
            "--entries", "150", "--url", "http://h:1", "--print-digest",
        ])
        assert args.workloads == ["429.mcf"] and args.print_digest
        args = parser.parse_args(["status", "abc123", "--watch"])
        assert args.sweep_id == "abc123" and args.watch
        args = parser.parse_args(["cache", "gc", "--spool-age", "60"])
        assert args.spool_age == 60.0

    def test_submission_payload_keeps_defaults_sparse(self):
        from repro.cli import _submission_payload, build_parser

        args = build_parser().parse_args(["submit", "429.mcf"])
        payload = _submission_payload(args)
        assert payload["workloads"] == ["429.mcf"]
        assert "defenses" not in payload  # service default applies
        assert "faults" not in payload

    def test_submit_and_status_against_live_server(
        self, http_service, capsys
    ):
        from repro.cli import main

        _svc, base = http_service
        rc = main([
            "submit", "429.mcf", "--defenses", "qprac",
            "--entries", "150", "--url", base, "--print-digest",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "aggregate sha256: " in out
        digest = out.split("aggregate sha256: ")[1].strip()
        rc = main(["status", "--url", base])
        assert rc == 0
        listing = capsys.readouterr().out
        assert "done" in listing
        rc = main(["status", "--url", base, "--print-digest",
                   next(iter(_svc._records))])
        assert rc == 0
        assert digest in capsys.readouterr().out

    def test_submit_no_wait_returns_the_queued_snapshot(
        self, idle_http_service, capsys
    ):
        from repro.cli import main

        _svc, base = idle_http_service
        started = time.monotonic()
        rc = main([
            "submit", "429.mcf", "--defenses", "qprac",
            "--entries", "150", "--url", base, "--no-wait",
        ])
        elapsed = time.monotonic() - started
        captured = capsys.readouterr()
        assert rc == 0
        assert elapsed < 5.0
        assert " queued: 0/2 jobs" in captured.out
        assert "submitted sweep" not in captured.err

    def test_submit_timeout_caps_the_wait(self, idle_http_service, capsys):
        from repro.cli import main

        svc, base = idle_http_service
        started = time.monotonic()
        rc = main([
            "submit", "429.mcf", "--defenses", "qprac",
            "--entries", "150", "--url", base, "--timeout", "0.5",
        ])
        elapsed = time.monotonic() - started
        err = capsys.readouterr().err
        assert rc == 1
        assert 0.5 <= elapsed < 5.0
        assert "(2 jobs, queued)" in err  # the POST's answer: not terminal
        assert "still 'queued' after 0.5s" in err
        assert svc.metrics.submissions == 1
