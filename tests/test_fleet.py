"""Chaos matrix for the fault-tolerant fleet tier.

The contract under test: a ``remote-fleet`` sweep aggregates
**byte-identically** with ``serial`` — clean and under every injected
fault (worker killed mid-batch, torn/corrupt result rows, dead
heartbeat channels, livelocked jobs, dropped hosts) — while the
supervision that makes that true (retries, migrations, quarantines,
pool fallback) stays visible in the backend metrics.  Plus the
retry/lease policies, the chaos grammar and the worker's typed failure
rows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.exp import ResultStore, SweepSpec, registered_backends, run_sweep
from repro.exp.serialize import canonical_json, code_version_salt, result_to_dict
from repro.exp.worker import (
    JOBS_FILE_VERSION,
    parse_worker_row,
    probe_payload,
    read_worker_rows,
    run_worker,
    write_jobs_file,
)
from repro.fleet import (
    WORKER_FAULT_ENV,
    FleetFault,
    FleetFaultPlan,
    LeasePolicy,
    RetryPolicy,
    WorkerFault,
)
from repro.fleet.coordinator import RemoteFleetBackend, evaluate_probe

ENTRIES = 300

#: Test-scale supervision: real leases are minutes, these are seconds.
FAST_RETRY = RetryPolicy(
    backoff_base_s=0.01, backoff_cap_s=0.05, cooldown_s=0.2
)
FAST_LEASE = LeasePolicy(
    heartbeat_s=0.1, lease_timeout_s=2.0, startup_grace_s=5.0,
    job_deadline_s=6.0,
)


def mixed_spec() -> SweepSpec:
    """Tiny mixed-defense grid: baseline + 2 defenses = 3 jobs."""
    return SweepSpec.build(
        ["541.leela"], ["qprac", "moat"], n_entries=ENTRIES
    )


def aggregate_bytes(sweep) -> str:
    return canonical_json([result_to_dict(o.result) for o in sweep.outcomes])


def fleet_backend(plan: str = "", **kwargs) -> RemoteFleetBackend:
    kwargs.setdefault("hosts", ["local", "local"])
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("lease", FAST_LEASE)
    return RemoteFleetBackend(
        fault_plan=FleetFaultPlan.parse(plan), **kwargs
    )


@pytest.fixture(scope="module")
def serial_aggregate() -> str:
    """Reference bytes every fleet run must reproduce."""
    return aggregate_bytes(run_sweep(mixed_spec(), jobs=1, store=None))


@pytest.fixture(autouse=True)
def _workers_can_import_this_module(monkeypatch):
    """Spawned workers unpickle module-level executors defined here, so
    the tests directory must be importable in their environment."""
    tests_dir = str(Path(__file__).resolve().parent)
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH",
        tests_dir + (os.pathsep + existing if existing else ""),
    )


# Module-level (picklable) executors for direct backend.execute tests.
def _echo(obj) -> dict:
    return {"value": obj}


def _poison(obj) -> dict:
    raise ValueError(f"poisoned job {obj!r}")


def _fail_on_b(obj) -> dict:
    if obj == "b":
        raise ValueError("poisoned b")
    return {"value": obj}


def _drop(index: int, payload: dict) -> None:
    pass


class TestRegistry:
    def test_remote_fleet_is_registered(self):
        assert "remote-fleet" in registered_backends()


class TestPolicies:
    def test_backoff_is_deterministic_and_keyed(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_cap_s=1.0, jitter_frac=0.25
        )
        assert policy.backoff_s(1, "k") == policy.backoff_s(1, "k")
        assert policy.backoff_s(1, "a") != policy.backoff_s(1, "b")
        assert policy.backoff_s(0, "k") == 0.0
        # Exponential up to the cap, jitter bounded by jitter_frac.
        assert policy.backoff_s(2, "") >= 2 * 0.1
        assert policy.backoff_s(9, "") <= 1.0 * 1.25

    def test_attempts_exhausted_counts_redispatches(self):
        policy = RetryPolicy(max_retries=2)
        assert not policy.attempts_exhausted(2)
        assert policy.attempts_exhausted(3)

    def test_lease_policy_validates(self):
        with pytest.raises(ReproError, match="heartbeat_s"):
            LeasePolicy(heartbeat_s=0.0)
        with pytest.raises(ReproError, match="lease_timeout_s"):
            LeasePolicy(heartbeat_s=1.0, lease_timeout_s=0.5)



class TestFaultPlan:
    def test_parse_grammar(self):
        plan = FleetFaultPlan.parse(
            "kill-worker:after_jobs=1,times=2;"
            "drop-host:host=local@1;heartbeat:delay=never"
        )
        kinds = [fault.kind for fault in plan.faults]
        assert kinds == ["kill-worker", "drop-host", "heartbeat"]
        assert plan.faults[0].after_jobs == 1
        assert plan.faults[0].times == 2
        assert plan.faults[1].host == "local@1"
        assert plan.faults[2].delay_s is None

    def test_unknown_kind_and_params_rejected(self):
        with pytest.raises(ReproError, match="unknown fleet fault kind"):
            FleetFaultPlan.parse("explode")
        with pytest.raises(ReproError, match="unknown fault parameter"):
            FleetFaultPlan.parse("kill-worker:wat=1")

    @pytest.mark.parametrize("plan", [
        "kill-worker:after_jobs=x", "kill-worker:after_jobs=1.5",
        "kill-worker:after_jobs=", "kill-worker:times=two",
        "heartbeat:delay=soon", "heartbeat:hold=long",
    ])
    def test_non_numeric_values_raise_repro_error(self, plan):
        key = plan.split(":")[1].split("=")[0]
        with pytest.raises(ReproError) as exc:
            FleetFaultPlan.parse(f"drop-host;{plan}")
        assert f"bad fault parameter {key}=" in str(exc.value)
        assert f"in {plan!r}" in str(exc.value)  # names the clause

    def test_cli_rejects_a_bad_value_without_a_traceback(self, capsys):
        from repro.cli import main

        plan = "kill-worker:after_jobs=x"
        assert main([
            "sweep", "541.leela", "--defenses", "qprac", "--entries", "300",
            "--backend", "remote-fleet", "--hosts", "local", "--no-cache",
            "--faults", plan,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"bad fault parameter after_jobs='x' in {plan!r}" in err
        assert "Traceback" not in err

    def test_fleet_backend_ignores_the_environment(self, monkeypatch):
        """Plans travel only in the backend instance: a variable left in
        the process environment arms nothing."""
        monkeypatch.setenv("REPRO_FLEET_FAULTS", "kill-worker")
        assert not RemoteFleetBackend().fault_plan

    def test_budgets_are_consumed(self):
        plan = FleetFaultPlan.parse("kill-worker:times=2")
        kinds = ("kill-worker",)
        assert plan.fire(kinds, "local") is not None
        assert plan.fire(kinds, "local") is not None
        assert plan.fire(kinds, "local") is None
        assert plan.fired() == {"kill-worker": 2}

    def test_host_pin_filters(self):
        plan = FleetFaultPlan.parse("drop-host:host=h2")
        assert plan.fire(("drop-host",), "h1") is None
        assert plan.fire(("drop-host",), "h2") is not None

    def test_directive_roundtrip(self, monkeypatch):
        fault = FleetFault(kind="heartbeat", delay_s=None)
        monkeypatch.setenv(WORKER_FAULT_ENV, fault.directive(hold_s=1.5))
        decoded = WorkerFault.from_env()
        assert decoded.kind == "heartbeat"
        assert decoded.delay_s is None
        assert decoded.hold_s == 1.5


class TestProbe:
    def test_probe_payload_shape(self):
        payload = probe_payload()
        assert payload["schema"] == JOBS_FILE_VERSION
        assert payload["code_salt"] == code_version_salt()
        assert payload["cpus"] >= 1

    def test_evaluate_probe_admits_and_rejects(self):
        salt = code_version_salt()
        good = probe_payload()
        assert evaluate_probe(good, salt) is None
        assert "schema" in evaluate_probe({**good, "schema": 99}, salt)
        assert "code-salt" in evaluate_probe(
            {**good, "code_salt": "zzz"}, salt
        )
        assert "python" in evaluate_probe({**good, "python": "2.7.1"}, salt)
        assert evaluate_probe("junk", salt) is not None

    def test_cli_probe_round_trips(self):
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-m", "repro", "worker", "--probe"],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        payload = json.loads(out.stdout)
        assert payload["code_salt"] == code_version_salt()


class TestWorkerHardening:
    def test_job_exception_yields_typed_row_and_batch_survives(
        self, tmp_path
    ):
        jobs_file = tmp_path / "jobs.pkl"
        out_file = tmp_path / "out.jsonl"
        write_jobs_file(
            jobs_file, _fail_on_b, [(0, "a"), (1, "b"), (2, "c")]
        )
        completed = run_worker(jobs_file, out_file, fault=None)
        assert completed == 2  # error rows do not count as completions
        rows = list(read_worker_rows(out_file))
        by_index = {row["index"]: row for row in rows}
        assert by_index[0]["payload"] == {"value": "a"}
        assert by_index[2]["payload"] == {"value": "c"}
        error = by_index[1]["error"]
        assert error["type"] == "ValueError"
        assert "poisoned b" in error["message"]
        assert "traceback" in error

    def test_heartbeat_file_is_renewed(self, tmp_path):
        jobs_file = tmp_path / "jobs.pkl"
        out_file = tmp_path / "out.jsonl"
        beat = tmp_path / "beat"
        write_jobs_file(jobs_file, _echo, [(0, "a")])
        run_worker(
            jobs_file, out_file, heartbeat_path=beat, heartbeat_s=0.05,
            fault=None,
        )
        assert beat.exists()

    def test_deterministic_failure_fails_fleet_without_retry(self):
        """Typed error row => the job is poison everywhere: the sweep
        fails with the host and traceback, no retry burned."""
        backend = fleet_backend(hosts=["local"])
        with pytest.raises(
            ReproError,
            match=r"task 0 failed deterministically on host local.*"
            r"ValueError.*poisoned",
        ):
            backend.execute([(0, "x")], _poison, _drop)

    def test_host_death_is_retried_not_fatal(self):
        """Missing rows (host death) migrate/retry; the sweep completes."""
        seen: dict[int, dict] = {}
        backend = fleet_backend("kill-worker", hosts=["local"])
        backend.execute(
            [(0, "a"), (1, "b")], _echo, lambda i, p: seen.__setitem__(i, p)
        )
        assert seen == {0: {"value": "a"}, 1: {"value": "b"}}
        assert backend.metrics["retries"] >= 1
        assert backend.metrics["faults_fired"] == {"kill-worker": 1}


_DICTS = st.dictionaries(st.sampled_from("ab"), st.integers(0, 2),
                         max_size=2)
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(0, 2),
    st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2), _DICTS,
)


#: Field values by kind; ``None`` leaves the field out.
_ROW_FIELDS = {
    "index": {"int": st.integers(-1, 9), "bool": st.booleans(),
              "float": st.floats(0, 9), "text": st.text(max_size=2),
              "null": st.none(), "absent": None},
    "payload": {"dict": _DICTS, "other": _JSON_VALUES, "absent": None},
    "error": {"dict": _DICTS, "other": _JSON_VALUES, "absent": None},
}


@st.composite
def _worker_lines(draw):
    """Output lines a worker (or a fault) may leave: objects whose
    ``index``/``payload``/``error`` fields are each present or not and
    of any JSON type, torn objects, other JSON values and garbage,
    padded with whitespace."""
    record = {}
    for name, kinds in _ROW_FIELDS.items():
        values = kinds[draw(st.sampled_from(sorted(kinds)))]
        if values is not None:
            record[name] = draw(values)
    text = json.dumps(record)
    damage = draw(st.sampled_from(("none", "none", "torn", "other", "junk")))
    if damage == "torn":
        text = text[:draw(st.integers(0, len(text)))]
    elif damage == "other":
        text = json.dumps(draw(_JSON_VALUES))
    elif damage == "junk":
        text = draw(st.text(max_size=8))
    pad = st.sampled_from(("", " ", "\t", "\r"))
    return draw(pad) + text + draw(pad)


def _worker_row_model(line: str):
    """The row a worker line stands for: an integer (not boolean)
    ``index`` and a dict ``payload`` (finished, checked first) or a
    dict ``error`` (typed failure); anything else is no row."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or type(record.get("index")) is not int:
        return None
    for field in ("payload", "error"):
        if isinstance(record.get(field), dict):
            return {"index": record["index"], field: record[field]}
    return None


class TestWorkerRowModel:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_worker_lines())
    def test_parse_worker_row_matches_the_model(self, line):
        assert parse_worker_row(line) == _worker_row_model(line)

    @pytest.mark.parametrize("index", ["true", "false"])
    def test_boolean_index_is_no_row(self, index):
        """JSON ``true`` is not an index (minimized from the property:
        Python's ``bool`` is an ``int``, so it used to map to task 1)."""
        assert parse_worker_row(f'{{"index": {index}, "payload": {{}}}}') is None


class TestChaosMatrix:
    """Digest equivalence with serial under every injected failure mode."""

    @pytest.mark.parametrize("plan,kwargs", [
        # Worker dies before its first job: whole batch re-dispatched.
        ("kill-worker", {}),
        # Worker dies mid-batch: flushed prefix kept, tail migrated.
        ("kill-worker:after_jobs=1", {"batch_size": 3}),
        # Half a result row flushed, then death: torn row == missing.
        ("truncate-result", {}),
        # Garbage row, worker continues: row skipped, job retried.
        ("corrupt-result", {}),
        # Host transport refuses once: probe fails, host re-probes.
        ("drop-host:host=local@1,times=1", {}),
        # Heartbeats never start: startup grace expires, jobs migrate.
        ("heartbeat:delay=never", {}),
        # Heartbeats fine but the job never finishes: per-job deadline
        # converts the livelock into a kill-and-retry.
        ("heartbeat:delay=0.05,hold=30", {}),
    ])
    def test_digest_matches_serial_under_fault(
        self, plan, kwargs, serial_aggregate
    ):
        backend = fleet_backend(plan, **kwargs)
        sweep = run_sweep(mixed_spec(), store=None, backend=backend)
        assert sweep.backend == "remote-fleet"
        assert aggregate_bytes(sweep) == serial_aggregate
        assert backend.metrics["faults_fired"]  # the fault really fired

    def test_clean_run_matches_serial(self, serial_aggregate):
        backend = fleet_backend()
        sweep = run_sweep(mixed_spec(), store=None, backend=backend)
        assert aggregate_bytes(sweep) == serial_aggregate
        metrics = backend.metrics
        assert metrics["retries"] == 0
        assert metrics["faults_fired"] == {}
        assert sum(
            entry["jobs"] for entry in metrics["hosts"].values()
        ) == sweep.total_jobs

    def test_retry_counters_surface_for_worker_kills(self, serial_aggregate):
        backend = fleet_backend("kill-worker:times=2")
        sweep = run_sweep(mixed_spec(), store=None, backend=backend)
        assert aggregate_bytes(sweep) == serial_aggregate
        assert backend.metrics["retries"] >= 1
        assert backend.metrics["faults_fired"] == {"kill-worker": 2}

    def test_failing_host_is_quarantined_then_recovers(
        self, serial_aggregate
    ):
        """Two straight probe failures quarantine the host; after the
        cooldown it re-probes clean and finishes the sweep itself."""
        backend = fleet_backend("drop-host:times=2", hosts=["local"])
        sweep = run_sweep(mixed_spec(), store=None, backend=backend)
        assert aggregate_bytes(sweep) == serial_aggregate
        metrics = backend.metrics
        assert metrics["quarantines"] == 1
        assert metrics["hosts"]["local"]["status"] == "active"
        assert "fallback" not in metrics

    def test_all_hosts_down_degrades_to_local_pool(
        self, serial_aggregate, capsys
    ):
        """Every probe fails until the host is retired: the sweep warns
        and finishes on the local pool, same digest."""
        backend = fleet_backend(
            "drop-host:times=99", hosts=["local"], max_quarantines=1
        )
        sweep = run_sweep(mixed_spec(), store=None, backend=backend)
        assert aggregate_bytes(sweep) == serial_aggregate
        metrics = backend.metrics
        assert metrics["hosts"]["local"]["status"] == "down"
        assert metrics["quarantines"] >= 2
        assert metrics["fallback"] == {
            "backend": "pool",
            "tasks": sweep.total_jobs,
            "workers": metrics["fallback"]["workers"],
        }
        assert "remote-fleet: all 1 host(s) unavailable" in (
            capsys.readouterr().err
        )

    def test_repeated_kills_migrate_work_to_the_healthy_host(
        self, serial_aggregate
    ):
        """A host whose workers always die is retired after one
        quarantine; everything it claimed finishes on the other host."""
        backend = fleet_backend(
            "kill-worker:host=local,times=99",
            retry=RetryPolicy(
                max_retries=6, backoff_base_s=0.01, backoff_cap_s=0.05,
                quarantine_after=1, cooldown_s=0.1,
            ),
            max_quarantines=0,
        )
        sweep = run_sweep(mixed_spec(), store=None, backend=backend)
        assert aggregate_bytes(sweep) == serial_aggregate
        metrics = backend.metrics
        fired = metrics["faults_fired"].get("kill-worker", 0)
        if fired:  # the doomed host claimed work before dying
            assert metrics["hosts"]["local"]["status"] == "down"
            assert metrics["migrations"] >= 1
        assert metrics["hosts"]["local@1"]["jobs"] == sweep.total_jobs - (
            metrics["hosts"]["local"]["jobs"]
        )

    def test_exhausted_retry_budget_is_a_clear_error(self):
        backend = fleet_backend(
            "kill-worker:times=99", hosts=["local"],
            retry=RetryPolicy(
                max_retries=1, backoff_base_s=0.01, backoff_cap_s=0.02,
                quarantine_after=99,
            ),
        )
        with pytest.raises(ReproError, match="lost 2 workers in a row"):
            backend.execute([(0, "a")], _echo, _drop)


class TestObservability:
    def test_fleet_metrics_reach_the_trace_and_render(self, tmp_path):
        from repro.obs import read_trace
        from repro.obs.metrics import fleet_backend_metrics
        from repro.obs.stats import render_fleet_status, render_stats

        backend = fleet_backend("kill-worker", hosts=["local"])
        store = ResultStore(tmp_path / "cache")
        sweep = run_sweep(mixed_spec(), store=store, backend=backend)
        assert sweep.trace_path is not None
        trace = read_trace(sweep.trace_path)
        fleet = fleet_backend_metrics(trace["header"]["metrics"])
        assert fleet is not None
        assert fleet["retries"] >= 1
        assert fleet["faults_fired"] == {"kill-worker": 1}
        status = render_fleet_status(trace, sweep.trace_path)
        assert "Fleet status" in status
        assert "local" in status
        assert "kill-worker" in status
        stats = render_stats(trace, sweep.trace_path)
        assert "Fleet hosts" in stats
        assert "backend.retries" in stats

    def test_fleet_status_explains_non_fleet_traces(self):
        from repro.obs.stats import render_fleet_status

        trace = {"header": {"sweep_id": "abc", "metrics": {
            "backend": "serial", "backend_metrics": {"workers": 1},
        }}}
        assert "no per-host fleet metrics" in render_fleet_status(trace)
