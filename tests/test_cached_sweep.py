"""A fully cached sweep pays only for its keys.

Differentials and contracts of the cached path:

* cache keys composed from per-object fragments against the
  ``sha256(canonical_json(identity))`` body, kept here as the reference;
* sweep digests hashed from each payload's stored text against
  re-encoding every result, also kept here;
* the sweep trace, which only a run that executes something writes;
* the store's lazy text memo, the shared expansion objects and the one
  sweep id per spec that make the above cheap.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import registered_attacks
from repro.exp import ResultStore, SweepSpec, run_sweep, sweep_digest
from repro.exp.attack import attack_job, run_attack_jobs
from repro.exp.serialize import (
    SCHEMA_VERSION,
    canonical_json,
    code_version_salt,
    environment_fingerprint,
    result_to_dict,
)
from repro.obs import list_trace_paths, read_trace, trace_path_for
from repro.params import default_config

ENTRIES = 150

#: Two grids on one workload: TWO holds ONE's jobs plus ``moat``.
ONE = dict(workloads=["429.mcf"], defenses=["qprac"])
TWO = dict(workloads=["429.mcf"], defenses=["qprac", "moat"])


def grid(workloads, defenses, **kwargs) -> SweepSpec:
    kwargs.setdefault("n_entries", ENTRIES)
    kwargs.setdefault("engine", "epoch")
    return SweepSpec.build(workloads, defenses, **kwargs)


# -- references: the bodies the fast paths replaced ------------------------
def reference_job_key(job) -> str:
    """``Job.cache_key`` as one ``canonical_json`` walk of the identity."""
    identity = {
        "schema": SCHEMA_VERSION,
        "code": code_version_salt(),
        "env": environment_fingerprint(),
        "workload": job.workload,
        "defense": job.defense.to_dict(),
        "config": job.config,
        "n_entries": job.n_entries,
        "seed": job.seed,
        "engine": job.engine.to_dict(),
    }
    if job.attack is not None:
        identity["attack"] = job.attack.to_dict()
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


def reference_attack_key(job) -> str:
    """``AttackJob.cache_key`` as one ``canonical_json`` walk."""
    identity = {
        "kind": "bandwidth_attack",
        "schema": SCHEMA_VERSION,
        "code": code_version_salt(),
        "defense": job.defense.to_dict(),
        "config": job.config,
        "measure_ns": job.measure_ns,
        "warmup_ns": job.warmup_ns,
        "pool_rows_per_bank": job.pool_rows_per_bank,
        "attack_ranks": job.attack_ranks,
        "engine": job.engine.to_dict(),
    }
    if job.attack is not None:
        identity["attack"] = job.attack.to_dict()
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


def reference_digest(sweep) -> str:
    """``sweep_digest`` as re-encoding every outcome's result."""
    return hashlib.sha256(canonical_json(
        [result_to_dict(o.result) for o in sweep.outcomes]
    ).encode()).hexdigest()


# -- composed keys -----------------------------------------------------------
_WORKLOADS = ("541.leela", "429.mcf", "470.lbm", "ycsb-a", "mb-adpcm")
_ATTACKS = tuple(entry.name for entry in registered_attacks()) + (
    "hammer:banks=2", "decoy:reads_per_trefi=4", "row-list:rows=1/3",
    "many-sided:sides=16",
)
_DEFENSES = ("qprac", "qprac+proactive", "qprac-noop", "moat",
             "moat:proactive_every_n_refs=4", "pride:t_rh=256",
             "mithril:t_rh=256", "panopticon")
#: Override values that compare (and hash) alike but encode apart:
#: ``1 == 1.0 == True``, so only an identity memo keys them correctly.
_OVERRIDES = ({}, {"psq_size": 1}, {"psq_size": 1.0}, {"psq_size": True},
              {"n_bo": 16}, {"n_bo": 16.0}, {"n_bo": 16, "n_mit": 2},
              {"abo_window_ns": 180}, {"abo_window_ns": 180.0})


@st.composite
def keyed_grids(draw) -> SweepSpec:
    workloads = draw(st.lists(st.sampled_from(_WORKLOADS), max_size=3,
                              unique=True))
    attack_names = draw(st.lists(
        st.sampled_from(_ATTACKS), min_size=0 if workloads else 1,
        max_size=2, unique_by=lambda text: text.split(":")[0],
    ))
    include_baseline = draw(st.booleans())
    defenses = draw(st.lists(
        st.sampled_from(_DEFENSES), min_size=0 if include_baseline else 1,
        max_size=3, unique=True,
    ))
    overrides = draw(st.lists(st.sampled_from(_OVERRIDES), min_size=1,
                              max_size=3))
    return SweepSpec.build(
        workloads, defenses, overrides=overrides, attacks=attack_names,
        include_baseline=include_baseline,
        n_entries=draw(st.sampled_from([100, 2000, 5000])),
        seed=draw(st.sampled_from([0, 1, 7, 2**40])),
        engine=draw(st.sampled_from(["event", "epoch"])),
    )


class TestComposedKeys:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(keyed_grids(), min_size=1, max_size=2))
    def test_batch_keys_match_the_identity_walk(self, specs):
        """Keys through one memo, as ``run_batch`` makes them (here over
        one or two grids' jobs), equal the one-walk body."""
        jobs = [job for spec in specs for job in spec.expand()]
        fragments: dict = {}
        keys = [job.cache_key(fragments) for job in jobs]
        assert keys == [reference_job_key(job) for job in jobs]
        assert [job.cache_key() for job in jobs] == keys

    def test_equal_but_differently_encoded_overrides_stay_apart(self):
        spec = grid(["470.lbm"], ["qprac"], overrides=[
            {"psq_size": 1}, {"psq_size": 1.0}, {"psq_size": True},
        ])
        jobs = spec.expand()[1:]
        fragments: dict = {}
        keys = [job.cache_key(fragments) for job in jobs]
        assert len(set(keys)) == 3
        assert keys == [reference_job_key(job) for job in jobs]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(_DEFENSES),
            st.sampled_from(range(len(_OVERRIDES))),
            st.sampled_from((None,) + _ATTACKS),
            st.sampled_from([400_000.0, 400_000, 50_000.0]),
            st.sampled_from([None, 0, 0.0, 10_000.0]),
            st.sampled_from([24, 8]),
            st.sampled_from([1, 2]),
            st.sampled_from(["event", "epoch"]),
        ),
        min_size=1, max_size=6,
    ))
    def test_attack_job_keys_match_the_identity_walk(self, params):
        # One config object per override set, shared by the jobs that
        # draw it, as a figure's job list shares its configuration.
        configs = [default_config().with_prac(**overrides)
                   for overrides in _OVERRIDES]
        jobs = [
            attack_job(
                defense, config=configs[which], engine=engine,
                attack=attack, measure_ns=measure, warmup_ns=warmup,
                pool_rows_per_bank=rows, attack_ranks=ranks,
            )
            for (defense, which, attack, measure, warmup, rows, ranks,
                 engine) in params
        ]
        fragments: dict = {}
        keys = [job.cache_key(fragments) for job in jobs]
        assert keys == [reference_attack_key(job) for job in jobs]

    def test_run_batch_keys_are_the_reference(self, tmp_path):
        """The keys a cached run stores are the reference keys."""
        spec = grid(["429.mcf", "470.lbm"], ["qprac", "moat"],
                    attacks=["hammer:banks=2"])
        store = ResultStore(tmp_path)
        run_sweep(spec, store=store)
        assert all(reference_job_key(job) in store for job in spec.expand())


class TestExpansionShares:
    def test_each_config_is_one_object_per_defense(self):
        spec = grid(["541.leela", "429.mcf", "470.lbm"],
                    ["qprac", "qprac+proactive", "moat"],
                    overrides=[{}, {"n_bo": 16}])
        configs = defaultdict(set)
        for job in spec.expand():
            configs[job.defense.label, job.overrides].add(id(job.config))
        assert all(len(ids) == 1 for ids in configs.values())
        plain = [j for j in spec.expand() if not j.overrides]
        assert all(job.config is spec.config for job in plain)

    def test_sweep_id_is_computed_once(self, monkeypatch):
        import repro.obs

        calls = []
        real = repro.obs.sweep_id_for
        monkeypatch.setattr(repro.obs, "sweep_id_for",
                            lambda spec: calls.append(spec) or real(spec))
        spec = grid(**ONE)
        assert spec.sweep_id == spec.sweep_id == real(spec)
        assert len(calls) == 1

    def test_service_and_run_share_the_sweep_id(self, tmp_path,
                                                monkeypatch):
        import repro.obs
        from repro.serve.service import SweepService

        calls = []
        real = repro.obs.sweep_id_for
        monkeypatch.setattr(repro.obs, "sweep_id_for",
                            lambda spec: calls.append(spec) or real(spec))
        service = SweepService(cache_dir=tmp_path, workers=1).start()
        try:
            snapshot, _ = service.submit(dict(ONE, entries=ENTRIES,
                                              engine="epoch"))
            final = service.status(snapshot["sweep_id"], wait_s=60.0)
        finally:
            service.stop(timeout=30.0)
        assert final["state"] == "done"
        assert len(calls) == 1


# -- digests from stored texts -----------------------------------------------
class TestDigestFromTexts:
    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("backend,jobs", [("serial", 1), ("pool", 2)])
    def test_cold_mixed_and_warm_runs(self, tmp_path, backend, jobs,
                                      telemetry):
        store = ResultStore(tmp_path)

        def run(spec, on):
            return run_sweep(spec, jobs=jobs, store=on, backend=backend,
                             telemetry=telemetry)

        runs = [
            run(grid(**ONE), store),                   # cold
            run(grid(**TWO), store),                   # mixed
            run(grid(**TWO), ResultStore(tmp_path)),   # warm, fresh open
            run(grid(**ONE), store),                   # warm, long-lived
        ]
        assert [sweep.executed for sweep in runs] == [2, 1, 0, 0]
        for sweep in runs:
            assert sweep_digest(sweep) == reference_digest(sweep)
        storeless = run(grid(**ONE), None)
        assert sweep_digest(storeless) == sweep_digest(runs[0])
        assert sweep_digest(runs[3]) == sweep_digest(runs[0])

    def test_attack_grid(self, tmp_path):
        spec = grid([], ["qprac", "moat"],
                    attacks=["hammer:banks=2", "decoy:reads_per_trefi=4"])
        cold = run_sweep(spec, store=ResultStore(tmp_path))
        warm = run_sweep(spec, store=ResultStore(tmp_path))
        assert warm.executed == 0
        assert sweep_digest(cold) == reference_digest(cold)
        assert sweep_digest(warm) == reference_digest(warm)
        assert sweep_digest(warm) == sweep_digest(cold)

    def test_key_put_again_with_another_payload(self, tmp_path):
        spec = grid(**ONE)
        store = ResultStore(tmp_path)
        cold = run_sweep(spec, store=store)
        run_sweep(spec, store=store)  # encodes the rows' texts
        key = spec.expand()[1].cache_key()
        store.put(key, dict(store.get(key), acts=12345))
        again = run_sweep(spec, store=store)
        assert again.outcomes[1].result.acts == 12345
        assert sweep_digest(again) == reference_digest(again)
        assert sweep_digest(again) != sweep_digest(cold)

    def test_store_another_instance_compacted(self, tmp_path):
        spec = grid(**ONE)
        store = ResultStore(tmp_path)
        run_sweep(spec, store=store)
        run_sweep(spec, store=store)  # encodes the rows' texts
        key = spec.expand()[0].cache_key()
        other = ResultStore(tmp_path)
        other.put(key, dict(other.get(key), acts=777))
        other.compact()
        store.refresh()  # as a service worker does before each sweep
        again = run_sweep(spec, store=store)
        assert again.executed == 0
        assert again.outcomes[0].result.acts == 777
        assert sweep_digest(again) == reference_digest(again)


class TestStoreTextMemo:
    def test_no_text_is_encoded_at_load(self, tmp_path, monkeypatch):
        import repro.exp.serialize as serialize

        spec = grid(**TWO)
        run_sweep(spec, store=ResultStore(tmp_path))
        key = spec.expand()[0].cache_key()
        real = serialize.canonical_json
        calls = []
        monkeypatch.setattr(serialize, "canonical_json",
                            lambda value: calls.append(1) or real(value))
        store = ResultStore(tmp_path)
        assert calls == []
        text = store.payload_text(key)
        assert text == store.payload_text(key) == real(store.get(key))
        assert len(calls) == 1

    def test_memo_is_dropped_when_the_entry_changes(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"v": 1})
        assert store.payload_text("k") == '{"v":1}'
        store.put("k", {"v": 1.0})
        assert store.payload_text("k") == '{"v":1.0}'
        other = ResultStore(tmp_path)
        other.put("k", {"v": True})
        store.reconcile()
        assert store.payload_text("k") == '{"v":true}'
        with pytest.raises(KeyError):
            store.payload_text("absent")

    def test_attack_jobs_cache_through_the_same_loop(self, tmp_path):
        jobs = [attack_job("qprac", measure_ns=20_000.0),
                attack_job("moat", measure_ns=20_000.0)]
        cold = run_attack_jobs(jobs, store=ResultStore(tmp_path))
        store = ResultStore(tmp_path)
        assert run_attack_jobs(jobs, store=store) == cold
        assert store.hits == 2
        assert all(reference_attack_key(job) in store for job in jobs)


# -- the trace of a run that executed nothing --------------------------------
class TestTraceOnlyWhenSomethingRan:
    def test_fully_cached_rerun_leaves_the_trace_byte_identical(
        self, tmp_path
    ):
        spec = grid(**TWO)
        cold = run_sweep(spec, store=ResultStore(tmp_path))
        path = Path(cold.trace_path)
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        for jobs, backend in ((1, "serial"), (2, "pool")):
            warm = run_sweep(spec, jobs=jobs, backend=backend,
                             store=ResultStore(tmp_path))
            assert warm.executed == 0
            assert warm.trace_path == cold.trace_path
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before

    def test_fully_cached_sweep_without_a_trace_writes_none(self, tmp_path):
        whole = run_sweep(grid(**TWO), store=ResultStore(tmp_path))
        part = run_sweep(grid(**ONE), store=ResultStore(tmp_path))
        assert part.executed == 0
        assert part.trace_path is None
        assert not trace_path_for(tmp_path, part.spec.sweep_id).exists()
        assert list_trace_paths(tmp_path) == [Path(whole.trace_path)]

    def test_partially_cached_rerun_rewrites_the_trace(self, tmp_path):
        spec = grid(**TWO)
        cold = run_sweep(spec, store=ResultStore(tmp_path))
        path = Path(cold.trace_path)
        before = path.read_bytes()
        results = tmp_path / "results.jsonl"
        results.write_text(results.read_text().splitlines(True)[0])
        rerun = run_sweep(spec, store=ResultStore(tmp_path))
        assert 0 < rerun.executed < rerun.total_jobs
        assert rerun.trace_path == cold.trace_path
        assert path.read_bytes() != before
        trace = read_trace(path)
        assert trace["header"]["metrics"]["executed"] == rerun.executed
        assert [row["from_cache"] for row in trace["jobs"]] == [
            outcome.from_cache for outcome in rerun.outcomes
        ]
