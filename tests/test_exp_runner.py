"""Tests for sweep execution: caching, parallelism, determinism."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.exp import (
    ResultStore,
    SweepSpec,
    result_from_dict,
    result_to_dict,
    run_sweep,
)
from repro.params import MitigationVariant
from repro.sim import simulate_workload

ENTRIES = 400


def tiny_spec(**kwargs):
    defaults = dict(
        workloads=("541.leela", "mb-adpcm"),
        variants=(MitigationVariant.QPRAC,),
        n_entries=ENTRIES,
    )
    defaults.update(kwargs)
    return SweepSpec.build(
        defaults.pop("workloads"), defaults.pop("variants"), **defaults
    )


def aggregate_bytes(sweep) -> str:
    """Canonical serialization of every outcome, for byte-level equality."""
    return json.dumps(
        [
            [o.job.label, o.job.cache_key(), result_to_dict(o.result)]
            for o in sweep.outcomes
        ],
        sort_keys=True,
    )


class TestSerialRun:
    def test_runs_all_jobs_without_store(self):
        sweep = run_sweep(tiny_spec(), jobs=1)
        assert sweep.executed == sweep.total_jobs == 4
        assert sweep.cache_hits == 0
        assert all(not o.from_cache for o in sweep.outcomes)

    def test_matches_direct_simulation(self):
        sweep = run_sweep(
            tiny_spec(workloads=("541.leela",), include_baseline=False),
            jobs=1,
        )
        direct = simulate_workload(
            "541.leela", defense=MitigationVariant.QPRAC, n_entries=ENTRIES
        )
        assert result_to_dict(sweep.outcomes[0].result) == result_to_dict(direct)

    def test_progress_reports_every_job(self):
        lines: list[str] = []
        run_sweep(tiny_spec(), jobs=1, progress=lines.append)
        # One line per job plus the executed-vs-cached summary line.
        assert len(lines) == 5
        assert all("simulated" in line for line in lines[:4])
        assert "4 executed on serial" in lines[-1]
        assert "0 from cache" in lines[-1]

    def test_progress_separates_cached_from_executed(self, tmp_path):
        spec = tiny_spec(workloads=("541.leela",))
        run_sweep(spec, jobs=1, store=ResultStore(tmp_path))
        grown = tiny_spec()  # superset: 2 cached, 2 to execute
        lines: list[str] = []
        sweep = run_sweep(
            grown, jobs=1, store=ResultStore(tmp_path), progress=lines.append
        )
        assert sum("cached" in l for l in lines[:-1]) == 2
        assert sum("simulated" in l for l in lines[:-1]) == 2
        # The summary rates only the executed jobs — cached hits must
        # not inflate backend throughput.
        assert "2 executed on serial" in lines[-1]
        assert "2 from cache" in lines[-1]
        assert sweep.exec_rate == pytest.approx(
            sweep.executed / sweep.exec_elapsed_s
        )
        assert sweep.exec_elapsed_s <= sweep.elapsed_s

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ReproError, match="jobs must be >= 1"):
            run_sweep(tiny_spec(), jobs=0)


class TestCaching:
    def test_second_sweep_is_fully_cached(self, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, jobs=1, store=ResultStore(tmp_path))
        assert first.executed == 4 and first.cache_hits == 0
        second = run_sweep(spec, jobs=1, store=ResultStore(tmp_path))
        assert second.executed == 0 and second.cache_hits == 4
        assert all(o.from_cache for o in second.outcomes)
        assert aggregate_bytes(first) == aggregate_bytes(second)

    def test_partial_cache_resumes(self, tmp_path):
        small = tiny_spec(workloads=("541.leela",))
        run_sweep(small, jobs=1, store=ResultStore(tmp_path))
        grown = tiny_spec()  # superset: adds mb-adpcm
        sweep = run_sweep(grown, jobs=1, store=ResultStore(tmp_path))
        assert sweep.cache_hits == 2
        assert sweep.executed == 2

    def test_baseline_cache_shared_across_override_grids(self, tmp_path):
        first = tiny_spec(
            workloads=("541.leela",), overrides=({"psq_size": 1},)
        )
        run_sweep(first, jobs=1, store=ResultStore(tmp_path))
        second = tiny_spec(
            workloads=("541.leela",), overrides=({"psq_size": 2},)
        )
        sweep = run_sweep(second, jobs=1, store=ResultStore(tmp_path))
        # The no-defense baseline is override-independent: reused, not rerun.
        assert sweep.cache_hits == 1
        assert sweep.executed == 1

    def test_different_overrides_do_not_share_cache(self, tmp_path):
        base = tiny_spec(workloads=("541.leela",), include_baseline=False)
        run_sweep(base, jobs=1, store=ResultStore(tmp_path))
        other = tiny_spec(
            workloads=("541.leela",), include_baseline=False,
            overrides=({"psq_size": 1},),
        )
        sweep = run_sweep(other, jobs=1, store=ResultStore(tmp_path))
        assert sweep.cache_hits == 0 and sweep.executed == 1


class TestMixedDefenseGrids:
    MIXED = ("qprac", "moat", "pride:t_rh=256", "mithril:t_rh=256")

    def test_mixed_grid_runs_and_labels_by_defense(self):
        sweep = run_sweep(
            tiny_spec(workloads=("541.leela",), variants=self.MIXED), jobs=1
        )
        table = sweep.results_by_variant()
        assert set(table) == {"baseline", *self.MIXED}
        # Distinct defenses are never conflated: each row keeps its label.
        for label in self.MIXED:
            assert table[label]["541.leela"].variant == label

    def test_mixed_grid_jobs4_matches_jobs1_byte_identical(self):
        spec = tiny_spec(workloads=("541.leela",), variants=self.MIXED)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert serial.executed == parallel.executed == 5
        assert aggregate_bytes(serial) == aggregate_bytes(parallel)

    def test_mixed_grid_replays_from_cache(self, tmp_path):
        spec = tiny_spec(workloads=("541.leela",), variants=self.MIXED)
        first = run_sweep(spec, jobs=1, store=ResultStore(tmp_path))
        assert first.cache_hits == 0
        again = run_sweep(spec, jobs=4, store=ResultStore(tmp_path))
        assert again.executed == 0 and again.cache_hits == 5
        assert aggregate_bytes(first) == aggregate_bytes(again)


class TestParallelDeterminism:
    def test_jobs4_matches_jobs1_byte_identical(self):
        spec = tiny_spec(
            variants=(MitigationVariant.QPRAC, MitigationVariant.QPRAC_NOOP)
        )
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert serial.executed == parallel.executed == 6
        assert aggregate_bytes(serial) == aggregate_bytes(parallel)

    def test_parallel_fills_cache_identically(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, jobs=4, store=ResultStore(tmp_path))
        replay = run_sweep(spec, jobs=1, store=ResultStore(tmp_path))
        assert replay.executed == 0
        assert aggregate_bytes(replay) == aggregate_bytes(run_sweep(spec, jobs=1))


class TestAggregation:
    def test_comparison_reconstitution(self):
        comparison = run_sweep(tiny_spec(), jobs=1).comparison()
        assert comparison.workloads == ["541.leela", "mb-adpcm"]
        assert set(comparison.baseline) == {"541.leela", "mb-adpcm"}
        # Slowdowns are finite numbers computed against the baseline runs.
        value = comparison.slowdown_pct("qprac", "541.leela")
        assert isinstance(value, float)

    def test_comparison_resolves_sole_override_set(self):
        sweep = run_sweep(
            tiny_spec(workloads=("541.leela",),
                      overrides=({"psq_size": 2},)),
            jobs=1,
        )
        comparison = sweep.comparison()
        assert "qprac" in comparison.results
        assert comparison.results["qprac"]["541.leela"] is not None

    def test_comparison_on_multi_set_sweep_requires_choice(self):
        sweep = run_sweep(
            tiny_spec(workloads=("541.leela",),
                      overrides=({"psq_size": 1}, {"psq_size": 2})),
            jobs=1,
        )
        with pytest.raises(ReproError, match="override sets"):
            sweep.comparison()
        chosen = sweep.comparison(overrides=(("psq_size", 2),))
        assert "qprac" in chosen.results

    def test_comparison_requires_baseline(self):
        sweep = run_sweep(tiny_spec(include_baseline=False), jobs=1)
        with pytest.raises(ReproError, match="no baseline"):
            sweep.comparison()

    def test_mean_slowdown_rejects_unknown_variant(self):
        from repro.exp import mean_slowdown_by_override

        sweep = run_sweep(tiny_spec(), jobs=1)
        with pytest.raises(ReproError, match="no 'qprac-noop' runs"):
            mean_slowdown_by_override(sweep, "qprac-noop", sweep.baselines())

    def test_result_roundtrip_is_lossless(self):
        direct = simulate_workload(
            "mb-adpcm", defense=MitigationVariant.QPRAC, n_entries=ENTRIES
        )
        restored = result_from_dict(
            json.loads(json.dumps(result_to_dict(direct)))
        )
        assert result_to_dict(restored) == result_to_dict(direct)
        assert restored.mitigations == direct.mitigations
