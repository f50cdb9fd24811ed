"""Tests of the benchmark's own pieces (not of the program).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import calib
import layers
import loads
import run
from tracer import Tracer

HERE = Path(__file__).resolve().parent

#: sha256 of ``calib.kernel``'s source.  Every calibrated figure is
#: relative to this kernel and ``NOMINAL_KERNEL_S``: changing either is a
#: benchmark change, and the new figures do not compare with the old.
KERNEL_SHA256 = (
    "2eba6eaa02fa4afffe1c30105427a5dd96a21d40ae688769cede21cf367fd434"
)


def test_kernel_source_is_pinned():
    assert calib.kernel_source_hash() == KERNEL_SHA256
    assert calib.NOMINAL_KERNEL_S == 0.0015
    assert calib.RUNS_PER_SAMPLE == 3


def test_kernel_is_deterministic_and_imports_nothing_from_the_program():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import calib; "
        "print(calib.kernel()); "
        "print(any(m.split('.')[0] == 'repro' for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE)], capture_output=True,
        text=True, check=True,
    ).stdout.split()
    assert out == [str(calib.kernel()), "False"]


def test_clock_scales_each_segment_by_the_samples_beside_it(monkeypatch):
    samples = iter([0.001, 0.003, 0.0015])
    monkeypatch.setattr(calib, "sample", lambda: next(samples))
    clock = calib.Clock()
    clock.start()
    first = clock.lap("op")
    second = clock.lap("op")
    first.raw_s, second.raw_s = 0.2, 0.3
    nominal = calib.NOMINAL_KERNEL_S
    assert clock.factor(first) == pytest.approx(nominal / 0.002)
    assert clock.calibrated(second) == pytest.approx(0.3 * nominal / 0.00225)
    assert clock.total_s(calibrated=False) == pytest.approx(0.5)
    assert [s.before for s in clock.ops()] == [0, 1]
    audit = clock.audit()
    assert audit["kernel_s"] == [0.001, 0.003, 0.0015]
    assert [s["raw_s"] for s in audit["segments"]] == [0.2, 0.3]


def test_percentile_is_the_harrell_davis_estimate():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == pytest.approx(50.5)
    # A Beta-weighted mean of the samples around the 90th.
    assert run.percentile(values, 0.9) == pytest.approx(90.5)
    assert run.percentile([4.0] * 30, 0.9) == pytest.approx(4.0)
    assert run.percentile([7.0], 0.9) == 7.0


def test_round_seeds_are_fresh_per_round_and_repeat_per_seed():
    seeds = [loads.round_seed("sweep-epoch", 0, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert seeds == [loads.round_seed("sweep-epoch", 0, i) for i in range(50)]
    assert seeds[0] != loads.round_seed("sweep-epoch", 1, 0)
    assert seeds[0] != loads.round_seed("sweep-event", 0, 0)


def test_replay_requests_are_distinct_sub_grids():
    load = loads.make_load("replay-serve")
    requests = [load.next_request(3) for _ in range(200)]
    keys = {(tuple(r["workloads"]), tuple(r["defenses"])) for r in requests}
    assert len(keys) == 200
    for request in requests:
        assert 1 <= len(request["workloads"]) <= 4
        assert 1 <= len(request["defenses"]) <= 4
        assert set(request["workloads"]) <= set(loads.REPLAY_WORKLOADS)
        assert set(request["defenses"]) <= set(loads.REPLAY_DEFENSES)
    again = loads.make_load("replay-serve")
    assert [again.next_request(3) for _ in range(200)] == requests


def test_tracer_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return inner() + inner()

    inner_traced = tracer.span_wrapper("inner", inner)
    outer_traced = tracer.span_wrapper(
        "outer", lambda: inner_traced() + inner_traced()
    )
    assert outer_traced() == outer()
    table = tracer.table()
    assert table["inner"]["calls"] == 2
    assert table["outer"]["calls"] == 1
    children = table["inner"]["total_ms"]
    assert table["outer"]["self_ms"] == pytest.approx(
        table["outer"]["total_ms"] - children
    )
    spans = {span[1]: span for span in tracer.spans}
    assert spans["inner"][2] == spans["outer"][0]  # parent id


def test_tracer_leaves_fold_into_totals_and_restore_undoes_patches():
    class Target:
        def hook(self, x):
            return self.hook_again(x)

        def hook_again(self, x):
            return x + 1

    original = Target.__dict__["hook"]
    tracer = Tracer()
    tracer.patch_method(Target, "hook", "leaf.hook", leaf=True)
    tracer.patch_method(Target, "hook_again", "leaf.again", leaf=True)
    parent = tracer.span_wrapper(
        "parent", lambda: [Target().hook(i) for i in range(5)]
    )
    assert parent() == [1, 2, 3, 4, 5]
    table = tracer.table()
    assert table["leaf.hook"]["calls"] == 5
    # A leaf inside a leaf is not counted twice.
    assert "leaf.again" not in table
    assert table["parent"]["self_ms"] == pytest.approx(
        table["parent"]["total_ms"] - table["leaf.hook"]["total_ms"]
    )
    tracer.restore()
    assert Target.__dict__["hook"] is original


def test_benchmark_json_names_the_workloads_and_mapped_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(loads.WORKLOADS)
    assert list(run.metric_units("per_layer")) == [
        metric.name for metric in layers.LAYER_MAP
    ]
    end_to_end = run.metric_units("end_to_end")
    for metric in layers.LAYER_MAP:
        assert set(metric.workloads) <= set(loads.WORKLOADS)
        assert set(metric.moves) <= set(end_to_end)
        assert metric.workloads or metric.note


def test_pins_cover_every_workload():
    pins = json.loads((HERE / "pins.json").read_text())
    assert set(pins) == set(loads.WORKLOADS)
    for workload, digests in pins.items():
        assert len(digests) >= 20, workload
        assert all(len(d) == 64 for d in digests)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-epoch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
