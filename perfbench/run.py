"""QPRAC reproduction benchmark: cold sweeps, hunts and served replays.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-epoch --seed 0 --seconds 10
    python3 perfbench/run.py --workload hunt-epoch --trace 1
    python3 perfbench/run.py --workload all        # every workload, one table

Workloads (see ``loads.py``): ``sweep-epoch``, ``sweep-event``,
``hunt-epoch`` and ``replay-serve``.  Each is a closed loop driven from
this one process, on the ``serial`` backend; ``replay-serve`` runs a
one-worker ``SweepService`` in process and a single client.

``--trace 0`` measures for ``--seconds`` (at least ``MIN_OPS`` ops, so
``op_ms_p90`` has ten samples beyond it) and reports the end-to-end
metrics: ``setup_s``, ``ops_per_s``, ``op_ms_p50``, ``op_ms_p90`` and
``peak_rss_mb``.  Every host time is calibrated by the kernel in
``calib.py``.  ``--trace 1`` runs a fixed amount of work twice, untraced
then traced with spans around every layer (``layers.py``), and reports
the per-layer metrics, the per-span table and the tracing overhead; its
simulated counts repeat exactly for a given seed.

Outputs are checked: pinned round digests for the default seed
(``pins.json``), a zero-execution re-run of every round after the timed
phase, and for ``replay-serve`` every response against the in-process
``sweep_digest`` of the same spec.  A miss fails the op.

Stores, audit files (raw op times and kernel samples) and spans go under
``.perfbench_work/`` in the checkout.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil, exp, lgamma, log, log1p
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

from calib import Clock, NOMINAL_KERNEL_S, kernel_source_hash  # noqa: E402
from loads import WORKLOADS, make_load  # noqa: E402

#: Fewest ops a measured run makes: ten samples lie beyond its p90.
MIN_OPS = 100
#: Fresh-interpreter set-ups per run (``setup_s`` is their median).
SETUP_PROBES = 7
#: Rounds (requests on ``replay-serve``) per phase of a traced run.
TRACE_ROUNDS = {"replay-serve": 60}
TRACE_ROUNDS_DEFAULT = 2
#: Seed whose round digests ``pins.json`` holds.
DEFAULT_SEED = 0


def metric_units(section: str) -> dict:
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``
    (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def percentile(values: list[float], fraction: float) -> float:
    """Harrell-Davis estimate of the ``fraction`` quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics.
    With about a hundred ops a run, a single order statistic at p90 falls
    between sparse cold-job samples and jumps from run to run; this
    estimate averages the few samples around it instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    steps = 32  # midpoint-rule steps per order statistic
    weights = []
    for i in range(n):
        weight = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            weight += exp(log_norm + (a - 1) * log(x) + (b - 1) * log1p(-x))
        weights.append(weight)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def build_fixture(directory: Path) -> dict:
    """Build the replay store in a child process (before set-up)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "fixture.py"), str(directory)],
        env=child_env(), capture_output=True, text=True, timeout=150,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, store_dir, probes: int):
    """Time ``probes`` fresh-interpreter set-ups; returns (clock,
    reports).  The kernel runs between probes, after each has exited."""
    clock = Clock()
    clock.start()
    reports = []
    for index in range(probes):
        directory = store_dir(index)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload,
             str(directory)],
            env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()

        def finish(proc=proc):
            proc.stdout.read()
            proc.wait(timeout=60)

        clock.lap("setup", settle=finish)
        proc.stdout.close()
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        reports.append(json.loads(line))
    return clock, reports


def run_phase(load, seed: int, first_index: int, directory: Path, *,
              seconds: float | None = None, rounds: int | None = None):
    """One timed phase: rounds until ``seconds`` are spent (and at least
    ``MIN_OPS`` ops are done), or exactly ``rounds`` rounds."""
    load.open(directory)
    clock = Clock()
    records = []
    try:
        clock.start()
        started = time.perf_counter()
        ops = 0
        while True:
            if rounds is not None:
                if len(records) >= rounds:
                    break
            elif ops >= MIN_OPS:
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / len(records) > seconds:
                    break
            record = load.run_round(clock, seed, first_index + len(records))
            records.append(record)
            ops += record.ops
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    finally:
        load.close()
    return clock, records, peak_rss_mb


def verify(load, seed: int, records, pins: list[str]) -> list[str]:
    """Untimed checks; marks failed ops on the records, returns notes."""
    notes = []
    for record in records:
        if record.result is None:
            notes.append(f"round {record.index}: {record.error}")
            continue
        problem = None
        try:
            record.digest = load.digest(record)
            executed, again = load.replay(seed, record)
            if executed:
                problem = f"re-run executed {executed} job(s)"
            elif again != record.digest:
                problem = "re-run digest differs"
            elif seed == DEFAULT_SEED and record.index < len(pins) \
                    and pins[record.index] != record.digest:
                problem = "digest differs from pins.json"
        except Exception as exc:  # a failed check, reported not raised
            problem = f"{type(exc).__name__}: {exc}"
        if record.error and problem is None:
            problem = record.error
        if problem is not None:
            record.failed = record.ops
            notes.append(f"round {record.index}: {problem}")
    return notes


def load_pins(workload: str) -> list[str]:
    path = HERE / "pins.json"
    if not path.exists():
        return []
    return json.loads(path.read_text()).get(workload, [])


def end_to_end(setup_clock, clock, records, peak_rss_mb) -> dict:
    ops = clock.ops()
    completed = sum(r.ops - r.failed for r in records)
    op_ms = [clock.calibrated(s) * 1e3 for s in ops]
    return {
        "setup_s": statistics.median(
            setup_clock.calibrated(s) for s in setup_clock.segments
        ),
        "ops_per_s": completed / clock.total_s(),
        "op_ms_p50": percentile(op_ms, 0.5),
        "op_ms_p90": percentile(op_ms, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }


def raw_summary(clock) -> str:
    raw_ms = [s.raw_s * 1e3 for s in clock.ops()]
    kernel = clock.kernel_s
    return (
        "raw (uncalibrated):"
        f" ops_per_s={len(raw_ms) / clock.total_s(False):.4f}"
        f" op_ms_p50={percentile(raw_ms, 0.5):.3f}"
        f" op_ms_p90={percentile(raw_ms, 0.9):.3f}; kernel samples:"
        f" n={len(kernel)} median={statistics.median(kernel) * 1e3:.3f}ms"
        f" min={min(kernel) * 1e3:.3f}ms max={max(kernel) * 1e3:.3f}ms"
        f" (nominal {NOMINAL_KERNEL_S * 1e3:.3f}ms)"
    )


def print_metrics(metrics: dict, units: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.4f}  {units[name]}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def pin_to_one_cpu() -> int | None:
    """Keep this process, its threads and its set-up probes on one CPU.

    The host's CPUs drift in speed independently of each other, so the
    kernel must sample the CPU the program ran on.  Returns the CPU, or
    ``None`` where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args) -> int:
    cpu = pin_to_one_cpu()
    # An installed program imports from bytecode.  Compile it once (a
    # no-op when up to date), even where PYTHONDONTWRITEBYTECODE is set,
    # so that setup_s never includes compiling the sources.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print(f"perfbench: cannot compile {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = child_env()["PYTHONPATH"]
    import repro.cli  # noqa: F401 - load before timing

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    load = make_load(args.workload)
    replay = args.workload == "replay-serve"
    fixture = None
    if replay:
        store_dir = workdir / "store"
        fixture = build_fixture(store_dir)

        def probe_dir(_index):
            return store_dir
    else:
        def probe_dir(index):
            return workdir / f"probe-{index}"

    probes = SETUP_PROBES if not args.trace else 3
    setup_clock, reports = measure_setup(args.workload, probe_dir, probes)
    pins = load_pins(args.workload)

    def phase_dir(tag):
        return workdir / "store" if replay else workdir / f"store-{tag}"

    notes: list[str] = []
    if not args.trace:
        clock, records, peak_rss_mb = run_phase(
            load, args.seed, 0, phase_dir("timed"), seconds=args.seconds,
        )
        notes += verify(load, args.seed, records, pins)
        all_records = records
    else:
        from layers import (
            TracedPhase,
            instrument,
            layer_metrics,
            store_counters,
        )
        from tracer import Tracer

        rounds = TRACE_ROUNDS.get(args.workload, TRACE_ROUNDS_DEFAULT)
        plain_clock, plain, _ = run_phase(
            load, args.seed, 0, phase_dir("untraced"), rounds=rounds,
        )
        notes += verify(load, args.seed, plain, pins)
        tracer = Tracer()
        stores: list = []
        instrument(tracer, stores)
        first_request = len(getattr(load, "latency_s", ()))
        try:
            clock, records, peak_rss_mb = run_phase(
                load, args.seed, rounds, phase_dir("traced"), rounds=rounds,
            )
        finally:
            tracer.restore()
        # Before the re-runs of verify() read the same stores.
        counters = store_counters(stores)
        notes += verify(load, args.seed, records, pins)
        all_records = plain + records
        per_op_plain = plain_clock.total_s() / max(1, len(plain_clock.ops()))
        per_op_traced = clock.total_s() / max(1, len(clock.ops()))
        cli_ms = statistics.median(
            report["cli_import_s"] * setup_clock.factor(segment) * 1e3
            for report, segment in zip(reports, setup_clock.segments)
        )
        phase = TracedPhase(
            tracer=tracer, clock=clock, store_counters=counters,
            outcomes=[o for r in records for o in r.outcomes],
            client_latency_s=list(getattr(load, "latency_s", ()))[
                first_request:],
            polls=list(getattr(load, "polls", ()))[first_request:],
            cli_import_ms=cli_ms,
            overhead_pct=(per_op_traced / per_op_plain - 1) * 100,
        )
        metrics, table = layer_metrics(phase)
        tracer.write(workdir / "spans.jsonl")

    attempted = sum(r.ops for r in all_records)
    failed = sum(r.failed for r in all_records)
    correct = failed == 0 and not notes
    ops = clock.ops()
    beyond = len(ops) - ceil(0.9 * len(ops))

    print(f"perfbench {args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print(f"  store and traces: {workdir.relative_to(ROOT)} (in the "
          f"checkout); kernel {kernel_source_hash()[:16]}; pinned to "
          f"CPU {cpu}")
    if fixture is not None:
        print(f"  replay store: {fixture['rows']} rows "
              f"({fixture['grid_rows']} grid rows)")
    print(f"  ops: {attempted} attempted, {failed} failed, "
          f"{len(all_records)} rounds; timed phase has {len(ops)} ops, "
          f"{beyond} beyond p90")
    for note in notes:
        print(f"  FAILED {note}")
    if not args.trace:
        metrics = end_to_end(setup_clock, clock, records, peak_rss_mb)
        units = metric_units("end_to_end")
        print_metrics(metrics, units)
    else:
        from layers import LAYER_MAP

        units = metric_units("per_layer")
        print(f"  tracing overhead: {metrics['trace.overhead_pct']:+.2f}% "
              "per op, traced vs untraced phase")
        print(f"  {'span':<28} {'calls':>10} {'total ms':>12} "
              f"{'self ms':>12}")
        for name in sorted(table):
            row = table[name]
            print(f"  {name:<28} {row['calls']:>10} "
                  f"{row['total_ms']:>12.3f} {row['self_ms']:>12.3f}")
        print_metrics(metrics, units)
        for metric in LAYER_MAP:
            target = (f"{', '.join(metric.moves)} on "
                      f"{', '.join(metric.workloads)}"
                      if metric.workloads else metric.note)
            print(f"  map {metric.name} -> {target}")
        print(f"  spans: {(workdir / 'spans.jsonl').relative_to(ROOT)}")
    print("  " + raw_summary(clock))
    audit = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_sha256": kernel_source_hash(),
        "cpu": cpu,
        "work_dir": str(workdir.relative_to(ROOT)),
        "setup": setup_clock.audit(),
        "setup_probes": reports,
        "timed": clock.audit(),
        "rounds": [
            {"index": r.index, "ops": r.ops, "failed": r.failed,
             "digest": r.digest, "error": r.error}
            for r in all_records
        ],
    }
    (workdir / "audit.json").write_text(json.dumps(audit, indent=1))
    print(f"  audit: {(workdir / 'audit.json').relative_to(ROOT)}")
    for stale in workdir.glob("probe-*"):
        shutil.rmtree(stale, ignore_errors=True)
    for stale in workdir.glob("store*"):
        shutil.rmtree(stale, ignore_errors=True)
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table at the end."""
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if not proc.stdout.strip():
            return proc.returncode or 1
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'workload':<14} {'attempted':>9} {'failed':>6}  "
          + "  ".join(f"{n:>14}" for n in names))
    for workload, row in rows.items():
        print(f"{workload:<14} {row['attempted']:>9} {row['failed']:>6}  "
              + "  ".join(
                  f"{row['metrics'][n]['value']:>10.4f} "
                  f"{row['metrics'][n]['unit']:<3}" for n in names))
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {
            f"{workload}.{name}": value
            for workload, row in rows.items()
            for name, value in row["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
