"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro security          # Figures 6-8, 13: analytical bounds
    python -m repro panopticon        # Figures 2, 3, 23: Panopticon attacks
    python -m repro sweep 429.mcf ... # Figure 14/15-style defense sweep
    python -m repro attacks           # list the registered attack patterns
    python -m repro hunt              # worst-pattern search per defense
    python -m repro defenses          # list the registered defenses
    python -m repro backends          # list the registered sweep backends
    python -m repro engines           # list the registered sim engines
    python -m repro worker ...        # execute a serialized job batch
    python -m repro cache info        # result-cache health metrics
    python -m repro cache gc          # compact cache, reclaim spool
    python -m repro serve             # HTTP sweep service (submit/stream)
    python -m repro submit 429.mcf    # POST a sweep to the service
    python -m repro status <id>       # poll/stream a submitted sweep
    python -m repro bench             # simulator throughput benchmark
    python -m repro stats             # summarize a sweep trace
    python -m repro fleet status      # per-host fleet supervision counters
    python -m repro trace             # dump per-request latency samples
    python -m repro bandwidth         # Figure 19: performance attacks
    python -m repro storage           # Table IV: tracker SRAM
    python -m repro workloads         # list the 57-workload suite

Defenses are addressed by registry name with optional parameters, e.g.
``--defenses qprac moat:proactive_every_n_refs=4 mithril:t_rh=256``;
simulation engines likewise (``--engine epoch``).

Every subcommand prints the same plain-text tables the benchmark harness
writes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.analysis.report import render_series, render_table
from repro.errors import ReproError


def _print_registry(title: str, entries, extra=None) -> int:
    """List registry entries: name, parameters, the optional ``extra``
    ``(header, cell function)`` column, summary."""
    headers = ["name", "parameters"] + ([extra[0]] if extra else [])
    rows = [
        [entry.name, ", ".join(p.human for p in entry.params) or "-"]
        + ([extra[1](entry)] if extra else [])
        + [entry.summary]
        for entry in entries
    ]
    print(render_table(title, headers + ["summary"], rows))
    return 0


def _cmd_security(args: argparse.Namespace) -> int:
    from repro.security import figure8_series

    nbo_values = tuple(args.nbo) if args.nbo else (1, 2, 4, 8, 16, 32, 64, 128, 256)
    base = figure8_series(nbo_values=nbo_values)
    pro = figure8_series(proactive=True, nbo_values=nbo_values)
    series = {}
    for n_mit in (1, 2, 4):
        series[f"PRAC-{n_mit}"] = base[n_mit]
        series[f"QPRAC-{n_mit}+Pro"] = pro[n_mit]
    print(render_series(
        "Secure T_RH vs N_BO (paper Figures 8 and 13)", "N_BO", series
    ))
    return 0


def _cmd_attacks(args: argparse.Namespace) -> int:
    from repro.attacks import registered_attacks

    return _print_registry(
        "Registered attack patterns (select with --attacks "
        "name:key=value,...)",
        registered_attacks(),
        ("bandwidth", lambda entry: "yes" if entry.rows is not None else ""),
    )


def _cmd_panopticon(args: argparse.Namespace) -> int:
    from repro.security import figure2_series, figure3_series, figure23_series

    fig2 = figure2_series(queue_sizes=(4, 8, 16), t_bits=(6, 8, 10))
    print(render_series(
        "Toggle+Forget: max unmitigated ACTs (Figure 2)", "queue_size",
        {f"t_bit={t}": pts for t, pts in fig2.items()},
    ))
    print()
    fig3 = figure3_series(queue_sizes=(4, 16, 64))
    print(render_series(
        "Fill+Escape: max unmitigated ACTs (Figure 3)", "threshold",
        {f"Q={q}": pts for q, pts in fig3.items()},
    ))
    print()
    fig23 = figure23_series(queue_sizes=(4, 16, 64))
    print(render_series(
        "Blocking-t-bit attack (Figure 23)", "threshold",
        {f"Q={q}": pts for q, pts in fig23.items()},
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.exp import ResultStore, run_sweep, stderr_progress
    from repro.serve.protocol import SweepRequest

    # The request the sweep service would parse from `repro submit`
    # with these options: one spec, one backend, the same refusals.
    request = SweepRequest.from_payload(_submission_payload(args))
    spec = request.spec()
    store = None if args.no_cache else ResultStore(args.cache_dir)
    progress = None if args.quiet else stderr_progress
    sweep = run_sweep(spec, jobs=request.jobs, store=store,
                      progress=progress,
                      backend=request.build_backend(args.cache_dir),
                      hosts=request.hosts, telemetry=request.trace)
    comparison = sweep.comparison()
    print(render_table(
        f"Orchestrated sweep (N_BO={args.nbo_value}, PRAC-{args.n_mit}, "
        f"{args.entries} accesses/core, jobs={args.jobs}, "
        f"backend={sweep.backend}, engine={spec.engine.label})",
        ["workload", "defense", "slowdown %", "alerts/tREFI"],
        [
            [name, defense.label,
             round(comparison.slowdown_pct(defense.label, name), 2),
             round(comparison.results[defense.label][name]
                   .alerts_per_trefi, 3)]
            for name in comparison.workloads
            for defense in spec.defenses
        ],
    ))
    cache_note = "cache disabled" if store is None else f"cache {store.path}"
    rate = (
        f" ({sweep.exec_rate:.2f} jobs/s)" if sweep.executed else ""
    )
    # Executed and cached jobs are reported — and rated — separately:
    # only simulated jobs count toward the backend's throughput.
    print(
        f"{sweep.total_jobs} jobs: {sweep.executed} simulated on "
        f"{sweep.backend} in {sweep.exec_elapsed_s:.2f}s{rate}, "
        f"{sweep.cache_hits} from cache ({cache_note}); "
        f"total {sweep.elapsed_s:.2f}s"
    )
    if sweep.trace_path is not None:
        print(f"sweep trace {sweep.trace_path}")
    if args.print_digest:
        from repro.exp import sweep_digest

        print(f"aggregate sha256: {sweep_digest(sweep)}")
    return 0


def _cmd_hunt(args: argparse.Namespace) -> int:
    import json

    from repro.attacks.hunt import DEFAULT_PATTERNS, run_hunt
    from repro.exp import ResultStore, stderr_progress
    from repro.params import default_config

    config = default_config().with_prac(n_bo=args.nbo_value, n_mit=args.n_mit,
                                        abo_delay=None)
    defenses = tuple(args.defenses) if args.defenses else ("qprac",)
    patterns = tuple(args.attacks) if args.attacks else DEFAULT_PATTERNS
    store = None if args.no_cache else ResultStore(args.cache_dir)
    progress = None if args.quiet else stderr_progress
    hunt = run_hunt(
        defenses,
        patterns=patterns,
        config=config,
        n_entries=args.entries,
        seed=args.seed,
        engine=args.engine,
        store=store,
        backend=args.backend,
        jobs=args.jobs,
        progress=progress,
    )
    rows = []
    for defense in sorted(hunt.rankings):
        for rank, score in enumerate(hunt.rankings[defense], start=1):
            rows.append([
                defense, rank, score.pattern,
                round(score.alerts_per_trefi, 3),
                round(score.slowdown_pct, 2),
                score.psq_high_water,
            ])
    print(render_table(
        f"Worst-pattern search ({len(patterns)} patterns, "
        f"N_BO={args.nbo_value}, PRAC-{args.n_mit}, "
        f"{args.entries} accesses/core, engine={args.engine})",
        ["defense", "rank", "pattern", "alerts/tREFI", "slowdown %",
         "psq high-water"],
        rows,
    ))
    for defense in sorted(hunt.rankings):
        worst = hunt.worst(defense)
        print(f"worst vs {defense}: {worst.pattern} "
              f"({worst.alerts_per_trefi:.3f} alerts/tREFI, "
              f"{worst.slowdown_pct:.2f}% slowdown)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(hunt.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.print_digest:
        print(f"report sha256: {hunt.digest()}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.exp.backend import backend_summaries

    rows = [[name, summary] for name, summary in backend_summaries()]
    print(render_table(
        "Registered sweep backends (select with --backend)",
        ["name", "summary"],
        rows,
    ))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import json

    from repro.exp.worker import probe_payload, run_worker

    if args.probe:
        print(json.dumps(probe_payload(), sort_keys=True))
        return 0
    if not args.jobs_file or not args.out:
        raise ReproError("worker needs --jobs-file and --out (or --probe)")
    run_worker(args.jobs_file, args.out,
               progress=None if args.quiet else stderr_progress_line,
               heartbeat_path=args.heartbeat_file,
               heartbeat_s=args.heartbeat_s)
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.sim.engines import registered_engines

    return _print_registry(
        "Registered simulation engines (select with --engine "
        "name:key=value,...)",
        registered_engines(),
    )


def _cmd_defenses(args: argparse.Namespace) -> int:
    from repro.defenses import registered_defenses

    return _print_registry(
        "Registered defenses (select with --defenses name:key=value,...)",
        registered_defenses(),
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.exp import ResultStore, gc_spool

    store = ResultStore(args.cache_dir)
    if args.action == "gc":
        before = store.info()
        after = store.compact()
        reclaimed = before.size_bytes - after.size_bytes
        print(
            f"compacted {store.path}: kept {after.live_keys} live entries, "
            f"dropped {before.dead_records} dead records, "
            f"{before.stale_records} stale entries and "
            f"{before.damaged_lines} damaged lines "
            f"({reclaimed} bytes reclaimed)"
        )
        # A SIGKILLed coordinator leaks its fleet spool directory; age
        # (plus heartbeat liveness inside gc_spool) keeps a *running*
        # sweep's spool safe from collection.
        from repro.exp.cache import SPOOL_GC_MIN_AGE_S

        min_age = (
            SPOOL_GC_MIN_AGE_S if args.spool_age is None else args.spool_age
        )
        removed, spool_bytes = gc_spool(store.directory, min_age_s=min_age)
        if removed:
            print(
                f"removed {removed} orphaned fleet spool dir(s) "
                f"({spool_bytes} bytes reclaimed)"
            )
        return 0
    # Health comes from the same metrics block SweepMetrics embeds, so
    # `cache info` and `repro stats` can never disagree on a number.
    from repro.obs.stats import _store_rows

    health = store.health()
    print(render_table(
        f"Result cache {health['path']}",
        ["metric", "value"],
        _store_rows(health),
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import SweepService
    from repro.serve.http import serve

    service = SweepService(
        cache_dir=args.cache_dir,
        workers=args.workers,
        queue_limit=args.queue_limit,
    )

    def ready(host: str, port: int) -> None:
        print(f"sweep service on http://{host}:{port} "
              f"(cache {service.cache_dir}, {service.workers} worker(s)); "
              "SIGTERM drains", file=sys.stderr)

    return serve(service, host=args.host, port=args.port,
                 quiet=args.quiet, ready=ready)


def _submission_payload(args: argparse.Namespace) -> dict:
    """argparse namespace -> the service's JSON request body (grid
    fields only when given, so service defaults stay authoritative)."""
    payload: dict = {
        "workloads": list(args.workloads),
        "entries": args.entries,
        "nbo": args.nbo_value,
        "n_mit": args.n_mit,
        "seed": args.seed,
        "engine": args.engine,
        "backend": args.backend,
        "jobs": args.jobs,
        "trace": args.trace,
    }
    if args.defenses is not None:
        payload["defenses"] = list(args.defenses)
    if args.attacks is not None:
        payload["attacks"] = list(args.attacks)
    if args.hosts is not None:
        payload["hosts"] = list(args.hosts)
    if args.faults is not None:
        payload["faults"] = args.faults
    return payload


def _print_service_snapshot(snapshot: dict,
                            print_digest: bool = False) -> None:
    """Shared submit/status rendering of one status payload."""
    sweep_id = snapshot.get("sweep_id", "?")
    state = snapshot.get("state", "?")
    line = (
        f"sweep {sweep_id[:12]} {state}: "
        f"{snapshot.get('completed', 0)}/{snapshot.get('total_jobs', '?')} "
        f"jobs, {snapshot.get('executed', 0)} executed, "
        f"{snapshot.get('cache_hits', 0)} from cache"
    )
    if snapshot.get("replay"):
        line += " (replayed from store)"
    print(line)
    if state == "failed" and snapshot.get("error"):
        print(f"error: {snapshot['error']}", file=sys.stderr)
    aggregates = snapshot.get("aggregates")
    if aggregates:
        print(render_table(
            f"Sweep {sweep_id[:12]} aggregates",
            ["workload", "defense", "slowdown %", "alerts/tREFI"],
            [
                [row.get("workload"), row.get("defense"),
                 row.get("slowdown_pct"), row.get("alerts_per_trefi")]
                for row in aggregates
            ],
        ))
    if snapshot.get("trace_path"):
        print(f"sweep trace {snapshot['trace_path']}")
    if print_digest and snapshot.get("digest"):
        # Same line format as `repro sweep --print-digest`: CI diffs
        # the two outputs directly.
        print(f"aggregate sha256: {snapshot['digest']}")


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import client

    # The POST itself long-polls, so a sweep that finishes within its
    # wait costs one exchange; --timeout caps that wait as it caps the
    # later polls, and --no-wait sends none.
    started = time.monotonic()
    wait_s = None if args.no_wait else client.POLL_WAIT_S
    if wait_s is not None and args.timeout is not None:
        wait_s = min(wait_s, args.timeout)
    snapshot = client.submit(args.url, _submission_payload(args),
                             wait_s=wait_s)
    state = snapshot.get("state", "?")
    if args.no_wait or state in ("done", "failed"):
        _print_service_snapshot(snapshot, print_digest=args.print_digest)
        return 0 if state != "failed" else 1
    sweep_id = snapshot["sweep_id"]
    print(f"submitted sweep {sweep_id[:12]} "
          f"({snapshot.get('total_jobs', '?')} jobs, {state})",
          file=sys.stderr)
    final = client.wait_done(args.url, sweep_id, timeout=args.timeout,
                             started=started)
    _print_service_snapshot(final, print_digest=args.print_digest)
    return 0 if final.get("state") == "done" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.serve import client

    if args.sweep_id is None:
        sweeps = client.list_sweeps(args.url)
        if not sweeps:
            print("no sweeps submitted")
            return 0
        print(render_table(
            f"Sweeps at {args.url}",
            ["sweep id", "state", "jobs", "done", "executed", "cached",
             "submissions"],
            [
                [s.get("sweep_id", "?")[:12], s.get("state"),
                 s.get("total_jobs"), s.get("completed"),
                 s.get("executed"), s.get("cache_hits"),
                 s.get("submissions")]
                for s in sweeps
            ],
        ))
        return 0
    if args.watch:
        final: dict | None = None
        for event in client.stream(args.url, args.sweep_id):
            if event.get("type") == "status":
                final = event
                break
            print(f"[{event.get('completed')}/{event.get('total')}] "
                  f"{event.get('label')} "
                  f"{'cached' if event.get('cached') else 'simulated'}",
                  file=sys.stderr)
        if final is not None:
            _print_service_snapshot(final, print_digest=args.print_digest)
            return 0 if final.get("state") == "done" else 1
        return 1
    snapshot = client.status(args.url, args.sweep_id, wait_s=args.wait)
    _print_service_snapshot(snapshot, print_digest=args.print_digest)
    return 0 if snapshot.get("state") != "failed" else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        DEFAULT_CELLS,
        DEFAULT_ENTRIES,
        QUICK_ENTRIES,
        compare_reports,
        latest_trajectory_for_engine,
        load_report,
        regressions,
        run_bench,
        write_report,
    )

    entries = args.entries
    if entries is None:
        entries = QUICK_ENTRIES if args.quick else DEFAULT_ENTRIES
    repeats = args.repeats
    if repeats is None:
        repeats = 1 if args.quick else 5
    report = run_bench(
        cells=DEFAULT_CELLS,
        n_entries=entries,
        repeats=repeats,
        quick=args.quick,
        progress=None if args.quiet else stderr_progress_line,
        backend=args.backend,
        workers=args.jobs,
        hosts=args.hosts,
        engine=args.engine,
        telemetry=not args.no_telemetry,
    )
    from repro.obs.stats import format_ns

    rows = [
        [
            c.workload, c.defense, c.n_entries, round(c.wall_s, 3),
            c.events, f"{c.events_per_s:,.0f}",
            format_ns((c.latency or {}).get("p50_ns")),
            format_ns((c.latency or {}).get("p99_ns")),
        ]
        for c in report.cells
    ]
    print(render_table(
        f"Simulator benchmark ({entries} accesses/core, "
        f"best of {repeats}, engine={report.engine})",
        ["workload", "defense", "entries", "wall s", "work units",
         "units/s", "p50", "p99"],
        rows,
    ))
    if report.reference_event is not None:
        speedup = report.speedup_vs_event
        print(
            f"reference cell vs event engine: "
            f"{report.reference_event.wall_s:.3f}s event / "
            f"{report.reference.wall_s:.3f}s {report.engine} = "
            f"x{speedup:.2f}"
        )

    previous_path = None
    if args.baseline:
        previous_path = args.baseline
    else:
        # The newest point *of this engine*: wall clocks only compare
        # within one engine, so a different engine's newer point must
        # never shadow the real baseline (the gate would no-op).
        previous_path = latest_trajectory_for_engine(
            args.out_dir, report.engine
        )

    status = 0
    if previous_path is not None and not args.no_compare:
        previous = load_report(previous_path)
        if args.baseline and previous.engine != report.engine:
            # An explicitly-passed baseline of the wrong engine must
            # fail loudly: pairing zero cells would leave a regression
            # gate (CI's per-engine bench-smoke legs) permanently
            # green.  The default baseline is engine-matched upstream.
            print(
                f"error: baseline {previous_path} was recorded under "
                f"engine {previous.engine!r}, this run is "
                f"{report.engine!r}; wall clocks only compare within "
                "one engine (re-record the baseline with "
                f"--engine {report.engine})",
                file=sys.stderr,
            )
            return 1
        comparisons = compare_reports(report, previous)
        if previous.host != report.host:
            print(
                f"note: baseline {previous_path} was recorded on a "
                "different host; wall-clock comparison is approximate",
                file=sys.stderr,
            )
        if comparisons:
            print()
            print(render_table(
                f"vs {previous_path}",
                ["cell", "wall s", "prev s", "speedup", "regression %"],
                [
                    [
                        c.key, round(c.wall_s, 3),
                        round(c.previous_wall_s, 3),
                        f"{c.speedup:.2f}x", round(c.regression_pct, 1),
                    ]
                    for c in comparisons
                ],
            ))
            regressed = regressions(comparisons, args.threshold)
            if regressed:
                worst = max(regressed, key=lambda c: c.regression_pct)
                print(
                    f"REGRESSION: {len(regressed)} cell(s) slower than "
                    f"{previous_path} by more than {args.threshold}% "
                    f"(worst: {worst.key} +{worst.regression_pct:.1f}%)",
                    file=sys.stderr,
                )
                status = 1
        else:
            print(
                f"note: no comparable cells in {previous_path} "
                "(different entry counts or engine)",
                file=sys.stderr,
            )

    if not args.no_write:
        path = write_report(report, args.out_dir)
        print(f"wrote {path}")
    return status


def stderr_progress_line(line: str) -> None:
    print(line, file=sys.stderr)


def _print_trace(args: argparse.Namespace, render) -> int:
    """Shared stats/fleet/trace body: selector -> parsed trace ->
    ``render(trace, path)``."""
    from repro.exp import ResultStore
    from repro.obs import read_trace, resolve_trace_path

    store = ResultStore(args.cache_dir)
    try:
        path = resolve_trace_path(store.directory, args.selector)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render(read_trace(path), path))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.stats import render_stats

    return _print_trace(args, render_stats)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.obs.stats import render_fleet_status

    return _print_trace(args, render_fleet_status)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.stats import render_trace

    return _print_trace(args, lambda trace, path: render_trace(
        trace, job=args.job, limit=args.limit, path=path
    ))


def _cmd_bandwidth(args: argparse.Namespace) -> int:
    from repro.params import RfmScope
    from repro.sim import analytical_bandwidth_reduction

    nbo_values = (16, 32, 64, 128)
    series = {
        "RFMab": [(n, round(100 * analytical_bandwidth_reduction(n)))
                  for n in nbo_values],
        "RFMab+Pro": [(n, round(100 * analytical_bandwidth_reduction(
            n, proactive=True))) for n in nbo_values],
        "RFMsb+Pro": [(n, round(100 * analytical_bandwidth_reduction(
            n, RfmScope.SAME_BANK, True))) for n in nbo_values],
        "RFMpb+Pro": [(n, round(100 * analytical_bandwidth_reduction(
            n, RfmScope.PER_BANK, True))) for n in nbo_values],
    }
    print(render_series(
        "Performance-attack bandwidth loss % (Figure 19, analytical)",
        "N_BO", series,
    ))
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    from repro.energy import table4

    rows = [[r.tracker, r.t_rh, r.human] for r in table4(tuple(args.trh))]
    print(render_table(
        "Per-bank tracker SRAM (Table IV)",
        ["Tracker", "T_RH", "SRAM"], rows,
    ))
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import ALL_WORKLOADS

    rows = [
        [w.name, w.suite, w.acts_pki, w.row_burst, w.footprint_mb,
         "yes" if w.is_memory_intensive else ""]
        for w in ALL_WORKLOADS
    ]
    print(render_table(
        "The 57-workload suite",
        ["name", "suite", "acts/Kinst", "row burst", "footprint MB",
         "intensive"],
        rows,
    ))
    return 0


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: "
                        "$REPRO_CACHE_DIR or ~/.cache/qprac-repro)")


def _add_selector(parser: argparse.ArgumentParser) -> None:
    """The sweep-trace selector of `stats`, `fleet` and `trace`."""
    parser.add_argument("selector", nargs="?", default=None,
                        help="trace file path, sweep-id prefix, or 'latest' "
                        "(default: the most recent trace)")
    _add_cache_dir(parser)


def _add_workloads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workloads", nargs="*",
                        help="workload names; may be empty when --attacks "
                        "supplies the grid")


def _add_grid_options(
    parser: argparse.ArgumentParser,
    entries: int = 5000,
    defense_flags: tuple[str, ...] = ("--defenses", "--variants"),
) -> None:
    """The grid options of `sweep`, `submit` and `hunt`: defenses,
    attack patterns, trace length, PRAC point, seed and engine.  The
    default defenses and patterns are the command's (see its
    description)."""
    parser.add_argument(*defense_flags, nargs="+", default=None,
                        dest="defenses", metavar="DEFENSE",
                        help="registered defenses, e.g. qprac "
                        "moat:proactive_every_n_refs=4 mithril:t_rh=256 "
                        "(see `repro defenses`)")
    parser.add_argument("--attacks", nargs="+", default=None,
                        metavar="PATTERN",
                        help="registered attack patterns, e.g. "
                        "decoy:reads_per_trefi=4 hammer:banks=4 "
                        "(see `repro attacks`)")
    parser.add_argument("--entries", type=int, default=entries,
                        help=f"accesses per core (default {entries})")
    parser.add_argument("--nbo-value", type=int, default=32)
    parser.add_argument("--n-mit", type=int, default=1, choices=(1, 2, 4))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--engine", default="event",
                        help="simulation engine for every job (see `repro "
                        "engines`); cached rows are engine-keyed, so event "
                        "and epoch sweeps never mix")


def _add_run_options(parser: argparse.ArgumentParser, backend: str) -> None:
    """The execution options of `sweep` and `submit`."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = in-process)")
    parser.add_argument("--backend", default=backend,
                        help="execution backend (see `repro backends`): "
                        f"serial, pool, remote-fleet (default {backend})")
    parser.add_argument("--hosts", nargs="+", default=None, metavar="HOST",
                        help="host list for --backend remote-fleet "
                        "('local' spawns a plain subprocess)")
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="chaos-injection plan for --backend "
                        "remote-fleet, e.g. 'kill-worker;drop-host:"
                        "host=local,times=2' (see repro.fleet.faults)")
    parser.add_argument("--trace", action="store_true",
                        help="record per-request latency telemetry in "
                        "every executed job (results stay byte-identical); "
                        "read it back with `repro stats` / `repro trace`")
    parser.add_argument("--print-digest", action="store_true",
                        help="print the sha256 of the aggregate payloads "
                        "(backend-equivalence checks)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QPRAC (HPCA 2025) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("security", help="analytical T_RH bounds (Figs 8/13)")
    p.add_argument("--nbo", type=int, nargs="*", default=None)
    p.set_defaults(func=_cmd_security)

    p = sub.add_parser(
        "attacks",
        help="list registered attack patterns and their parameters",
    )
    p.set_defaults(func=_cmd_attacks)

    p = sub.add_parser("panopticon", help="Panopticon attacks (Figs 2/3/23)")
    p.set_defaults(func=_cmd_panopticon)

    p = sub.add_parser(
        "sweep",
        help="parallel, cached workload x defense sweep",
        description="Run a workload x defense sweep through the "
        "experiment orchestrator: parallel with --jobs, resumable via "
        "the content-addressed result cache (--no-cache simulates "
        "everything).  Attack patterns sweep like workloads; the "
        "defenses default to the paper's five QPRAC variants.",
    )
    _add_workloads(p)
    _add_grid_options(p)
    _add_run_options(p, backend="auto")
    _add_cache_dir(p)
    p.add_argument("--no-cache", action="store_true",
                   help="simulate everything; do not read or write the cache")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress on stderr")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "hunt",
        help="worst-pattern search: rank attack patterns per defense",
        description="Sweep registered attack patterns across defenses "
        "(through the cached, parallel sweep orchestrator) and rank each "
        "defense's patterns by alerts/tREFI, slowdown and PSQ "
        "high-water.  The report is deterministic: re-runs cache-hit "
        "and rank identically.  Defaults: qprac against one operating "
        "point per built-in pattern family.",
    )
    _add_grid_options(p, entries=4000, defense_flags=("--defenses",))
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1 = in-process)")
    p.add_argument("--backend", default="auto",
                   help="execution backend (see `repro backends`)")
    _add_cache_dir(p)
    p.add_argument("--no-cache", action="store_true",
                   help="simulate everything; do not read or write the cache")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the JSON hunt report to FILE (the CI "
                   "artifact form)")
    p.add_argument("--print-digest", action="store_true",
                   help="print the sha256 of the report (equivalence "
                   "checks across backends/caches)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress on stderr")
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser(
        "defenses",
        help="list registered defenses and their parameters",
    )
    p.set_defaults(func=_cmd_defenses)

    p = sub.add_parser(
        "engines",
        help="list registered simulation engines and their parameters",
    )
    p.set_defaults(func=_cmd_engines)

    p = sub.add_parser(
        "backends",
        help="list registered sweep-execution backends",
    )
    p.set_defaults(func=_cmd_backends)

    p = sub.add_parser(
        "worker",
        help="execute a serialized job batch (remote-fleet backend)",
        description="Run every task in a pickled jobs file and stream "
        "{'index', 'payload'} / {'index', 'error'} JSONL rows to --out, "
        "flushing per task.  Spawned by the remote-fleet backend; "
        "also usable by external schedulers.  "
        "--probe prints host capabilities (python, code salt, cpus) as "
        "JSON and exits.",
    )
    p.add_argument("--jobs-file", default=None,
                   help="pickle file written by repro.exp.worker.write_jobs_file")
    p.add_argument("--out", default=None,
                   help="JSONL output path")
    p.add_argument("--probe", action="store_true",
                   help="print the host-capability payload and exit")
    p.add_argument("--heartbeat-file", default=None,
                   help="lease file touched every --heartbeat-s while "
                   "the worker runs (fleet supervision)")
    p.add_argument("--heartbeat-s", type=float, default=0.5,
                   help="heartbeat renewal interval (default 0.5)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-task progress on stderr")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "cache",
        help="result-cache maintenance (info, gc)",
        description="Inspect or compact the orchestrator's JSONL result "
        "cache: `info` reports live/dead entry counts, `gc` rewrites the "
        "file with only the live records.",
    )
    p.add_argument("action", choices=("info", "gc"))
    _add_cache_dir(p)
    p.add_argument("--spool-age", type=float, default=None, metavar="S",
                   help="gc: reclaim fleet spool dirs idle for more "
                   "than S seconds (default 3600; a live sweep's "
                   "heartbeats keep its spool younger than any sane "
                   "threshold)")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the HTTP sweep service (submit/stream front-end)",
        description="Start a long-running sweep service over the "
        "orchestrator: POST /sweeps submits a grid (same grammar as "
        "`repro sweep`), GET /sweeps/<id> polls or streams progress, "
        "GET /healthz reports liveness.  Results land in the shared "
        "result cache, so resubmitting a completed spec executes zero "
        "jobs.  SIGTERM/SIGINT drain gracefully.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8077,
                   help="listen port (0 = kernel-assigned; default 8077)")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent sweep executions (default 1)")
    p.add_argument("--queue-limit", type=int, default=8,
                   help="max queued sweeps before submissions get 429 "
                   "(default 8)")
    _add_cache_dir(p)
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-request access log on stderr")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a sweep to a running `repro serve` instance",
        description="POST a sweep to the HTTP service and (by default) "
        "wait for completion.  Grid options mirror `repro sweep`; the "
        "service builds the identical spec, so digests match a local "
        "serial run byte for byte.",
    )
    _add_workloads(p)
    _add_grid_options(p)
    p.add_argument("--url", default="http://127.0.0.1:8077",
                   help="service base URL (default http://127.0.0.1:8077)")
    _add_run_options(p, backend="serial")
    p.add_argument("--no-wait", action="store_true",
                   help="print the sweep id and return without waiting")
    p.add_argument("--timeout", type=float, default=None,
                   help="max seconds to wait for completion, the "
                   "submission's own wait included (default: wait "
                   "forever)")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "status",
        help="query a running sweep service (one sweep or all)",
        description="Show one sweep's status from a `repro serve` "
        "instance (by id or unambiguous prefix), stream its progress "
        "with --watch, or list every known sweep when no id is given.",
    )
    p.add_argument("sweep_id", nargs="?", default=None,
                   help="sweep id (or unique prefix); omit to list all")
    p.add_argument("--url", default="http://127.0.0.1:8077",
                   help="service base URL (default http://127.0.0.1:8077)")
    p.add_argument("--wait", type=float, default=0.0, metavar="S",
                   help="block up to S seconds for a terminal state")
    p.add_argument("--watch", action="store_true",
                   help="stream per-job progress (NDJSON) until done")
    p.add_argument("--print-digest", action="store_true",
                   help="print the aggregate sha256 when available")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser(
        "bench",
        help="simulator throughput benchmark (BENCH_*.json trajectory)",
        description="Measure the simulator's end-to-end throughput on "
        "standard workload x defense cells, write a BENCH_<timestamp>.json "
        "trajectory point, and compare against the previous point.",
    )
    p.add_argument("--quick", action="store_true",
                   help="CI smoke mode: 4000 accesses/core, 1 repeat")
    p.add_argument("--entries", type=int, default=None,
                   help="accesses per core per cell "
                   "(default 20000; 4000 with --quick)")
    p.add_argument("--repeats", type=int, default=None,
                   help="repeats per cell; best time wins "
                   "(default 5; 1 with --quick)")
    p.add_argument("--out-dir", default=".",
                   help="directory of the BENCH_*.json trajectory "
                   "(default: current directory)")
    p.add_argument("--baseline", default=None,
                   help="explicit previous BENCH_*.json to compare against "
                   "(default: newest in --out-dir)")
    p.add_argument("--threshold", type=float, default=20.0,
                   help="fail when a cell regresses by more than this "
                   "percent vs the baseline (default 20)")
    p.add_argument("--no-write", action="store_true",
                   help="measure and compare, but write no trajectory point")
    p.add_argument("--no-compare", action="store_true",
                   help="skip the regression comparison")
    p.add_argument("--backend", default="serial",
                   help="cell-execution backend (see `repro backends`); "
                   "serial (default) gives the cleanest timings, the "
                   "parallel backends trade per-cell precision for a "
                   "faster full run")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for parallel backends")
    p.add_argument("--hosts", nargs="+", default=None, metavar="HOST",
                   help="host list for --backend remote-fleet")
    p.add_argument("--engine", default="event",
                   help="simulation engine for every cell (see `repro "
                   "engines`); non-event runs also measure the event "
                   "reference cell and record speedup_vs_event")
    p.add_argument("--no-telemetry", action="store_true",
                   help="skip the untimed latency pass per cell (the "
                   "timed repeats never record telemetry either way)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-cell progress on stderr")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "stats",
        help="summarize a sweep trace (metrics, store health, latency)",
        description="Read a JSONL sweep trace written next to the result "
        "cache and print the sweep's operational metrics, store health, "
        "and per-job request-latency percentiles.",
    )
    _add_selector(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "fleet",
        help="fleet supervision counters from a sweep trace",
        description="Print the per-host supervision table (status, jobs, "
        "dispatches, failures, quarantines) and fleet-wide counters "
        "(retries, migrations, fallback, fired faults) recorded by a "
        "remote-fleet sweep.",
    )
    p.add_argument("action", choices=("status",))
    _add_selector(p)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "trace",
        help="dump per-request latency samples from a sweep trace",
        description="Print the capped per-request samples (arrival, "
        "latency, op, core) recorded for each job of a telemetry-enabled "
        "sweep (`repro sweep --trace`).",
    )
    _add_selector(p)
    p.add_argument("--job", default=None,
                   help="only jobs whose label contains this substring")
    p.add_argument("--limit", type=int, default=20,
                   help="samples shown per job (default 20)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("bandwidth", help="performance attack (Fig 19)")
    p.set_defaults(func=_cmd_bandwidth)

    p = sub.add_parser("storage", help="tracker SRAM (Table IV)")
    p.add_argument("--trh", type=int, nargs="*", default=[4096, 100])
    p.set_defaults(func=_cmd_storage)

    p = sub.add_parser("workloads", help="list the 57-workload suite")
    p.set_defaults(func=_cmd_workloads)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
