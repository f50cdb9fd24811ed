"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import hashlib
import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ReproError


def _parser_table() -> str:
    """Every subcommand's options as a sorted JSON table: option strings,
    dest, default, nargs, choices, const, required, action class, type
    and handler name (help text left out)."""
    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    rows = []
    for command, parser in sorted(sub.choices.items()):
        handler = parser.get_default("func").__name__
        for action in parser._actions:
            rows.append([
                command, handler, sorted(action.option_strings),
                action.dest, repr(action.default), repr(action.nargs),
                repr(action.choices), repr(action.const), action.required,
                type(action).__name__,
                getattr(action.type, "__name__", repr(action.type)),
            ])
    rows.sort(key=json.dumps)
    return json.dumps(rows)


class TestExactnessPins:
    """The CLI surface is pinned: a refactor of how the parser is built
    or how a listing is rendered must not change what users see."""

    def test_parser_pin(self):
        digest = hashlib.sha256(_parser_table().encode()).hexdigest()
        assert digest == (
            "b163c8b45a4da6d24b71ffc058e52480"
            "c5723266a3378f9b7f0c26c6212fba2f"
        )

    @pytest.mark.parametrize("command, digest", [
        ("defenses", "34a4f788595ace875f83350d54b92a9f"
                     "ce6da0e8536d2a91689b14b0bed1a5e8"),
        ("engines", "76b971d86cf69d134ff5afd45878c8a0"
                    "d4c413a0999c077904f20e57e2a49fc0"),
        ("attacks", "5e1d8832a95dea2cf6e0250ae0fc3a1e"
                    "84806e6c2aa688808ba926f40e70fdf7"),
    ])
    def test_listing_pin(self, capsys, command, digest):
        assert main([command]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for cmd in ("security", "attacks", "panopticon", "bandwidth",
                    "storage", "workloads", "defenses", "hunt"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_sweep_requires_workloads_or_attacks(self, capsys):
        # Workloads are optional at parse time (attack-only sweeps are
        # legal), so the empty grid is a runtime error.
        assert main(["sweep"]) == 1
        err = capsys.readouterr().err
        assert "workloads and/or --attacks" in err

    def test_sweep_attack_options(self):
        args = build_parser().parse_args(
            ["sweep", "--attacks", "decoy:reads_per_trefi=4",
             "hammer:banks=4", "--defenses", "qprac"]
        )
        assert args.workloads == []
        assert args.attacks == ["decoy:reads_per_trefi=4", "hammer:banks=4"]

    def test_hunt_defaults(self):
        args = build_parser().parse_args(["hunt"])
        # Defaults resolve at run time: qprac + the registry's default
        # pattern grid.
        assert args.defenses is None
        assert args.attacks is None
        assert args.entries == 4000

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "429.mcf", "541.leela", "--defenses", "qprac",
             "--jobs", "4", "--entries", "200", "--cache-dir", "/tmp/c",
             "--seed", "3", "--quiet"]
        )
        assert args.workloads == ["429.mcf", "541.leela"]
        assert args.defenses == ["qprac"]
        assert args.jobs == 4
        assert args.entries == 200
        assert args.cache_dir == "/tmp/c"
        assert args.seed == 3
        assert args.quiet and not args.no_cache

    def test_sweep_variants_alias_still_accepted(self):
        args = build_parser().parse_args(
            ["sweep", "429.mcf", "--variants", "qprac"]
        )
        assert args.defenses == ["qprac"]

    def test_sweep_rejects_unknown_defense(self, capsys):
        # Defense resolution happens at run time (names are an open
        # registry, not a closed argparse choice list).
        assert main(["sweep", "429.mcf", "--defenses", "nonsense"]) == 1
        err = capsys.readouterr().err
        assert "unknown defense 'nonsense'" in err
        assert "registered defenses" in err

    def test_cache_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_sweep_backend_options(self):
        args = build_parser().parse_args(
            ["sweep", "429.mcf", "--backend", "remote-fleet", "--jobs", "4",
             "--hosts", "local", "local", "--print-digest"]
        )
        assert args.backend == "remote-fleet"
        assert args.hosts == ["local", "local"]
        assert args.print_digest

    @pytest.mark.parametrize("backend", [
        [], ["--backend", "serial"], ["--backend", "pool", "--jobs", "2"],
    ])
    def test_sweep_refuses_faults_off_the_fleet(self, capsys, backend):
        """The service's refusal, word for word, before anything runs."""
        assert main([
            "sweep", "541.leela", "--defenses", "qprac", "--entries", "200",
            "--engine", "epoch", "--no-cache", "--faults", "kill-worker",
            *backend,
        ]) == 1
        captured = capsys.readouterr()
        assert "fault injection needs backend 'remote-fleet'" in captured.err
        assert captured.out == ""

    def test_sweep_backend_defaults_to_auto(self):
        args = build_parser().parse_args(["sweep", "429.mcf"])
        assert args.backend == "auto" and args.hosts is None

    def test_worker_requires_jobs_file_and_out(self):
        # --probe stands alone; a batch run needs both paths (enforced
        # in the command so --probe can omit them).
        from repro.cli import _cmd_worker

        with pytest.raises(ReproError, match="--jobs-file and --out"):
            _cmd_worker(build_parser().parse_args(["worker"]))
        args = build_parser().parse_args(
            ["worker", "--jobs-file", "/tmp/j.pkl", "--out", "/tmp/o.jsonl"]
        )
        assert args.jobs_file == "/tmp/j.pkl" and args.out == "/tmp/o.jsonl"
        assert build_parser().parse_args(["worker", "--probe"]).probe

    def test_bench_backend_options(self):
        args = build_parser().parse_args(
            ["bench", "--backend", "pool", "--jobs", "2"]
        )
        assert args.backend == "pool" and args.jobs == 2


class TestCommands:
    def test_security(self, capsys):
        assert main(["security", "--nbo", "1", "32"]) == 0
        out = capsys.readouterr().out
        assert "Secure T_RH" in out
        assert "PRAC-1" in out

    def test_attacks_lists_registry(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        for name in ("hammer", "double-sided", "many-sided", "decoy",
                     "row-list"):
            assert name in out
        assert "reads_per_trefi" in out

    def test_panopticon(self, capsys):
        assert main(["panopticon"]) == 0
        out = capsys.readouterr().out
        assert "Toggle+Forget" in out
        assert "Fill+Escape" in out

    def test_bandwidth(self, capsys):
        assert main(["bandwidth"]) == 0
        out = capsys.readouterr().out
        assert "RFMab" in out and "RFMpb+Pro" in out

    def test_storage(self, capsys):
        assert main(["storage", "--trh", "100"]) == 0
        out = capsys.readouterr().out
        assert "QPRAC" in out and "15 bytes" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "429.mcf" in out and "ycsb-f" in out

    def test_defenses_listing(self, capsys):
        assert main(["defenses"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "qprac+proactive-ea", "moat", "pride",
                     "mithril", "panopticon", "uprac"):
            assert name in out
        assert "t_rh (required)" in out

    def test_sweep_with_parameterized_defense(self, capsys, tmp_path):
        assert main(
            ["sweep", "541.leela", "--defenses", "moat", "mithril:t_rh=512",
             "--entries", "300", "--cache-dir", str(tmp_path), "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "moat" in out
        assert "mithril:t_rh=512" in out

    def test_cache_info_and_gc(self, capsys, tmp_path):
        argv = ["sweep", "541.leela", "--defenses", "qprac", "--entries",
                "300", "--cache-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "live entries" in out and "2" in out
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kept 2 live entries" in out
        # The cache still serves the sweep after compaction.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out and "2 from cache" in out

    def test_sweep_tiny_run_then_cached_rerun(self, capsys, tmp_path):
        argv = ["sweep", "541.leela", "--defenses", "qprac", "--entries",
                "400", "--cache-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 simulated on serial" in out and "0 from cache" in out
        # The identical invocation must complete without simulating.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out and "2 from cache" in out
        assert "541.leela" in out

    def test_backends_listing(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "pool", "remote-fleet"):
            assert name in out
        for name in ("local-queue", "subprocess-ssh"):
            assert name not in out

    def test_sweep_unknown_backend_is_an_error(self, capsys, tmp_path):
        for name in ("nonsense", "local-queue", "subprocess-ssh"):
            assert main(
                ["sweep", "541.leela", "--defenses", "qprac", "--entries",
                 "300", "--backend", name, "--no-cache", "--quiet"]
            ) == 1
            assert (
                f"unknown sweep backend {name!r}; registered backends: "
                "pool, remote-fleet, serial"
            ) in capsys.readouterr().err

    def test_sweep_print_digest_is_backend_stable(self, capsys, tmp_path):
        digests = []
        for backend, jobs in (("serial", "1"), ("pool", "2")):
            assert main(
                ["sweep", "541.leela", "--defenses", "qprac", "--entries",
                 "300", "--backend", backend, "--jobs", jobs,
                 "--cache-dir", str(tmp_path / backend), "--quiet",
                 "--print-digest"]
            ) == 0
            out = capsys.readouterr().out
            line = [l for l in out.splitlines()
                    if l.startswith("aggregate sha256: ")]
            assert len(line) == 1
            digests.append(line[0])
        assert digests[0] == digests[1]

    def test_sweep_with_attack_patterns(self, capsys, tmp_path):
        argv = ["sweep", "--attacks", "decoy:reads_per_trefi=4",
                "--defenses", "qprac", "--entries", "300",
                "--cache-dir", str(tmp_path), "--quiet", "--print-digest"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "decoy:reads_per_trefi=4" in out
        digest = [l for l in out.splitlines()
                  if l.startswith("aggregate sha256: ")]
        assert len(digest) == 1
        # Attack-keyed rows cache like any other job.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out and "2 from cache" in out
        assert digest[0] in out

    def test_sweep_rejects_unknown_attack(self, capsys):
        assert main(
            ["sweep", "--attacks", "nonsense", "--defenses", "qprac"]
        ) == 1
        assert "unknown attack pattern" in capsys.readouterr().err

    def test_hunt_tiny_run(self, capsys, tmp_path):
        out_file = tmp_path / "hunt.json"
        argv = ["hunt", "--defenses", "qprac", "--attacks",
                "hammer:banks=4", "decoy:reads_per_trefi=4",
                "--entries", "300", "--cache-dir", str(tmp_path / "cache"),
                "--quiet", "--out", str(out_file), "--print-digest"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "hammer:banks=4" in out and "decoy:reads_per_trefi=4" in out
        assert "worst vs qprac" in out
        digest = [l for l in out.splitlines()
                  if l.startswith("report sha256: ")]
        assert len(digest) == 1
        assert out_file.exists()
        # The cached replay reports the identical ranking digest.
        assert main(argv) == 0
        assert digest[0] in capsys.readouterr().out

    def test_sweep_no_cache(self, capsys, tmp_path):
        assert main(
            ["sweep", "mb-adpcm", "--defenses", "qprac", "--entries", "300",
             "--no-cache", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "cache disabled" in out
