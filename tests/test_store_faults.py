"""Fault-injection tests for the :class:`~repro.exp.cache.ResultStore`.

The backend layer leans on one promise: whatever happens to the JSONL
file — a worker killed mid-flush, two sweeps streaming into the same
directory, rows stranded by a simulator change — the next sweep loads
what survived, re-simulates the rest, and aggregates **byte-identically**
to a clean run.  Every test here injects a specific fault and asserts
that exact recovery.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exp import ResultStore, SweepSpec, code_version_salt, run_sweep
from repro.exp.serialize import canonical_json, result_to_dict

ENTRIES = 300


def tiny_spec() -> SweepSpec:
    return SweepSpec.build(
        ["541.leela"], ["qprac", "moat"], n_entries=ENTRIES
    )


def aggregate_bytes(sweep) -> str:
    return canonical_json([result_to_dict(o.result) for o in sweep.outcomes])


@pytest.fixture(scope="module")
def clean_aggregate() -> str:
    """The reference aggregate every faulted resume must reproduce."""
    return aggregate_bytes(run_sweep(tiny_spec(), jobs=1, store=None))


class TestResumeAfterDamage:
    """Each fault degrades rows to cache misses, never to wrong results."""

    def test_truncated_final_row_resumes_byte_identical(
        self, tmp_path, clean_aggregate
    ):
        run_sweep(tiny_spec(), jobs=1, store=ResultStore(tmp_path))
        store_path = ResultStore(tmp_path).path
        text = store_path.read_text()
        store_path.write_text(text[: len(text) - 25])  # crash mid-write
        damaged = ResultStore(tmp_path)
        assert damaged.skipped_lines == 1
        resumed = run_sweep(tiny_spec(), jobs=1, store=damaged)
        assert resumed.cache_hits == 2
        assert resumed.executed == 1  # only the damaged row re-simulates
        assert aggregate_bytes(resumed) == clean_aggregate

    def test_worker_killed_mid_flush_resumes_byte_identical(
        self, tmp_path, clean_aggregate
    ):
        """A kill mid-``put`` leaves a partial row with no trailing
        newline; the resume must skip it, not glue new rows onto it."""
        run_sweep(
            tiny_spec(), jobs=1, store=ResultStore(tmp_path)
        )
        store_path = ResultStore(tmp_path).path
        lines = store_path.read_text().splitlines()
        # Keep one full row, then a half-flushed one (no newline).
        store_path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = run_sweep(tiny_spec(), jobs=1, store=ResultStore(tmp_path))
        assert resumed.cache_hits == 1
        assert resumed.executed == 2
        assert aggregate_bytes(resumed) == clean_aggregate
        # The repaired file is fully loadable: no damage left behind.
        final = ResultStore(tmp_path)
        assert final.skipped_lines == 1  # the half row stays inert
        assert len(final) == 3

    def test_stale_salt_rows_mid_file_resume_byte_identical(
        self, tmp_path, clean_aggregate
    ):
        """Rows from an older simulator interleaved *between* live rows
        are dead weight: keys can't match (the salt is folded into every
        key), the sweep re-simulates, aggregates stay identical."""
        store = ResultStore(tmp_path)
        run_sweep(tiny_spec(), jobs=1, store=store)
        lines = store.path.read_text().splitlines()
        stale = [
            json.dumps({
                "key": f"{i:064x}",
                "payload": {"poison": i},
                "salt": "0" * 64,
            })
            for i in range(3)
        ]
        # Interleave: stale, live, stale, live, ...
        mixed = []
        for live_row, stale_row in zip(lines, stale):
            mixed += [stale_row, live_row]
        mixed += lines[len(stale):]
        store.path.write_text("\n".join(mixed) + "\n")
        reopened = ResultStore(tmp_path, auto_compact=False)
        assert reopened.info().stale_records == 3
        resumed = run_sweep(tiny_spec(), jobs=1, store=reopened)
        assert resumed.cache_hits == resumed.total_jobs == 3
        assert aggregate_bytes(resumed) == clean_aggregate

    def test_interleaved_in_process_writers_resume_byte_identical(
        self, tmp_path, clean_aggregate
    ):
        """Two stores alternating appends into one directory: both
        views stay loadable and a resumed sweep replays cleanly."""
        first = ResultStore(tmp_path)
        second = ResultStore(tmp_path)
        sweep = run_sweep(tiny_spec(), jobs=1, store=first)
        for index, outcome in enumerate(sweep.outcomes):
            # `second` interleaves unrelated rows between first's rows.
            second.put(f"other-{index}", {"v": index},
                       salt=code_version_salt())
        reopened = ResultStore(tmp_path, auto_compact=False)
        assert reopened.skipped_lines == 0
        assert len(reopened) == 6
        resumed = run_sweep(tiny_spec(), jobs=1, store=reopened)
        assert resumed.cache_hits == 3 and resumed.executed == 0
        assert aggregate_bytes(resumed) == clean_aggregate


class TestTornTailRepair:
    def test_put_repairs_a_tail_torn_by_another_process(self, tmp_path):
        """The torn-tail check happens at write time under the lock, not
        at load time: a store opened on a clean file must still notice a
        partial row some *other* writer left behind afterwards."""
        clean_view = ResultStore(tmp_path)   # loads: file absent, clean
        other = ResultStore(tmp_path)
        other.put("good", {"v": 1})
        # Another process crashes mid-append after clean_view loaded.
        with other.path.open("a") as handle:
            handle.write('{"key": "half-writ')
        clean_view.put("new", {"v": 2})      # must start a fresh line
        reopened = ResultStore(tmp_path)
        assert reopened.skipped_lines == 1   # the torn row stays inert
        assert reopened.get("good") == {"v": 1}
        assert reopened.get("new") == {"v": 2}


def _hammer_store(directory: str, writer_id: int, rows: int) -> None:
    """Child-process body: stream `rows` appends into a shared store."""
    store = ResultStore(directory, auto_compact=False)
    for i in range(rows):
        store.put(
            f"w{writer_id}-{i}",
            {"writer": writer_id, "row": i, "pad": "x" * 200},
            salt=code_version_salt(),
        )


class TestConcurrentWriters:
    def test_parallel_streaming_writers_never_corrupt(self, tmp_path):
        """Four processes streaming appends under the advisory lock:
        every row lands intact (no torn lines, no lost records)."""
        writers, rows = 4, 25
        procs = [
            multiprocessing.Process(
                target=_hammer_store, args=(str(tmp_path), w, rows)
            )
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        merged = ResultStore(tmp_path, auto_compact=False)
        assert merged.skipped_lines == 0
        assert len(merged) == writers * rows
        for w in range(writers):
            for i in range(rows):
                assert merged.get(f"w{w}-{i}") == {
                    "writer": w, "row": i, "pad": "x" * 200,
                }

    def test_compact_racing_a_writer_loses_nothing(self, tmp_path):
        """gc while another process streams rows: the lock serializes
        the rename against appends, so every row survives somewhere."""
        seed_store = ResultStore(tmp_path, auto_compact=False)
        for i in range(10):
            seed_store.put("churn", {"v": i})  # dead rows to reclaim
        writer = multiprocessing.Process(
            target=_hammer_store, args=(str(tmp_path), 9, 40)
        )
        writer.start()
        try:
            for _ in range(5):
                ResultStore(tmp_path, auto_compact=False).compact()
        finally:
            writer.join(timeout=120)
        assert writer.exitcode == 0
        merged = ResultStore(tmp_path, auto_compact=False)
        assert merged.skipped_lines == 0
        for i in range(40):
            assert merged.get(f"w9-{i}") is not None


# ----------------------------------------------------------------------
# Line parsing against a reference model
# ----------------------------------------------------------------------
_KEYS = ("k0", "k1", "k2", "k\u2028")
_NO_SALT = object()
#: Characters ``str.splitlines`` breaks on besides ``\n``; JSONL lines
#: end at ``\n`` only, and JSON strings may hold the last three raw.
_FOREIGN_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _row_line(key: str, value: int, salt, ascii_only: bool = True) -> str:
    record = {"key": key, "payload": {"v": value}}
    if salt is not _NO_SALT:
        record["salt"] = salt
    return json.dumps(record, sort_keys=True, ensure_ascii=ascii_only)


@st.composite
def _store_lines(draw):
    """``(kind, line, row)`` entries of a store file, in order: rows
    (duplicate keys; current, foreign, missing and non-string salts;
    some from a writer that leaves non-ASCII unescaped), damaged lines
    (not JSON, JSON of the wrong shape, a torn row ended by a later
    writer's repair newline) and blank lines."""
    current = code_version_salt()
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("row", "row", "row", "junk", "blank")))
        if kind == "row":
            row = (draw(st.sampled_from(_KEYS)), draw(st.integers(0, 9)),
                   draw(st.sampled_from((current, "old-salt", _NO_SALT, 7))))
            line = _row_line(*row, ascii_only=draw(st.booleans()))
            entries.append(("row", line, row))
        elif kind == "blank":
            entries.append(("blank", draw(st.sampled_from(("", " ", "\t"))),
                            None))
        else:
            junk = draw(st.one_of(
                st.text(st.one_of(
                    st.characters(), st.sampled_from(_FOREIGN_BREAKS),
                )).map(lambda text: "~" + text),
                st.sampled_from((
                    "[]", "7", '"text"', "null", '{"payload": {}}',
                    '{"key": 3, "payload": {}}', '{"key": "k0"}',
                    '{"key": "k0", "payload": [1]}',
                )),
                st.builds(
                    lambda line, cut: line[:max(1, len(line) * cut // 8)],
                    st.builds(_row_line, st.sampled_from(_KEYS),
                              st.integers(0, 9), st.just(current)),
                    st.integers(1, 7),
                ),
            ))
            entries.append(("junk", junk.replace("\n", " "), None))
    torn = None
    if draw(st.booleans()):
        line = _row_line(draw(st.sampled_from(_KEYS)), 0, current)
        torn = line[:draw(st.integers(1, len(line) - 1))]
    return entries, torn


def _model(entries, torn_counted: bool) -> dict:
    """What a store over ``entries`` must report: last write wins,
    every damaged line counted once, blank lines ignored."""
    current = code_version_salt()
    index: dict = {}
    records = damaged = 0
    for kind, _line, row in entries:
        if kind == "row":
            key, value, salt = row
            index[key] = ({"v": value}, salt)
            records += 1
        elif kind == "junk":
            damaged += 1
    return {
        "len": len(index),
        "get": {key: index[key][0] if key in index else None
                for key in _KEYS},
        "skipped_lines": damaged + torn_counted,
        "dead_records": records - len(index),
        "stale_records": sum(
            isinstance(salt, str) and salt != current
            for _payload, salt in index.values()
        ),
    }


def _observed(store) -> dict:
    info = store.info()
    return {
        "len": len(store),
        "get": {key: store.get(key) for key in _KEYS},
        "skipped_lines": store.skipped_lines,
        "dead_records": info.dead_records,
        "stale_records": info.stale_records,
    }


def _text(entries) -> str:
    return "".join(line + "\n" for _kind, line, _row in entries)


class TestLineParsingModel:
    @settings(derandomize=True, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_store_lines(), split=st.integers(0, 12))
    def test_open_reconcile_and_put_match_the_model(self, tmp_path_factory,
                                                    data, split):
        entries, torn = data
        directory = tmp_path_factory.mktemp("store")
        path = directory / "results.jsonl"
        # One writer's lines are there at open; the rest, and a torn
        # tail, are appended by another before a reconcile.
        path.write_text(_text(entries[:split]))
        store = ResultStore(directory, auto_compact=False)
        assert _observed(store) == _model(entries[:split], False)
        with path.open("a") as handle:
            handle.write(_text(entries[split:]) + (torn or ""))
        store.reconcile()
        # A torn tail is not absorbed until an append completes it.
        assert _observed(store) == _model(entries, False)
        fresh = ResultStore(directory, auto_compact=False)
        assert _observed(fresh) == _model(entries, torn is not None)
        # An append repairs the tail into one damaged line, never into
        # its own record.
        store.put("k0", {"v": 99}, salt=code_version_salt())
        repaired = entries + [("row", "", ("k0", 99, code_version_salt()))]
        assert _observed(store) == _model(repaired, torn is not None)
        reopened = ResultStore(directory, auto_compact=False)
        assert _observed(reopened) == _model(repaired, torn is not None)

    def test_raw_line_separators_stay_inside_their_line(self, tmp_path):
        """A JSON string may hold U+2028 raw, and junk may hold a form
        feed: each is still one line (minimized from the property)."""
        row = _row_line("k\u2028", 1, code_version_salt(), ascii_only=False)
        (tmp_path / "results.jsonl").write_text(
            row + "\n~a\x0cb\n", encoding="utf-8"
        )
        store = ResultStore(tmp_path, auto_compact=False)
        assert store.get("k\u2028") == {"v": 1}
        assert store.skipped_lines == 1
