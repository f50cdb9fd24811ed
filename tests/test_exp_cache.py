"""Tests for the content-addressed result store."""

from __future__ import annotations

import json

from repro.exp import ResultStore
from repro.exp.cache import CACHE_DIR_ENV, default_cache_dir


class TestHitMiss:
    def test_empty_store_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("deadbeef") is None
        assert (store.hits, store.misses) == (0, 1)

    def test_put_then_get_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", {"acts": 7})
        assert store.get("k1") == {"acts": 7}
        assert (store.hits, store.misses) == (1, 0)
        assert "k1" in store and len(store) == 1

    def test_persists_across_instances(self, tmp_path):
        ResultStore(tmp_path).put("k1", {"acts": 7})
        reopened = ResultStore(tmp_path)
        assert reopened.get("k1") == {"acts": 7}

    def test_distinct_keys_are_independent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", {"v": 1})
        store.put("k2", {"v": 2})
        assert store.get("k1") == {"v": 1}
        assert store.get("k2") == {"v": 2}


class TestCorruptionTolerance:
    def test_truncated_line_is_skipped_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good1", {"v": 1})
        store.put("good2", {"v": 2})
        # Simulate a crash mid-append: chop the final line in half.
        text = store.path.read_text()
        store.path.write_text(text[: len(text) - 12])
        reopened = ResultStore(tmp_path)
        assert reopened.skipped_lines == 1
        assert reopened.get("good1") == {"v": 1}
        assert reopened.get("good2") is None  # the damaged row: a miss

    def test_garbage_lines_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", {"v": 1})
        with store.path.open("a") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps(["wrong", "shape"]) + "\n")
            handle.write(json.dumps({"key": 5, "payload": {}}) + "\n")
            handle.write(json.dumps({"key": "no-payload"}) + "\n")
        reopened = ResultStore(tmp_path)
        assert reopened.skipped_lines == 4
        assert reopened.get("good") == {"v": 1}

    def test_non_utf8_bytes_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", {"v": 1})
        with store.path.open("ab") as handle:
            handle.write(b"\xff\xfe binary junk \xff\n")
        reopened = ResultStore(tmp_path)
        assert reopened.skipped_lines == 1
        assert reopened.get("good") == {"v": 1}

    def test_blank_lines_ignored_silently(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", {"v": 1})
        with store.path.open("a") as handle:
            handle.write("\n\n")
        reopened = ResultStore(tmp_path)
        assert reopened.skipped_lines == 0
        assert reopened.get("good") == {"v": 1}

    def test_append_after_truncation_starts_a_fresh_line(self, tmp_path):
        # A crash mid-append leaves the file without a final newline; the
        # next put() must not glue its record onto the partial line.
        store = ResultStore(tmp_path)
        store.put("good", {"v": 1})
        text = store.path.read_text()
        store.path.write_text(text + '{"key": "half-writ')
        damaged = ResultStore(tmp_path)
        assert damaged.skipped_lines == 1
        damaged.put("new", {"v": 2})
        reopened = ResultStore(tmp_path)
        assert reopened.skipped_lines == 1
        assert reopened.get("good") == {"v": 1}
        assert reopened.get("new") == {"v": 2}

    def test_writes_still_work_after_corrupt_load(self, tmp_path):
        (tmp_path / "results.jsonl").write_text("garbage\n")
        store = ResultStore(tmp_path)
        store.put("k", {"v": 9})
        assert ResultStore(tmp_path).get("k") == {"v": 9}


class TestMaintenance:
    def test_info_counts_live_dead_and_damaged(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", {"v": 1})
        store.put("k2", {"v": 2})
        store.put("k1", {"v": 3})  # supersedes the first record
        with store.path.open("a") as handle:
            handle.write("garbage\n")
        reopened = ResultStore(tmp_path)
        info = reopened.info()
        assert info.live_keys == 2
        assert info.dead_records == 1
        assert info.damaged_lines == 1
        assert info.total_records == 3
        assert info.size_bytes == store.path.stat().st_size

    def test_info_on_missing_file(self, tmp_path):
        info = ResultStore(tmp_path / "absent").info()
        assert info.live_keys == 0 and info.size_bytes == 0

    def test_compact_drops_dead_records(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", {"v": 1})
        store.put("k1", {"v": 2})
        with store.path.open("a") as handle:
            handle.write("not json\n")
        dirty = ResultStore(tmp_path)
        before = dirty.info()
        assert before.dead_records == 1 and before.damaged_lines == 1
        after = dirty.compact()
        assert after.live_keys == 1
        assert after.dead_records == 0 and after.damaged_lines == 0
        assert after.size_bytes < before.size_bytes
        # The latest payload survives, and the store keeps working.
        reopened = ResultStore(tmp_path)
        assert reopened.info().dead_records == 0
        assert reopened.get("k1") == {"v": 2}
        reopened.put("k2", {"v": 9})
        assert ResultStore(tmp_path).get("k2") == {"v": 9}

    def test_compact_recovers_missing_trailing_newline(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", {"v": 1})
        text = store.path.read_text()
        store.path.write_text(text + '{"key": "half')
        damaged = ResultStore(tmp_path)
        damaged.compact()
        damaged.put("k2", {"v": 2})
        reopened = ResultStore(tmp_path)
        assert reopened.skipped_lines == 0
        assert reopened.get("k1") == {"v": 1}
        assert reopened.get("k2") == {"v": 2}

    def test_compact_drops_code_version_stale_rows(self, tmp_path):
        from repro.exp import code_version_salt

        store = ResultStore(tmp_path)
        store.put("old", {"v": 1}, salt="0" * 64)  # older simulator
        store.put("now", {"v": 2}, salt=code_version_salt())
        store.put("raw", {"v": 3})  # unsalted: vintage unknown, kept
        reopened = ResultStore(tmp_path)
        assert reopened.info().stale_records == 1
        after = reopened.compact()
        assert after.live_keys == 2 and after.stale_records == 0
        survivors = ResultStore(tmp_path)
        assert survivors.get("old") is None
        assert survivors.get("now") == {"v": 2}
        assert survivors.get("raw") == {"v": 3}
        # The current-salt tag survives the rewrite.
        assert survivors.info().stale_records == 0

    def test_sweep_rows_are_salt_tagged(self, tmp_path):
        from repro.exp import SweepSpec, code_version_salt, run_sweep

        spec = SweepSpec.build(["541.leela"], ["qprac"], n_entries=300)
        run_sweep(spec, jobs=1, store=ResultStore(tmp_path))
        reopened = ResultStore(tmp_path)
        assert reopened._salts  # every row tagged
        assert set(reopened._salts.values()) == {code_version_salt()}

    def test_compact_preserves_concurrent_appends(self, tmp_path):
        # A second process appends after this store loaded; compaction
        # re-reads the file and must keep that record.
        store = ResultStore(tmp_path)
        store.put("k1", {"v": 1})
        other = ResultStore(tmp_path)
        store.put("k2", {"v": 2})  # invisible to `other`'s index
        other.compact()
        reopened = ResultStore(tmp_path)
        assert reopened.get("k1") == {"v": 1}
        assert reopened.get("k2") == {"v": 2}

    def test_compact_empty_store_is_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        info = store.compact()
        assert info.live_keys == 0
        assert not store.path.exists()


class TestDefaultDirectory:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "qprac-repro"

    def test_lazy_directory_creation(self, tmp_path):
        store = ResultStore(tmp_path / "nested" / "deep")
        assert not store.path.exists()
        store.put("k", {})
        assert store.path.exists()


class TestAutoCompaction:
    """Opportunistic GC: stores compact themselves when waste dominates."""

    @staticmethod
    def _fill(store: ResultStore, dead: int, live: int) -> None:
        for i in range(dead):
            store.put("churn", {"value": i})  # every write supersedes
        for i in range(live):
            store.put(f"live-{i}", {"value": i})

    def test_small_stores_are_left_alone(self, tmp_path):
        store = ResultStore(tmp_path)
        self._fill(store, dead=10, live=5)
        reopened = ResultStore(tmp_path)
        assert reopened.auto_compactions == 0
        assert reopened.info().dead_records == 9  # one churn row is live

    def test_mostly_live_stores_are_left_alone(self, tmp_path):
        from repro.exp.cache import AUTO_COMPACT_MIN_WASTE

        store = ResultStore(tmp_path)
        self._fill(store, dead=AUTO_COMPACT_MIN_WASTE + 5,
                   live=AUTO_COMPACT_MIN_WASTE + 50)
        reopened = ResultStore(tmp_path)
        assert reopened.auto_compactions == 0
        assert reopened.info().dead_records > 0

    def test_dead_dominated_store_auto_compacts_on_open(self, tmp_path):
        from repro.exp.cache import AUTO_COMPACT_MIN_WASTE

        store = ResultStore(tmp_path)
        self._fill(store, dead=AUTO_COMPACT_MIN_WASTE * 2, live=8)
        reopened = ResultStore(tmp_path)
        assert reopened.auto_compactions == 1
        info = reopened.info()
        assert info.dead_records == 0
        assert info.live_keys == 9  # 8 live rows + the surviving churn row
        # All payloads survived the rewrite.
        assert reopened.get("live-3") == {"value": 3}

    def test_stale_dominated_store_auto_compacts_on_open(self, tmp_path):
        from repro.exp.cache import AUTO_COMPACT_MIN_WASTE

        store = ResultStore(tmp_path)
        for i in range(AUTO_COMPACT_MIN_WASTE + 10):
            store.put(f"old-{i}", {"value": i}, salt="obsolete-salt")
        store.put("fresh", {"value": 1})
        reopened = ResultStore(tmp_path)
        assert reopened.auto_compactions == 1
        info = reopened.info()
        assert info.stale_records == 0
        assert reopened.get("fresh") == {"value": 1}
        assert reopened.get("old-1") is None

    def test_auto_compact_can_be_disabled(self, tmp_path):
        from repro.exp.cache import AUTO_COMPACT_MIN_WASTE

        store = ResultStore(tmp_path)
        self._fill(store, dead=AUTO_COMPACT_MIN_WASTE * 2, live=2)
        reopened = ResultStore(tmp_path, auto_compact=False)
        assert reopened.auto_compactions == 0
        assert reopened.info().dead_records == AUTO_COMPACT_MIN_WASTE * 2 - 1


class TestDurability:
    def test_put_fsyncs_and_counts(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_FSYNC", raising=False)
        store = ResultStore(tmp_path)
        store.put("k1", {"v": 1})
        store.put("k2", {"v": 2})
        assert store.fsync_count == 2
        assert store.fsync_total_s >= 0.0
        assert store.fsync_max_s <= store.fsync_total_s
        flush = store.health()["flush"]
        assert flush["fsync_count"] == 2
        assert flush["fsync_total_s"] == store.fsync_total_s

    def test_fsync_env_gate_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_FSYNC", "0")
        store = ResultStore(tmp_path)
        store.put("k1", {"v": 1})
        assert store.fsync_count == 0
        # Durability off still flushes and persists.
        assert store.flush_count == 1
        assert ResultStore(tmp_path).get("k1") == {"v": 1}


class TestConcurrentWriters:
    def test_put_absorbs_concurrent_appends(self, tmp_path):
        ours = ResultStore(tmp_path)
        ours.put("k1", {"v": 1})
        theirs = ResultStore(tmp_path)  # second process, same flock
        theirs.put("k2", {"v": 2})
        # Our in-memory index predates their append; the next put must
        # reconcile before writing, not clobber or miscount.
        ours.put("k3", {"v": 3})
        assert ours.reconciled_records == 1
        assert ours.get("k2") == {"v": 2}
        assert len(ours) == 3
        # And the file holds exactly three live rows for any reader.
        fresh = ResultStore(tmp_path)
        assert sorted([k for k in ("k1", "k2", "k3") if k in fresh]) == [
            "k1", "k2", "k3"
        ]

    def test_reconcile_is_visible_without_a_put(self, tmp_path):
        ours = ResultStore(tmp_path)
        ResultStore(tmp_path).put("k1", {"v": 1})
        assert ours.reconcile() == 1
        assert ours.get("k1") == {"v": 1}

    def test_reconcile_survives_external_compaction(self, tmp_path):
        ours = ResultStore(tmp_path)
        ours.put("k1", {"v": 1})
        ours.put("k1", {"v": 2})  # dead record; file shrinks on compact
        other = ResultStore(tmp_path)
        other.compact()
        other.put("k2", {"v": 9})
        ours.put("k3", {"v": 3})  # sees a shorter file -> full reload
        assert ours.get("k2") == {"v": 9}
        assert ours.get("k1") == {"v": 2}

    def test_health_reports_reconciled(self, tmp_path):
        ours = ResultStore(tmp_path)
        ResultStore(tmp_path).put("k1", {"v": 1})
        ours.put("k2", {"v": 2})
        assert ours.health()["reconciled_records"] == 1


class TestLongLivedStore:
    """One instance kept across sweeps: refresh, O(1) counts, windows."""

    def test_salt_counts_track_every_write(self, tmp_path, monkeypatch):
        import repro.exp.cache as cache

        monkeypatch.setattr(cache, "_current_salt", lambda: "now")
        store = ResultStore(tmp_path)
        store.put("a", {"v": 1}, salt="old")
        store.put("b", {"v": 2}, salt="old")
        store.put("c", {"v": 3}, salt="now")
        store.put("d", {"v": 4})
        store.put("a", {"v": 5}, salt="now")  # rewritten under today's
        assert store.info().stale_records == 1
        other = ResultStore(tmp_path)
        other.put("e", {"v": 6}, salt="old")
        other.put("c", {"v": 7}, salt="old")
        assert store.reconcile() == 2
        assert store.info().stale_records == 3
        assert ResultStore(tmp_path).info().stale_records == 3
        after = store.compact()
        assert after.stale_records == 0 and after.live_keys == 2
        store.put("f", {"v": 8}, salt="old")
        assert store.info().stale_records == 1

    def test_unsalted_store_never_computes_the_salt(
        self, tmp_path, monkeypatch
    ):
        import repro.exp.cache as cache

        def boom():
            raise AssertionError("salt computed for an unsalted store")

        monkeypatch.setattr(cache, "_current_salt", boom)
        store = ResultStore(tmp_path)
        for n in range(cache.AUTO_COMPACT_MIN_WASTE * 2):
            store.put("churn", {"v": n})
        assert store.refresh() == 0
        assert store.auto_compactions == 1  # dead rows alone
        assert store.info().stale_records == 0
        assert store.health()["stale_records"] == 0

    def test_refresh_absorbs_and_auto_compacts(self, tmp_path):
        from repro.exp.cache import AUTO_COMPACT_MIN_WASTE

        store = ResultStore(tmp_path)
        store.put("fresh", {"v": 1})
        writer = ResultStore(tmp_path)
        for n in range(AUTO_COMPACT_MIN_WASTE):
            writer.put(f"old-{n}", {"v": n}, salt="obsolete-salt")
        assert store.refresh() == AUTO_COMPACT_MIN_WASTE
        assert store.auto_compactions == 1
        assert store.info().stale_records == 0
        assert store.get("fresh") == {"v": 1}
        assert ResultStore(tmp_path, auto_compact=False).info().live_keys == 1

    def test_refresh_respects_disabled_auto_compaction(self, tmp_path):
        from repro.exp.cache import AUTO_COMPACT_MIN_WASTE

        store = ResultStore(tmp_path, auto_compact=False)
        writer = ResultStore(tmp_path)
        for n in range(AUTO_COMPACT_MIN_WASTE):
            writer.put(f"old-{n}", {"v": n}, salt="obsolete-salt")
        assert store.refresh() == AUTO_COMPACT_MIN_WASTE
        assert store.auto_compactions == 0
        assert store.info().stale_records == AUTO_COMPACT_MIN_WASTE

    def test_first_sweep_window_includes_the_open(self, tmp_path):
        from repro.exp.cache import AUTO_COMPACT_MIN_WASTE

        writer = ResultStore(tmp_path)
        for n in range(AUTO_COMPACT_MIN_WASTE * 2):
            writer.put("churn", {"v": n})
        store = ResultStore(tmp_path)  # auto-compacts on open
        store.get("churn")
        window = store.sweep_health()
        assert window["compaction"]["count"] == 1
        assert window["auto_compactions"] == 1
        assert window["compaction"]["last_s"] is not None
        assert window["hits"] == 1
        store.get("nope")
        window = store.sweep_health()
        assert window["compaction"] == {
            "count": 0, "total_s": 0.0, "last_s": None,
        }
        assert (window["hits"], window["misses"]) == (0, 1)
        assert store.health()["compaction"]["count"] == 1


def _spy_on_store_lock(monkeypatch) -> list:
    """Count ``_store_lock`` acquisitions; returns the live tally."""
    import repro.exp.cache as cache

    taken = []
    real = cache._store_lock

    def counting(directory):
        taken.append(directory)
        return real(directory)

    monkeypatch.setattr(cache, "_store_lock", counting)
    return taken


class TestLockFreeSync:
    """reconcile() stats before it locks: unchanged files cost no lock."""

    def test_cached_replay_takes_no_lock(self, tmp_path, monkeypatch):
        from repro.exp import SweepSpec, run_sweep

        spec = SweepSpec.build(
            ["541.leela"], ["qprac"], n_entries=300, engine="epoch"
        )
        store = ResultStore(tmp_path)
        first = run_sweep(spec, store=store)
        assert first.executed == 2
        taken = _spy_on_store_lock(monkeypatch)
        assert store.refresh() == 0
        replay = run_sweep(spec, store=store)
        assert replay.cache_hits == replay.total_jobs == 2
        assert replay.metrics.store["live_keys"] == 2
        assert taken == []  # the parent took the lock twice here
        store.put("k-new", {"v": 1})
        assert len(taken) == 1  # appends always lock

    def test_appends_by_another_writer_take_the_locked_path(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        store.put("k1", {"v": 1})
        ResultStore(tmp_path).put("k2", {"v": 2})
        taken = _spy_on_store_lock(monkeypatch)
        assert store.reconcile() == 1
        assert store.get("k2") == {"v": 2}
        assert len(taken) == 1
        assert store.reconcile() == 0
        assert len(taken) == 1

    def test_equal_size_replacement_is_reloaded(self, tmp_path):
        """A rewrite landing on the same byte count swaps the inode, and
        the inode is what the unlocked check compares."""
        import os

        store = ResultStore(tmp_path)
        store.put("k1", {"v": 1})
        size = store.path.stat().st_size
        tmp = tmp_path / "results.jsonl.tmp"
        tmp.write_text(json.dumps({"key": "k2", "payload": {"v": 2}},
                                  sort_keys=True) + "\n")
        assert tmp.stat().st_size == size
        os.replace(tmp, store.path)
        store.reconcile()
        assert store.get("k2") == {"v": 2}
        assert "k1" not in store

    def test_missing_file_takes_the_locked_path(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.put("k1", {"v": 1})
        store.path.unlink()
        taken = _spy_on_store_lock(monkeypatch)
        assert store.reconcile() == 0
        assert len(taken) == 1
        store.put("k2", {"v": 2})
        assert ResultStore(tmp_path).get("k2") == {"v": 2}


class TestSpoolGc:
    @staticmethod
    def _make_spool(root, name, age_s, mtime_now):
        from repro.exp.cache import spool_dir

        d = spool_dir(root) / name
        d.mkdir(parents=True)
        (d / "batch-0.jobs.pkl").write_bytes(b"x" * 64)
        (d / "batch-0.hb").write_bytes(b"")
        import os

        for p in (d, *(d.iterdir())):
            os.utime(p, (mtime_now - age_s, mtime_now - age_s))
        return d

    def test_orphaned_spool_is_reclaimed(self, tmp_path):
        import time

        from repro.exp.cache import gc_spool, spool_usage

        now = time.time()
        old = self._make_spool(tmp_path, "fleet-deadbeef01", 7200.0, now)
        usage = spool_usage(tmp_path)
        assert usage["dirs"] == 1 and usage["bytes"] >= 64
        removed, reclaimed = gc_spool(tmp_path, min_age_s=3600.0, now=now)
        assert removed == 1 and reclaimed >= 64
        assert not old.exists()
        assert spool_usage(tmp_path)["dirs"] == 0

    def test_live_spool_survives(self, tmp_path):
        import time

        from repro.exp.cache import gc_spool

        now = time.time()
        live = self._make_spool(tmp_path, "fleet-cafe000001", 7200.0, now)
        # A running coordinator's heartbeat keeps one file fresh: the
        # liveness guard must spare the whole directory.
        import os

        os.utime(live / "batch-0.hb", (now, now))
        removed, _ = gc_spool(tmp_path, min_age_s=3600.0, now=now)
        assert removed == 0 and live.exists()

    def test_young_spool_survives(self, tmp_path):
        import time

        from repro.exp.cache import gc_spool

        now = time.time()
        young = self._make_spool(tmp_path, "fleet-beef000001", 10.0, now)
        removed, _ = gc_spool(tmp_path, min_age_s=3600.0, now=now)
        assert removed == 0 and young.exists()

    def test_health_reports_spool_usage(self, tmp_path):
        import time

        self._make_spool(tmp_path, "fleet-aa00000001", 100.0, time.time())
        store = ResultStore(tmp_path)
        spool = store.health()["spool"]
        assert spool["dirs"] == 1 and spool["files"] == 2
        assert spool["bytes"] >= 64


class TestResultsAreNotShared:
    """A result handed out by ``run_sweep`` owns its lists: mutating
    one must not change what the same long-lived store serves next."""

    def test_mutated_outcomes_leave_the_store_intact(self, tmp_path):
        from repro.exp import SweepSpec, run_sweep, sweep_digest

        spec = SweepSpec.build(
            ["541.leela"], ["qprac"], n_entries=300, engine="epoch"
        )
        store = ResultStore(tmp_path)
        fresh = run_sweep(spec, store=store)
        assert fresh.executed == 2
        digest = sweep_digest(fresh)
        fresh.outcomes[0].result.core_ipcs.append(99.0)
        cached = run_sweep(spec, store=store)
        assert cached.cache_hits == 2
        assert sweep_digest(cached) == digest
        cached.outcomes[1].result.core_ipcs.append(99.0)
        again = run_sweep(spec, store=store)
        assert sweep_digest(again) == digest
