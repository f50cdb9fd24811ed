"""Content-addressed on-disk result store.

Completed simulations are appended to a JSONL file, one
``{"key": <sha256>, "payload": <result dict>}`` object per line.  The
append-only layout makes interrupted sweeps resumable for free: every
finished job is durable the moment its line hits the disk — the append
path flushes *and* fsyncs (see :data:`STORE_FSYNC_ENV`), so the row
survives an OS crash, not just this process — and the next sweep simply
skips keys it finds here.

Robustness contract: loading **never** fails because of a damaged cache.
A truncated final line (killed mid-write), garbage bytes, or a
well-formed line with the wrong shape are each skipped individually; the
corresponding jobs just become cache misses and re-simulate.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

try:  # POSIX advisory locks; absent on some platforms (degrade gracefully)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: Subdirectory used under the user cache root when no directory is given.
CACHE_SUBDIR = "qprac-repro"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Automatic compaction floor: stores with less reclaimable waste than
#: this are never auto-compacted (rewriting a small file buys nothing).
AUTO_COMPACT_MIN_WASTE = 64

#: Environment switch for the append-path ``os.fsync``.  The durability
#: contract ("durable the moment its line hits the disk") needs the
#: fsync, so it defaults on; test suites that churn thousands of tiny
#: puts on slow disks may set ``REPRO_STORE_FSYNC=0`` to trade the
#: power-loss guarantee for speed (an OS crash can then lose the most
#: recent appends, but never corrupt older rows).
STORE_FSYNC_ENV = "REPRO_STORE_FSYNC"

#: Spool directories older than this (newest contained mtime, so a
#: renewing heartbeat lease keeps its directory alive) are considered
#: orphaned by :func:`gc_spool`.  Heartbeats renew at sub-second
#: cadence and fleet dispatch files are touched per batch, so one hour
#: is conservative by several orders of magnitude.
SPOOL_GC_MIN_AGE_S = 3600.0

#: Additive operational counters of a store instance.  The attributes
#: are lifetime totals; :meth:`ResultStore.sweep_health` reports them
#: per sweep, as differences from the previous sweep's report.
_SWEEP_COUNTERS = (
    "hits", "misses", "auto_compactions", "reconciled_records",
    "flush_count", "flush_total_s", "fsync_count", "fsync_total_s",
    "compaction_count", "compaction_total_s",
)


def _fsync_enabled() -> bool:
    return os.environ.get(STORE_FSYNC_ENV, "1") != "0"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME`` or ``~/.cache``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / CACHE_SUBDIR


def spool_dir(root: str | Path | None = None) -> Path:
    """Scratch directory for fleet spool files (jobs, result streams,
    heartbeat leases), created on demand.

    Defaults to ``<cache_dir>/spool`` rather than ``tempfile``'s
    ``/tmp``: the remote-worker contract assumes a *shared* filesystem,
    and the cache directory is the one path the platform already
    requires to be shared — ``/tmp`` is almost always host-local, so
    spooling there would silently break every non-local host.
    """
    base = Path(root) if root is not None else default_cache_dir()
    path = base / "spool"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _spool_entries(root: str | Path | None = None) -> list[Path]:
    """Per-run fleet spool directories (``spool/fleet-*``), no mkdir."""
    base = Path(root) if root is not None else default_cache_dir()
    directory = base / "spool"
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.glob("fleet-*") if p.is_dir())


def _dir_stats(directory: Path) -> tuple[int, int, float]:
    """``(files, bytes, newest_mtime)`` over one spool dir, tolerantly
    (workers may still be writing or deleting while we scan)."""
    files = 0
    size = 0
    try:
        newest = directory.stat().st_mtime
    except OSError:
        newest = 0.0
    for path in directory.rglob("*"):
        try:
            stat = path.stat()
        except OSError:
            continue
        if stat.st_mtime > newest:
            newest = stat.st_mtime
        if path.is_file():
            files += 1
            size += stat.st_size
    return files, size, newest


def spool_usage(root: str | Path | None = None) -> dict:
    """JSON-able footprint of the fleet spool (``repro cache info``)."""
    dirs = _spool_entries(root)
    files = 0
    size = 0
    for directory in dirs:
        n, b, _newest = _dir_stats(directory)
        files += n
        size += b
    return {"dirs": len(dirs), "files": files, "bytes": size}


def gc_spool(
    root: str | Path | None = None,
    min_age_s: float = SPOOL_GC_MIN_AGE_S,
    now: float | None = None,
) -> tuple[int, int]:
    """Reclaim orphaned fleet spool directories; returns
    ``(dirs_removed, bytes_reclaimed)``.

    A coordinator normally removes its own ``spool/fleet-*`` directory,
    but a SIGKILL (or a powered-off coordinator host) never reaches
    that cleanup, so job pickles, result streams and heartbeat leases
    accumulate forever on the shared filesystem.  A directory is
    reclaimed only when its *newest* contained mtime — which a live
    worker's heartbeat lease renews at sub-second cadence, and every
    dispatch refreshes — is older than ``min_age_s``: anything a
    running fleet could still be using is left alone.
    """
    if now is None:
        now = time.time()
    removed = 0
    reclaimed = 0
    import shutil

    for directory in _spool_entries(root):
        _files, size, newest = _dir_stats(directory)
        if now - newest < min_age_s:
            continue  # something in there is recent: possibly live
        shutil.rmtree(directory, ignore_errors=True)
        if not directory.exists():
            removed += 1
            reclaimed += size
    return removed, reclaimed


@contextlib.contextmanager
def _store_lock(directory: Path):
    """Advisory exclusive lock over a store directory (no-op without
    fcntl).  Streaming sweeps append one JSONL row per finished job from
    however many concurrent writers share the directory — the lock keeps
    each row's bytes contiguous so interleaved writers never corrupt
    each other's records, and compaction takes it across its re-read +
    atomic rename so no streamed row lands on the dead inode.  The lock
    lives in a sidecar file (never the data file): writers open the data
    file only *after* acquiring it, so they always see a post-rename
    path."""
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / ".lock").open("a") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _current_salt() -> str:
    """The simulator code-version salt (imported lazily: serialize pulls
    in the simulation model, which this module must not load eagerly)."""
    from repro.exp.serialize import code_version_salt

    return code_version_salt()


@dataclass(frozen=True)
class StoreInfo:
    """Snapshot of a store's on-disk health (``repro cache info``).

    ``dead_records`` are well-formed rows shadowed by a later write of
    the same key; ``stale_records`` are rows written under an older
    code-version salt, which no current cache key can ever reference
    again.  Together with ``damaged_lines`` they are the bytes a
    :meth:`ResultStore.compact` reclaims.
    """

    path: str
    size_bytes: int
    live_keys: int
    dead_records: int
    stale_records: int
    damaged_lines: int

    @property
    def total_records(self) -> int:
        return self.live_keys + self.dead_records


class ResultStore:
    """Durable key → payload map over an append-only JSONL file."""

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        auto_compact: bool = True,
    ) -> None:
        self.directory = Path(cache_dir) if cache_dir else default_cache_dir()
        self.path = self.directory / "results.jsonl"
        self._auto_compact = auto_compact
        #: Compactions this instance performed opportunistically.
        self.auto_compactions = 0
        self._index: dict[str, dict] = {}
        #: Code-version salt each key was written under (None if unknown).
        self._salts: dict[str, str | None] = {}
        #: Live keys per salt, kept in step with ``_salts`` so that the
        #: auto-compaction check and ``info()`` count salted and stale
        #: rows without scanning every key.
        self._salt_counts: Counter = Counter()
        #: Well-formed records appended so far (live + superseded).
        self._records = 0
        #: Damaged lines skipped during the initial load.
        self.skipped_lines = 0
        #: get() bookkeeping, reset per store instance.
        self.hits = 0
        self.misses = 0
        #: Durable-append latency accounting (lock + write + flush), per
        #: instance — the store's contribution to sweep wall time.
        self.flush_count = 0
        self.flush_total_s = 0.0
        self.flush_max_s = 0.0
        #: fsync cost within the flush path, counted separately so the
        #: price of the durability contract is visible (`repro cache
        #: info` / `repro stats`).  Zero when REPRO_STORE_FSYNC=0.
        self.fsync_count = 0
        self.fsync_total_s = 0.0
        self.fsync_max_s = 0.0
        #: Rows appended by *other* writers that this instance has
        #: folded into its index via :meth:`reconcile`.
        self.reconciled_records = 0
        #: File offset up to which this instance has parsed the data
        #: file.  Everything past it was appended by concurrent writers
        #: since we last looked; :meth:`reconcile` absorbs it under the
        #: store lock so counts (`info()`/`health()`) and auto-compaction
        #: decisions never drift during multi-writer sweeps.
        self._synced_bytes = 0
        #: Inode backing that offset: compaction replaces the file
        #: (``os.replace``), and the rewrite can land on the *same* byte
        #: count — the identity change is what says "reload", not size.
        self._synced_ino = 0
        #: Compaction latency accounting (auto and explicit).
        self.compaction_count = 0
        self.compaction_total_s = 0.0
        self.compaction_last_s: float | None = None
        #: Counter values at the previous :meth:`sweep_health` report.
        #: Zeros: the first sweep's window opens with the instance, so
        #: it includes the load and any auto-compaction.
        self._reported = dict.fromkeys(_SWEEP_COUNTERS, 0)
        #: Longest flush and fsync since that report (maxima cannot be
        #: differenced like the totals).
        self._window_flush_max_s = 0.0
        self._window_fsync_max_s = 0.0
        self._load()
        if auto_compact:
            self._maybe_auto_compact()

    def _load(self) -> None:
        try:
            raw = self.path.read_bytes()
            ino = self.path.stat().st_ino
        except FileNotFoundError:
            self._synced_bytes = 0
            self._synced_ino = 0
            return
        # Everything read here is accounted for (well-formed, damaged,
        # or a torn tail that put() will repair into a damaged line), so
        # the sync point is the end of what we saw; bytes appended past
        # it by concurrent writers are absorbed by reconcile().
        self._synced_bytes = len(raw)
        self._synced_ino = ino
        # Decode permissively: invalid UTF-8 (disk corruption, a crash
        # mid-multibyte-write) must degrade to skipped lines, not abort.
        # Lines end at "\n" only: str.splitlines would also break on
        # characters a JSON string may hold raw (U+2028, U+0085, ...).
        for line in raw.decode("utf-8", errors="replace").split("\n"):
            self._ingest_line(line)

    def _ingest_line(self, line: str) -> bool:
        """Fold one JSONL line into the index; True if it was a
        well-formed record (else it is counted as damaged)."""
        line = line.strip()
        if not line:
            return False
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            self.skipped_lines += 1
            return False
        if (
            not isinstance(record, dict)
            or not isinstance(record.get("key"), str)
            or not isinstance(record.get("payload"), dict)
        ):
            self.skipped_lines += 1
            return False
        # Last write wins, so re-runs after code changes stay correct
        # even if an old record shares a key (it cannot, but cheap).
        self._records += 1
        salt = record.get("salt")
        self._index_row(
            record["key"], record["payload"],
            salt if isinstance(salt, str) else None,
        )
        return True

    def _index_row(self, key: str, payload: dict, salt: str | None) -> None:
        """Point ``key`` at ``payload`` (last write wins), keeping the
        per-salt live counts in step."""
        if key in self._salts:
            self._salt_counts[self._salts[key]] -= 1
        self._index[key] = payload
        self._salts[key] = salt
        self._salt_counts[salt] += 1

    def _tail_is_torn(self) -> bool:
        """True when the data file ends mid-line (crash during an
        append, by any process).  Checked under the store lock."""
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return False
        if size == 0:
            return False
        with self.path.open("rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"

    def _reload(self) -> None:
        """Re-read the file from scratch (picks up concurrent appends)."""
        self._index = {}
        self._salts = {}
        self._salt_counts = Counter()
        self._records = 0
        self.skipped_lines = 0
        self._load()

    def _absorb_new_rows(self) -> int:
        """Fold rows appended by concurrent writers since this instance
        last synced into the in-memory index and counters.  MUST be
        called with the store lock held.

        Only complete lines are absorbed; a torn tail (another writer
        crashed mid-append) stays unsynced until a later append repairs
        it.  If the file shrank — another process compacted it — the
        whole view is rebuilt, which is the only safe interpretation.
        """
        try:
            stat = self.path.stat()
        except FileNotFoundError:
            self._synced_bytes = 0
            self._synced_ino = 0
            return 0
        size = stat.st_size
        if size < self._synced_bytes or stat.st_ino != self._synced_ino:
            # Shrunk, or same path but a different file: another process
            # compacted (os.replace swaps inodes even at equal size), or
            # created the file after we opened on nothing.
            before = self._records
            self._reload()
            absorbed = max(0, self._records - before)
            self.reconciled_records += absorbed
            return absorbed
        if size == self._synced_bytes:
            return 0
        with self.path.open("rb") as handle:
            handle.seek(self._synced_bytes)
            raw = handle.read()
        complete, newline, _partial = raw.rpartition(b"\n")
        if not newline:
            return 0  # a single torn line: nothing complete to absorb
        absorbed = 0
        for line in complete.decode("utf-8", errors="replace").split("\n"):
            if self._ingest_line(line):
                absorbed += 1
        self._synced_bytes += len(complete) + 1
        self.reconciled_records += absorbed
        return absorbed

    def reconcile(self) -> int:
        """Absorb rows appended by concurrent writers (under the store
        lock); returns how many records were folded in.

        :meth:`put` reconciles implicitly, but a read-mostly instance —
        the coordinator process of a multi-writer sweep, a long-lived
        service answering ``info()``/``health()`` — would otherwise
        under-count records written by its workers and drift its
        auto-compaction decisions.

        The data file is stat'ed *before* the lock is taken: when its
        size and inode both match this instance's last sync, nothing
        changed and 0 is returned without locking.  That is safe
        because the file only ever grows by appends, and compaction
        replaces it (``os.replace``), which swaps the inode even when
        the rewrite lands on the same byte count.  A stat taken while
        another writer holds the lock sees the file either before that
        writer's change (the same answer the locked path would give had
        it run first) or after it (and takes the lock).  Anything else,
        a missing file included, takes the locked path.
        """
        try:
            stat = self.path.stat()
        except FileNotFoundError:
            pass
        else:
            if (stat.st_size == self._synced_bytes
                    and stat.st_ino == self._synced_ino):
                return 0
        with _store_lock(self.directory):
            return self._absorb_new_rows()

    def refresh(self) -> int:
        """Bring a long-lived instance to where a fresh open would be:
        :meth:`reconcile`, then apply the auto-compaction policy again
        (when this instance has it enabled).  Returns the records
        absorbed.  Costs one stat, and no lock, when the file is
        unchanged since this instance last synced (see
        :meth:`reconcile` for why that is safe).
        """
        absorbed = self.reconcile()
        if self._auto_compact:
            self._maybe_auto_compact()
        return absorbed

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def get(self, key: str) -> dict | None:
        """Payload for ``key`` or ``None``; counts a hit or a miss."""
        payload = self._index.get(key)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def put(self, key: str, payload: dict, salt: str | None = None) -> None:
        """Record a result durably (appended before the index updates).

        ``salt`` tags the row with the code-version salt it was computed
        under.  The salt is already folded into the opaque ``key``, so
        it is redundant for lookups — but recording it visibly lets
        :meth:`compact` reclaim rows stranded by simulator changes.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        record: dict = {"key": key, "payload": payload}
        if salt is not None:
            record["salt"] = salt
        line = json.dumps(record, sort_keys=True)
        flush_started = time.perf_counter()
        with _store_lock(self.directory):
            # Fold in whatever concurrent writers appended since we last
            # looked, so this instance's record counts never drift under
            # multi-writer sweeps (the lock makes the view consistent).
            self._absorb_new_rows()
            # Decide the repair newline from the file's *actual* tail,
            # under the lock — not from load-time state: another process
            # may have crashed mid-append (or repaired the tail) since
            # this store loaded, and gluing onto its partial row would
            # damage this record too.
            torn = self._tail_is_torn()
            if torn:
                try:
                    size = self.path.stat().st_size
                except FileNotFoundError:
                    size = 0
                if size > self._synced_bytes:
                    # A concurrent writer crashed mid-append since we
                    # last synced: its partial row becomes a damaged
                    # line once the repair newline below completes it.
                    # (A torn tail we already saw at load time was
                    # counted then — don't count it twice.)
                    self.skipped_lines += 1
            with self.path.open("a") as handle:
                if torn:
                    handle.write("\n")
                handle.write(line + "\n")
                handle.flush()
                if _fsync_enabled():
                    # The durability contract: the row must survive an
                    # OS crash, not just this process (resume-from-cache
                    # trusts every line already on disk).
                    fsync_started = time.perf_counter()
                    os.fsync(handle.fileno())
                    fsync_s = time.perf_counter() - fsync_started
                    self.fsync_count += 1
                    self.fsync_total_s += fsync_s
                    self.fsync_max_s = max(self.fsync_max_s, fsync_s)
                    self._window_fsync_max_s = max(
                        self._window_fsync_max_s, fsync_s
                    )
            # Flushed under the lock, so EOF is exactly our own append:
            # everything up to here is now part of this instance's view.
            stat = self.path.stat()
            self._synced_bytes = stat.st_size
            self._synced_ino = stat.st_ino
        flush_s = time.perf_counter() - flush_started
        self.flush_count += 1
        self.flush_total_s += flush_s
        self.flush_max_s = max(self.flush_max_s, flush_s)
        self._window_flush_max_s = max(self._window_flush_max_s, flush_s)
        self._records += 1
        self._index_row(key, payload, salt)

    # ------------------------------------------------------------------
    # Maintenance (``repro cache info`` / ``repro cache gc``)
    # ------------------------------------------------------------------
    def _maybe_auto_compact(self) -> None:
        """Opportunistic GC: compact when reclaimable rows dominate.

        Every sweep opens (or, in the service, refreshes) a store, so
        without this the JSONL file grows by one full result set per
        simulator change (stale rows) plus every superseded write, until
        someone remembers ``repro cache gc``.  The policy is
        conservative: compaction runs only when the waste both clears
        :data:`AUTO_COMPACT_MIN_WASTE` *and* outweighs the live entries
        — small or mostly-live stores are never rewritten.  Every count
        is O(1); the stale count (which imports the simulator to hash
        its sources) is deferred until the cheap counts have already
        made compaction plausible.
        """
        live = len(self._index)
        cheap_waste = (self._records - live) + self.skipped_lines
        if cheap_waste + self._salted_count() < AUTO_COMPACT_MIN_WASTE:
            return  # even if every salted row were stale: under the floor
        stale = self._stale_count()
        waste = cheap_waste + stale
        if waste >= AUTO_COMPACT_MIN_WASTE and waste > live - stale:
            self.compact()
            self.auto_compactions += 1

    def _salted_count(self) -> int:
        """Live keys written with a salt (O(1))."""
        return len(self._index) - self._salt_counts[None]

    def _stale_count(self) -> int:
        """Live keys written under a different code-version salt than
        today's (O(1)).  The simulator salt is computed only when some
        live key is salted.

        Unsalted rows (written via a bare :meth:`put`) are never treated
        as stale — their vintage is unknown.
        """
        salted = self._salted_count()
        if not salted:
            return 0
        return salted - self._salt_counts[_current_salt()]

    def _stale_keys(self) -> set[str]:
        """The keys :meth:`_stale_count` counts (scans every key)."""
        if not self._stale_count():
            return set()
        current = _current_salt()
        return {
            key for key, salt in self._salts.items()
            if salt is not None and salt != current
        }

    def info(self) -> StoreInfo:
        """Entry counts and reclaimable waste for this store.

        Reconciles with rows appended by concurrent writers first, so
        the counts describe the file, not this instance's stale view.
        """
        self.reconcile()
        size = self.path.stat().st_size if self.path.exists() else 0
        return StoreInfo(
            path=str(self.path),
            size_bytes=size,
            live_keys=len(self._index),
            dead_records=self._records - len(self._index),
            stale_records=self._stale_count(),
            damaged_lines=self.skipped_lines,
        )

    def compact(self) -> StoreInfo:
        """Rewrite the JSONL file with only the live, current records.

        Drops superseded duplicates, damaged lines, and rows written
        under an older code-version salt (no current cache key can ever
        reference those again — without this the CI-persisted cache
        would grow by one full result set per simulator change).  The
        rewrite is atomic (temp file + rename), so a crash
        mid-compaction leaves the original file intact.  The file is
        re-read immediately before rewriting — under the same advisory
        lock every :meth:`put` takes — so records appended by another
        process since this store loaded are preserved, and writers
        racing the rename block until it completes instead of landing
        rows on the dead inode.  Returns the post-compaction
        :class:`StoreInfo`.
        """
        compaction_started = time.perf_counter()
        if self.path.exists():
            # Hold the store lock across the re-read and the rename, so
            # rows streamed in by concurrent writers either land before
            # the re-read (and survive) or block until the rename is
            # done (and land in the compacted file).
            with _store_lock(self.directory):
                self._reload()
                for key in self._stale_keys():
                    del self._index[key]
                    self._salt_counts[self._salts.pop(key)] -= 1
                tmp = self.path.with_suffix(".jsonl.tmp")
                with tmp.open("w") as handle:
                    for key, payload in self._index.items():
                        record: dict = {"key": key, "payload": payload}
                        if self._salts.get(key) is not None:
                            record["salt"] = self._salts[key]
                        handle.write(
                            json.dumps(record, sort_keys=True) + "\n"
                        )
                os.replace(tmp, self.path)
                stat = self.path.stat()
                self._synced_bytes = stat.st_size
                self._synced_ino = stat.st_ino
        else:
            self._synced_bytes = 0
            self._synced_ino = 0
        self._records = len(self._index)
        self.skipped_lines = 0
        self.compaction_last_s = time.perf_counter() - compaction_started
        self.compaction_count += 1
        self.compaction_total_s += self.compaction_last_s
        return self.info()

    def health(self) -> dict:
        """One JSON-able health block: on-disk state plus this instance's
        lifetime operational counters.  This is the payload behind
        ``repro cache info``.
        """
        info = self.info()
        return self._health_block(
            info, self._counters(), self.flush_max_s, self.fsync_max_s,
            self.compaction_last_s,
        )

    def sweep_health(self) -> dict:
        """:meth:`health` with one sweep's operational counters, the
        store's contribution to :class:`~repro.obs.SweepMetrics`.

        The counters cover what this instance did since the previous
        sweep's report, or since it opened, so a store opened for one
        sweep reports its load and auto-compaction as :meth:`health`
        does, and a long-lived store (one per service worker) reports
        each sweep's hits, puts, reconciled rows and compactions, its
        :meth:`refresh` included.  The instance attributes stay
        lifetime totals.
        """
        info = self.info()
        now = self._counters()
        window = {name: now[name] - self._reported[name] for name in now}
        block = self._health_block(
            info, window, self._window_flush_max_s,
            self._window_fsync_max_s,
            self.compaction_last_s if window["compaction_count"] else None,
        )
        self._reported = now
        self._window_flush_max_s = self._window_fsync_max_s = 0.0
        return block

    def _counters(self) -> dict:
        return {name: getattr(self, name) for name in _SWEEP_COUNTERS}

    def _health_block(self, info: StoreInfo, counts: dict,
                      flush_max_s: float, fsync_max_s: float,
                      compaction_last_s: float | None) -> dict:
        return {
            "path": info.path,
            "size_bytes": info.size_bytes,
            "live_keys": info.live_keys,
            "dead_records": info.dead_records,
            "stale_records": info.stale_records,
            "damaged_lines": info.damaged_lines,
            "hits": counts["hits"],
            "misses": counts["misses"],
            "auto_compactions": counts["auto_compactions"],
            "reconciled_records": counts["reconciled_records"],
            "flush": {
                "count": counts["flush_count"],
                "total_s": counts["flush_total_s"],
                "max_s": flush_max_s,
                "fsync_count": counts["fsync_count"],
                "fsync_total_s": counts["fsync_total_s"],
                "fsync_max_s": fsync_max_s,
            },
            "compaction": {
                "count": counts["compaction_count"],
                "total_s": counts["compaction_total_s"],
                "last_s": compaction_last_s,
            },
            "spool": spool_usage(self.directory),
        }
