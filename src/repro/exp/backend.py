"""Pluggable sweep-execution backends.

:func:`~repro.exp.runner.run_batch` (behind ``run_sweep`` and
``run_attack_jobs``) splits a batch into a cache-served part and an
"execute the uncached remainder" part.  This module owns the second
part: a :class:`SweepBackend` receives the pending ``(index,
task)`` pairs, runs each task through a picklable ``run_one`` callable,
and reports every finished payload through an ``emit(index, payload)``
callback.  The caller persists and reassembles; the backend only decides
*where and how* tasks run.

Backends are resolved by name through a registry that mirrors
``@register_defense``: anything registered here is addressable from
``run_sweep(..., backend="name")``, ``run_attack_jobs``, ``run_bench``
and the CLI (``repro sweep --backend pool --jobs 4``).

Shipped backends:

``serial``
    Run every task in the calling process, in order.  The reference
    implementation every other backend must match byte for byte.
``pool``
    ``ProcessPoolExecutor`` with chunked dispatch — the original
    ``run_sweep(jobs=N)`` path, extracted.  Finished chunks reach
    ``emit`` (and the store) as they complete, so a sweep killed
    mid-run resumes from the :class:`~repro.exp.cache.ResultStore`;
    its workers exit with the sweep process.
``remote-fleet``
    The supervised fleet tier (:mod:`repro.fleet.coordinator`,
    registered lazily): ``python -m repro worker`` per host in a host
    list (``"local"`` spawns without ssh), capability probing,
    heartbeat leases, retry with migration, host quarantine, chaos
    injection, and graceful fallback to ``pool`` when every host is
    gone.

The equivalence contract: every backend calls the same ``run_one`` on
the same task objects and returns the same canonical dict payloads, and
the caller reassembles them positionally — so aggregates are
byte-identical across backends (asserted by ``tests/test_backends.py``
and the CI ``backend-equivalence`` job).

Adding a backend::

    from repro.exp.backend import SweepBackend, register_backend

    @register_backend("my-cluster")
    class MyClusterBackend(SweepBackend):
        def __init__(self, jobs=1, hosts=None):
            ...
        def execute(self, tasks, run_one, emit):
            for index, obj in tasks:
                emit(index, run_one(obj))   # however it actually runs
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Sequence

from repro.errors import ReproError

#: One pending unit of work: (position in the sweep, picklable task).
Task = tuple[int, object]

#: Called by the backend once per finished task, any order.
EmitFn = Callable[[int, dict], None]

#: Picklable task executor: a module-level function such as
#: ``execute_job``, or a ``functools.partial`` of one.
RunOneFn = Callable[[object], dict]


class SweepBackend:
    """Executes pending sweep tasks; subclasses define where they run."""

    #: Registry name (set by :func:`register_backend`).
    name: str = "?"

    #: Operational counters of the most recent :meth:`execute` call
    #: (JSON-able; shape is backend-specific).  Each execute() replaces
    #: the whole dict on the instance, so this class-level empty dict is
    #: only the never-executed fallback and is never mutated.
    metrics: dict = {}

    def execute(
        self, tasks: Sequence[Task], run_one: RunOneFn, emit: EmitFn
    ) -> None:
        """Run every task, reporting ``emit(index, payload)`` per finish.

        ``emit`` may be called in any order (the caller reassembles
        positionally) but must be called exactly once per task, from the
        calling process — it touches the result store and progress
        callbacks, which are not shared with workers.
        """
        raise NotImplementedError


_BACKENDS: dict[str, type[SweepBackend]] = {}


def register_backend(name: str):
    """Class decorator: make a :class:`SweepBackend` addressable by name."""

    def deco(cls: type[SweepBackend]) -> type[SweepBackend]:
        if name in _BACKENDS:
            raise ReproError(f"backend {name!r} is already registered")
        cls.name = name
        _BACKENDS[name] = cls
        return cls

    return deco


def _ensure_plugin_backends() -> None:
    """Import backend modules that live outside this file.

    ``remote-fleet`` lives in :mod:`repro.fleet.coordinator`, which
    imports *this* module for :class:`SweepBackend` — so it cannot be
    imported at the top of this file.  Importing it here, on a lookup
    the loaded registry misses, keeps the graph acyclic (and
    ``repro.exp`` free of ``repro.fleet``) while every resolver still
    sees the full registry.
    """
    import repro.fleet.coordinator  # noqa: F401  (registers remote-fleet)


def registered_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    _ensure_plugin_backends()
    return tuple(sorted(_BACKENDS))


def backend_summaries() -> list[tuple[str, str]]:
    """``(name, one-line summary)`` per registered backend, sorted —
    the ``repro backends`` listing."""
    return [
        (name, (_BACKENDS[name].__doc__ or "").strip().splitlines()[0])
        for name in registered_backends()
    ]


def backend_class(name: str) -> type[SweepBackend]:
    """The backend class registered as ``name``.

    Looks in the already-loaded registry first and imports the plugin
    backends only on a miss, so naming ``serial`` or ``pool`` never
    loads the fleet coordinator.  Raises :class:`ReproError` naming the
    registered backends when ``name`` is unknown.
    """
    cls = _BACKENDS.get(name)
    if cls is None:
        _ensure_plugin_backends()
        cls = _BACKENDS.get(name)
    if cls is None:
        known = ", ".join(registered_backends())
        raise ReproError(
            f"unknown sweep backend {name!r}; registered backends: {known}"
        )
    return cls


def resolve_backend(
    backend: str | SweepBackend,
    jobs: int = 1,
    hosts: Sequence[str] | None = None,
    pending: int | None = None,
) -> SweepBackend:
    """Turn a name (or an already-built backend) into a ready instance.

    ``"auto"`` picks ``serial`` for ``jobs<=1`` or when at most one task
    is ``pending`` (``None``: not known yet), and ``pool`` otherwise.
    """
    if isinstance(backend, SweepBackend):
        return backend
    if backend == "auto":
        one_task = pending is not None and pending <= 1
        backend = "serial" if jobs <= 1 or one_task else "pool"
    return backend_class(backend)(jobs=jobs, hosts=hosts)


# ----------------------------------------------------------------------
# serial
# ----------------------------------------------------------------------
@register_backend("serial")
class SerialBackend(SweepBackend):
    """In-process, in-order execution: the reference implementation."""

    def __init__(
        self, jobs: int = 1, hosts: Sequence[str] | None = None
    ) -> None:
        del jobs, hosts

    def execute(
        self, tasks: Sequence[Task], run_one: RunOneFn, emit: EmitFn
    ) -> None:
        started = time.perf_counter()
        for index, obj in tasks:
            emit(index, run_one(obj))
        self.metrics = {
            "workers": 1,
            "tasks": len(tasks),
            "wall_s": time.perf_counter() - started,
        }


# ----------------------------------------------------------------------
# pool
# ----------------------------------------------------------------------
def _execute_task_batch(run_one: RunOneFn, objs: list) -> list[dict]:
    """``pool`` worker entry point: run one chunk of tasks in order."""
    return [run_one(obj) for obj in objs]


#: How often a ``pool`` worker checks that its parent is still alive.
_PARENT_POLL_S = 0.1


def _exit_with_parent() -> None:
    """``pool`` worker initializer: exit once the parent process is gone.

    A sweep killed hard (SIGKILL) never shuts its pool down, and a
    worker blocked on the executor's call queue would otherwise live on
    as an orphan, holding every pipe it inherited from the sweep — so
    whoever waits on those pipes (a ``multiprocessing`` join, a shell
    pipeline) waits forever.  A daemon thread polls ``os.getppid()``
    against the parent seen at start-up: the sweep process under the
    ``fork`` and ``spawn`` start methods, the fork server (which exits
    with the sweep) under ``forkserver``.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@register_backend("pool")
class PoolBackend(SweepBackend):
    """``ProcessPoolExecutor`` with chunked dispatch.

    Chunking amortises pickling without starving workers (~4 chunks per
    worker); chunks are consumed as they complete, not in submission
    order, so every finished result reaches ``emit`` — and the store —
    immediately.  A task that raises fails the sweep at once: chunks not
    yet handed to a worker are cancelled instead of run.  Workers exit
    with the sweep process, even when it is killed.
    """

    def __init__(
        self, jobs: int = 1, hosts: Sequence[str] | None = None
    ) -> None:
        del hosts
        if jobs < 1:
            raise ReproError(f"pool backend needs jobs >= 1, got {jobs}")
        self.jobs = jobs

    def execute(
        self, tasks: Sequence[Task], run_one: RunOneFn, emit: EmitFn
    ) -> None:
        if not tasks:
            self.metrics = {"workers": 0, "tasks": 0, "wall_s": 0.0}
            return
        started = time.perf_counter()
        workers = min(self.jobs, len(tasks))
        chunksize = max(1, math.ceil(len(tasks) / (workers * 4)))
        chunks = [
            list(tasks[start:start + chunksize])
            for start in range(0, len(tasks), chunksize)
        ]
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_exit_with_parent
        )
        try:
            futures = {
                pool.submit(
                    _execute_task_batch, run_one, [obj for _, obj in chunk]
                ): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                for (index, _obj), payload in zip(
                    futures[future], future.result()
                ):
                    emit(index, payload)
        except BaseException:
            # Fail fast: waiting for every queued chunk would only
            # compute results the failed sweep never reports.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
        self.metrics = {
            "workers": workers,
            "tasks": len(tasks),
            "chunks": len(chunks),
            "chunk_size": chunksize,
            "wall_s": time.perf_counter() - started,
        }
