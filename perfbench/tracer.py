"""Span tracing from outside the program.

:class:`Tracer` wraps the public functions of each layer with spans,
replacing every module attribute and class attribute through which
callers look the function up, and restores the originals on
:meth:`Tracer.restore`.  A span records its name, start, end, parent and
thread; spans stay in memory until :meth:`Tracer.write`.

Hooks called once per simulated DRAM command (the defense and telemetry
hooks) are *leaf* spans: each call still adds its duration to the
enclosing span's child time, but calls are folded into per-name and
per-parent totals instead of being stored one by one, which keeps a
traced sweep's memory flat.  A leaf called from inside another leaf is
not counted twice.

Self time of a span is its duration minus the time of the spans it
directly encloses.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path

_ns = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        #: Closed spans: [id, name, parent_id, thread, start_ns, end_ns,
        #: child_ns, attrs].
        self.spans: list[list] = []
        #: Leaf totals by (parent span id or None, name): [calls,
        #: total_ns].
        self.leaf_parents: dict[tuple, list[int]] = defaultdict(
            lambda: [0, 0]
        )
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, name: str, fn, on_exit=None):
        """``fn`` wrapped in a span; ``on_exit(args, kwargs, result,
        attrs)`` may add attributes once the call returns."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id, 0]  # id, child_ns
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            started = _ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = _ns()
                stack.pop()
                if stack:
                    stack[-1][1] += ended - started
                attrs = {}
                if on_exit is not None:
                    on_exit(args, kwargs, result, attrs)
                tracer.spans.append([
                    span_id, name, parent, threading.get_ident(),
                    started, ended, frame[1], attrs,
                ])

        return traced

    def leaf_wrapper(self, name: str, fn):
        """``fn`` wrapped as a leaf span (aggregated, not stored)."""
        local = self._local
        leaf_parents = self.leaf_parents

        @wraps(fn)
        def traced(*args, **kwargs):
            if getattr(local, "in_leaf", False):
                return fn(*args, **kwargs)
            local.in_leaf = True
            started = _ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _ns() - started
                local.in_leaf = False
                stack = getattr(local, "stack", None)
                parent = None
                if stack:
                    stack[-1][1] += elapsed
                    parent = stack[-1][0]
                totals = leaf_parents[(parent, name)]
                totals[0] += 1
                totals[1] += elapsed

        return traced

    # -- patching ------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, original, name: str,
                       leaf: bool = False) -> None:
        """Wrap a module-level function under every ``repro`` module
        attribute that names it (callers that imported it by name keep
        their own reference, so each one is replaced)."""
        wrapper = (self.leaf_wrapper(name, original) if leaf
                   else self.span_wrapper(name, original))
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, leaf: bool = False,
                     on_exit=None) -> None:
        """Wrap a method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        wrapper = (self.leaf_wrapper(name, original) if leaf
                   else self.span_wrapper(name, original, on_exit))
        self._set(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting -----------------------------------------------------
    def table(self, factor_at=None) -> dict[str, dict]:
        """``{name: {calls, total_ms, self_ms}}`` over spans and leaves.

        ``factor_at(start_ns)`` gives the host-speed calibration factor
        in force when a span started (``None`` for leaf calls made
        outside any span); times are multiplied by it.
        """
        if factor_at is None:
            def factor_at(_start_ns):
                return 1.0
        rows: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        factors: dict[int, float] = {}
        for span_id, name, _parent, _thread, start, end, child, _attrs in \
                self.spans:
            factor = factors[span_id] = factor_at(start)
            row = rows[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * factor / 1e6
            row["self_ms"] += (end - start - child) * factor / 1e6
        for (parent, name), (calls, total) in self.leaf_parents.items():
            factor = factors.get(parent) if parent is not None else None
            if factor is None:
                factor = factor_at(None)
            row = rows[name]
            row["calls"] += calls
            row["total_ms"] += total * factor / 1e6
            row["self_ms"] += total * factor / 1e6
        return dict(rows)

    def named(self, name: str) -> list[list]:
        return [span for span in self.spans if span[1] == name]

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line per leaf aggregate."""
        with path.open("w") as handle:
            for span_id, name, parent, thread, start, end, child, attrs in \
                    self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "thread": thread, "start_ns": start, "end_ns": end,
                    "child_ns": child, "attrs": attrs,
                }, sort_keys=True) + "\n")
            for (parent, name), (calls, total) in \
                    self.leaf_parents.items():
                handle.write(json.dumps({
                    "leaf": name, "parent": parent, "calls": calls,
                    "total_ns": total,
                }, sort_keys=True) + "\n")
