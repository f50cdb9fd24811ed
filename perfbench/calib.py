"""Host-speed calibration: a frozen pure-Python kernel and a segment clock.

The host's speed drifts by large factors from one second to the next, so
a raw host time cannot be compared across runs.  :func:`kernel` is a fixed
piece of interpreter work that imports nothing from the program under
test.  :class:`Clock` runs it at every boundary between program segments,
while the program is idle, and scales each segment's raw time by
``NOMINAL_KERNEL_S / mean(kernel sample before, kernel sample after)``:
the time the segment would have taken on a host running the kernel at its
nominal speed.  Units stay seconds.

The kernel's source is pinned by hash in ``test_perfbench.py``; changing
it (or ``NOMINAL_KERNEL_S``) changes every calibrated figure, so it is a
benchmark change of its own.
"""

from __future__ import annotations

import bisect
import hashlib
import inspect
import statistics
import time
from dataclasses import dataclass

#: Pinned nominal duration of one :func:`sample` (seconds).
NOMINAL_KERNEL_S = 0.0015

#: Kernel runs per sample; the sample is their median, so one preempted
#: run does not skew the calibration of the segments beside it.
RUNS_PER_SAMPLE = 3


def kernel(rounds: int = 3000) -> int:
    """Frozen calibration work: integer mixing plus dict and list traffic,
    the operations the simulator's Python loops are made of."""
    table = {}
    window = []
    acc = 0x9E3779B9
    for i in range(rounds):
        acc = (acc * 1103515245 + 12345 + i) & 0xFFFFFFFF
        key = acc >> 21
        table[key] = table.get(key, 0) + 1
        window.append(acc & 0xFFF)
        if len(window) > 48:
            acc ^= window.pop(0)
    ordered = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    for key, count in ordered[:32]:
        acc = (acc + key * count) & 0xFFFFFFFF
    return acc


def kernel_source_hash() -> str:
    """sha256 of :func:`kernel`'s source text (the pinned identity)."""
    return hashlib.sha256(inspect.getsource(kernel).encode()).hexdigest()


def sample() -> float:
    """One calibration sample: median raw seconds of a kernel run."""
    runs = []
    for _ in range(RUNS_PER_SAMPLE):
        started = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - started)
    return statistics.median(runs)


@dataclass
class Segment:
    """Program time between two kernel samples."""

    kind: str
    raw_s: float
    #: Index of the kernel sample taken just before the segment.
    before: int
    #: ``perf_counter_ns`` when the segment opened (span lookups).
    opened_ns: int
    label: str = ""


class Clock:
    """Splits a timed phase into segments separated by kernel samples.

    ``start()`` samples the kernel and opens the first segment; each
    ``lap(kind)`` closes the open segment, lets ``settle`` wait for the
    program's threads to go idle, samples the kernel and opens the next
    segment.  Kernel time is never part of a segment.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.segments: list[Segment] = []
        self._opened = 0

    def start(self) -> None:
        self.kernel_s.append(sample())
        self._opened = time.perf_counter_ns()

    def lap(self, kind: str, label: str = "", settle=None) -> Segment:
        ended = time.perf_counter_ns()
        if settle is not None:
            settle()
        segment = Segment(kind, (ended - self._opened) / 1e9,
                          len(self.kernel_s) - 1, self._opened, label)
        self.segments.append(segment)
        self.kernel_s.append(sample())
        self._opened = time.perf_counter_ns()
        return segment

    def factor(self, segment: Segment) -> float:
        """Raw-to-calibrated scale for one segment."""
        pair = self.kernel_s[segment.before:segment.before + 2]
        return NOMINAL_KERNEL_S / statistics.fmean(pair)

    def calibrated(self, segment: Segment) -> float:
        """The segment's time at nominal host speed (seconds)."""
        return segment.raw_s * self.factor(segment)

    def factor_at(self, at_ns: int | None) -> float:
        """Scale of the segment open at ``at_ns`` (``None``: the median
        over all segments)."""
        if not self.segments:
            return 1.0
        if at_ns is None:
            return statistics.median(self.factor(s) for s in self.segments)
        starts = [s.opened_ns for s in self.segments]
        index = max(0, bisect.bisect_right(starts, at_ns) - 1)
        return self.factor(self.segments[index])

    def ops(self) -> list[Segment]:
        return [s for s in self.segments if s.kind == "op"]

    def total_s(self, calibrated: bool = True) -> float:
        """Sum of every segment: the phase's program time."""
        if calibrated:
            return sum(self.calibrated(s) for s in self.segments)
        return sum(s.raw_s for s in self.segments)

    def audit(self) -> dict:
        """Raw segment times and kernel samples, for the audit file."""
        return {
            "nominal_kernel_s": NOMINAL_KERNEL_S,
            "kernel_s": self.kernel_s,
            "segments": [
                {"kind": s.kind, "label": s.label, "raw_s": s.raw_s,
                 "calibrated_s": self.calibrated(s)}
                for s in self.segments
            ],
        }
