"""Sim-level telemetry: per-request latency traces on the simulated clock.

The simulation engines expose one observation seam: a :class:`Telemetry`
object threaded through :meth:`~repro.sim.engines.base.SimEngine.simulate`
into the controller (event engine) or the replay loop (epoch engine).
Everything recorded is keyed to the *simulated* clock — request arrival
and completion instants, ABO/RFM/REF blackout windows, PSQ occupancy
high-water marks — so the data is a pure observation of a run the
telemetry can never perturb: golden hashes and event-vs-epoch digests
are byte-identical with telemetry on or off.

Zero overhead when off: a run's telemetry is a :class:`Telemetry` or
``None``, and the hot path pays exactly one ``is not None`` test per
request.

Sweep workers build their recorder themselves: ``run_sweep(...,
telemetry=True)`` hands its backend ``execute_job`` with
``telemetry=True`` bound, which pickles into any worker process, and the
worker caps the exported samples at :func:`max_samples_from_env`.

Per-request samples are kept as columns, not rows.  The recorder
appends each request's arrival, write flag and core to three plain
lists (the latency column is the prefix of the full latency population
it keeps anyway), so recording allocates no per-request container and
leaves the garbage collector nothing to scan.  :meth:`Telemetry.export`
packs the capped prefix once into a single JSON-safe *packed sample
field* (:func:`pack_samples`)::

    {"layout": "columns-le/1", "n": 3,
     "arrive": <b64>, "latency": <b64>, "is_write": <b64>, "core": <b64>}

Each column is base64 over fixed-width little-endian values: float64
``arrive`` and ``latency`` (ns, bit-exact), uint8 ``is_write`` and
int16 ``core`` (``-1`` stands for a core of ``None``).  About 25 bytes
of JSON per request, against ~49 for the ``[arrive, latency, is_write,
core]`` row lists that schema-1 sweep traces carry inline.
:func:`decode_samples` is the one reader of both layouts.
"""

from __future__ import annotations

import os
import sys
from typing import Iterable

import numpy as np

#: Caps the per-request samples *exported* per job (summaries always
#: cover every request).  The first N samples in simulated-clock
#: service order are kept — a deterministic prefix, not a random draw.
TELEMETRY_MAX_SAMPLES_ENV = "REPRO_TELEMETRY_MAX_SAMPLES"

#: Default export cap: enough for latency scatter plots, small enough
#: that sweep trace files stay in the low megabytes.
DEFAULT_MAX_SAMPLES = 10_000

#: Layout tag of the packed sample field (:func:`pack_samples`).
SAMPLES_LAYOUT = "columns-le/1"

#: ``(name, dtype)`` of the packed columns, in row order.
_SAMPLE_COLUMNS = (
    ("arrive", "<f8"), ("latency", "<f8"), ("is_write", "u1"),
    ("core", "<i2"),
)

#: Histogram bucket upper bounds (ns), log2-spaced.  The last bucket is
#: open-ended (represented as ``null`` in JSON).
_HISTOGRAM_EDGES = tuple(float(1 << exp) for exp in range(4, 21))


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted values (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = int(len(sorted_values) * fraction + 0.5)
    if rank < 1:
        rank = 1
    elif rank > len(sorted_values):
        rank = len(sorted_values)
    return sorted_values[rank - 1]


def summarize_latencies(latencies: Iterable[float]) -> dict:
    """Percentiles + histogram of a latency population (ns), as floats.

    Deterministic: depends only on the multiset of values.  The
    histogram is a list of ``[upper_bound_ns, count]`` pairs over fixed
    log2 buckets, empty buckets omitted; the open-ended tail bucket has
    bound ``None``.  A value falls in the first bucket whose bound is at
    least the value.
    """
    raw = np.fromiter(latencies, dtype=np.float64)
    count = len(raw)
    if not count:
        return {
            "count": 0, "mean_ns": 0.0, "p50_ns": 0.0, "p95_ns": 0.0,
            "p99_ns": 0.0, "max_ns": 0.0, "histogram": [],
        }
    ordered = np.sort(raw)
    if ordered[0] <= 0.0 <= ordered[-1]:
        # -0.0 and 0.0 compare equal: only a stable sort keeps them in
        # input order, as sorted() does.
        ordered = np.sort(raw, kind="stable")
    at_or_below = np.searchsorted(ordered, _HISTOGRAM_EDGES, side="right")
    histogram = [
        [edge, n] for edge, n in zip(
            _HISTOGRAM_EDGES, np.diff(at_or_below, prepend=0).tolist()
        ) if n
    ]
    tail = count - int(at_or_below[-1])
    if tail:
        histogram.append([None, tail])
    # The mean is Python's sum over the sorted list: numpy's pairwise
    # sum would round differently.
    values = ordered.tolist()
    return {
        "count": count,
        "mean_ns": sum(values) / count,
        "p50_ns": percentile(values, 0.50),
        "p95_ns": percentile(values, 0.95),
        "p99_ns": percentile(values, 0.99),
        "max_ns": values[-1],
        "histogram": histogram,
    }


def is_number(value) -> bool:
    """True for a float, or an int that ``float()`` converts: the trace
    readers' test for a numeric field."""
    return isinstance(value, float) or (
        isinstance(value, int) and abs(value) <= sys.float_info.max
    )


def pack_samples(arrive, latency, is_write, core) -> dict:
    """Pack four equal-length sample columns into one JSON-safe field.

    ``arrive`` and ``latency`` are ns floats, ``is_write`` counts by
    truthiness and ``core`` holds core ids (0..32767) or ``None``.
    """
    import base64  # off the engines' import chain

    columns = (
        arrive, latency, list(map(bool, is_write)),
        [-1 if c is None else c for c in core],
    )
    field: dict = {"layout": SAMPLES_LAYOUT, "n": len(arrive)}
    for (name, dtype), values in zip(_SAMPLE_COLUMNS, columns):
        field[name] = base64.b64encode(
            np.array(values, dtype=dtype).tobytes()
        ).decode("ascii")
    return field


def decode_samples(field) -> list[list]:
    """Rows ``[arrive, latency, is_write, core]`` of a job's ``samples``.

    Reads both layouts: the packed field of :func:`pack_samples`, and
    the schema-1 list of rows (returned as is).  Raises ``ValueError``
    when ``field`` cannot be decoded: an unknown layout tag, a bad row
    count, bad base64, a column whose length disagrees with the row
    count, or schema-1 rows that are not four-element lists with
    numeric arrival and latency.
    """
    import base64

    if isinstance(field, list):
        for row in field:
            if not (isinstance(row, list) and len(row) == 4
                    and is_number(row[0]) and is_number(row[1])):
                raise ValueError(f"malformed sample row {row!r}")
        return field
    if not isinstance(field, dict) or field.get("layout") != SAMPLES_LAYOUT:
        raise ValueError("unknown sample layout")
    n = field.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"bad sample count {n!r}")
    columns = []
    for name, dtype in _SAMPLE_COLUMNS:
        encoded = field.get(name)
        if not isinstance(encoded, str):
            raise ValueError(f"missing sample column {name!r}")
        # binascii.Error (bad base64) is a ValueError.
        raw = base64.b64decode(encoded, validate=True)
        if len(raw) != n * np.dtype(dtype).itemsize:
            raise ValueError(f"sample column {name!r} is not {n} rows")
        columns.append(np.frombuffer(raw, dtype=dtype))
    arrive, latency, is_write, core = columns
    return [
        [a, lat, w, None if c < 0 else c]
        for a, lat, w, c in zip(
            arrive.tolist(), latency.tolist(), (is_write != 0).tolist(),
            core.tolist(),
        )
    ]


class Telemetry:
    """Recording telemetry for one simulation run.

    Collects, on the simulated clock:

    * one latency sample per serviced DRAM request (enqueue at the
      controller → data burst completion, reads *and* writes — the same
      definition under both engines),
    * blackout windows by kind — ``"abo"`` (Alert Back-Off RFM bursts),
      ``"cadence"`` (controller-scheduled RFMs), ``"ref"`` (periodic
      all-bank refresh),
    * PSQ occupancy, sampled at every REF tick across the refreshed
      rank's banks (defenses without a ``psq`` attribute contribute
      nothing), with the high-water mark retained.

    ``max_samples`` caps only the exported per-request samples;
    summaries always cover the full population.  The samples are the
    first ``max_samples`` requests, kept as columns: ``sample_arrive``,
    ``sample_is_write`` and ``sample_core``, whose latencies are the
    same-length prefix of ``latencies``.  The latency summary is
    computed once per population: the engine's :meth:`summary_dict`
    and the worker's :meth:`export` of the same run share it.
    """

    __slots__ = (
        "max_samples", "latencies", "sample_arrive", "sample_is_write",
        "sample_core", "blackout_counts", "blackout_ns", "psq_high_water",
        "_latency_summary",
    )

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        self.max_samples = max(0, int(max_samples))
        #: Full latency population (ns), service order.
        self.latencies: list[float] = []
        #: Sample columns (arrival ns, write flag, core id) of the
        #: first ``max_samples`` requests.
        self.sample_arrive: list[float] = []
        self.sample_is_write: list = []
        self.sample_core: list = []
        self.blackout_counts: dict[str, int] = {}
        self.blackout_ns: dict[str, float] = {}
        self.psq_high_water = 0
        #: ``(population size, summarize_latencies result)``; samples
        #: are only ever appended, so the size identifies the population.
        self._latency_summary: tuple[int, dict] | None = None

    # -- engine-facing hooks (hot when recording) ----------------------
    def record_request(self, arrive_ns, done_ns, is_write, core_id) -> None:
        self.latencies.append(done_ns - arrive_ns)
        if len(self.sample_arrive) < self.max_samples:
            self.sample_arrive.append(arrive_ns)
            self.sample_is_write.append(is_write)
            self.sample_core.append(core_id)

    def record_blackout(self, start_ns, end_ns, kind) -> None:
        self.blackout_counts[kind] = self.blackout_counts.get(kind, 0) + 1
        self.blackout_ns[kind] = (
            self.blackout_ns.get(kind, 0.0) + (end_ns - start_ns)
        )

    def record_ref(self, start_ns, end_ns, defenses) -> None:
        """One REF tick: a ``"ref"`` blackout plus a PSQ occupancy pass
        over the refreshed rank's bank defenses (via the defenses'
        ``psq_occupancy`` observation property)."""
        self.record_blackout(start_ns, end_ns, "ref")
        high = self.psq_high_water
        for defense in defenses:
            depth = getattr(defense, "psq_occupancy", None)
            if depth is not None and depth > high:
                high = depth
        self.psq_high_water = high

    # -- reporting -----------------------------------------------------
    def summary_dict(self) -> dict:
        """The latency/blackout summary attached to a result (JSON-able,
        deterministic for a deterministic run).  Every call returns a
        fresh dict, so callers may keep or mutate it."""
        cached = self._latency_summary
        if cached is None or cached[0] != len(self.latencies):
            cached = (len(self.latencies),
                      summarize_latencies(self.latencies))
            self._latency_summary = cached
        summary = dict(cached[1])
        summary["histogram"] = [list(pair) for pair in summary["histogram"]]
        summary["blackouts"] = {
            kind: {
                "count": self.blackout_counts[kind],
                "ns": self.blackout_ns.get(kind, 0.0),
            }
            for kind in sorted(self.blackout_counts)
        }
        summary["psq_high_water"] = self.psq_high_water
        return summary

    def export(self) -> dict:
        """Summary plus the packed sample field (the payload side channel
        a sweep worker ships home)."""
        n = len(self.sample_arrive)
        return {
            "latency": self.summary_dict(),
            "samples": pack_samples(
                self.sample_arrive, self.latencies[:n],
                self.sample_is_write, self.sample_core,
            ),
            "samples_total": len(self.latencies),
        }


def max_samples_from_env() -> int:
    """This process's export cap: :data:`TELEMETRY_MAX_SAMPLES_ENV`, or
    :data:`DEFAULT_MAX_SAMPLES` when it is unset or not an integer."""
    raw = os.environ.get(TELEMETRY_MAX_SAMPLES_ENV, "")
    try:
        return int(raw) if raw else DEFAULT_MAX_SAMPLES
    except ValueError:
        return DEFAULT_MAX_SAMPLES

