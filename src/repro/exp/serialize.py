"""Stable (de)serialization for sweep jobs and simulation results.

The experiment orchestrator needs two guarantees this module provides:

* **Content addressing** — a :class:`~repro.exp.spec.Job` must map to the
  same cache key on every machine and every run, and any change to the
  simulated configuration (or to the simulator's own code) must change
  the key.  :func:`canonical_json` gives a byte-stable encoding,
  :func:`code_version_salt` folds the simulator sources into the key.
* **Lossless result round-trips** — a
  :class:`~repro.cpu.system.SystemResult` must survive the JSONL cache
  and the worker-process boundary byte-for-byte, so a cached sweep and a
  parallel sweep aggregate identically to a fresh serial one.  Python's
  ``json`` encodes floats via ``repr``, which round-trips IEEE doubles
  exactly, so :func:`result_from_dict(result_to_dict(r))
  <result_from_dict>` reproduces every metric bit-for-bit.

Both encoders walk each value once.  A fully cached sweep still keys
every job and digests every result, so :func:`_plain` answers exact
JSON leaves (``int``, ``float``, ``str``, ``bool``, ``None``) before
anything else and reads each dataclass's field names from a per-class
table instead of calling :func:`dataclasses.fields` on every node, and
:func:`result_to_dict` reads :class:`SystemResult`'s field list instead
of deep-copying the whole result through :func:`dataclasses.asdict`.
There is deliberately no memo keyed by *value*: ``1 == 1.0 == True``
and ``0.0 == -0.0`` compare and hash alike but encode differently, so
such a memo could hand one job another job's key.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from enum import Enum
from functools import lru_cache
from pathlib import Path

from repro.core.defense import MitigationReason
from repro.cpu.system import SystemResult

#: Bump when the cached payload layout changes; old rows become misses.
#: v2: jobs are keyed by their serialized DefenseSpec (name + params)
#: instead of a QPRAC variant name.
#: v3: the serialized EngineSpec joins every job identity, so rows
#: simulated by different engines can never collide.
#: v4: attack-pattern jobs key their serialized AttackSpec, so rows of
#: attack-keyed sweeps can never collide with plain workload rows.
SCHEMA_VERSION = 4


@lru_cache(maxsize=1)
def environment_fingerprint() -> dict:
    """Runtime facts the simulation's output depends on.

    Trace generation draws from ``numpy.random.Generator`` streams, whose
    bit patterns NumPy may change between releases (NEP 19), so cached
    results must not survive a numpy (or Python minor-version) upgrade.
    """
    import sys

    import numpy

    return {
        "numpy": numpy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:2]),
    }


#: Types :func:`_plain` returns as they are, matched exactly: their
#: subclasses, such as ``IntEnum``, str-mixin enums or numpy scalars,
#: take the ordinary branches.
_JSON_LEAVES = frozenset({int, float, str, bool, type(None)})


@lru_cache(maxsize=None)
def _field_names(kind: type) -> tuple[str, ...] | None:
    """Dataclass field names of ``kind``'s instances (``ClassVar`` and
    ``InitVar`` pseudo-fields excluded, as :func:`dataclasses.fields`
    does), or ``None`` when they are not dataclass instances.  Cached
    per class: a class's fields are fixed once it is defined."""
    # Instances of a metaclass are classes, and a dataclass *class* is
    # never encoded field by field.
    if dataclasses.is_dataclass(kind) and not issubclass(kind, type):
        return tuple(f.name for f in dataclasses.fields(kind))
    return None


def _plain(value: object) -> object:
    """Recursively convert dataclasses/enums/tuples to JSON-able types.

    Children that are exact JSON leaves are kept in place rather than
    passed through another call: most of a configuration's nodes are.
    """
    kind = type(value)
    if kind in _JSON_LEAVES:
        return value
    if isinstance(value, Enum):
        return value.value
    names = _field_names(kind)
    if names is not None:
        plain = {}
        for name in names:
            field_value = getattr(value, name)
            plain[name] = (
                field_value if type(field_value) in _JSON_LEAVES
                else _plain(field_value)
            )
        return plain
    if isinstance(value, dict):
        return {
            str(k): v if type(v) in _JSON_LEAVES else _plain(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _JSON_LEAVES else _plain(v) for v in value]
    return value


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, enums by value."""
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


#: Subtrees / top-level modules of the ``repro`` package that a
#: simulation's output actually depends on.  Orchestration (``exp``),
#: reporting (``analysis``), the CLI, and the post-hoc models
#: (``energy``, ``security``) are deliberately absent: editing them must
#: not invalidate cached simulation results.  Payload-layout changes are
#: covered by :data:`SCHEMA_VERSION` instead.
SIMULATION_SOURCES = (
    "attacks", "controller", "core", "cpu", "defenses", "dram",
    "mitigations", "sim", "workloads", "engine.py", "errors.py",
    "params.py", "specs.py",
)


@lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Digest of the simulator sources that determine simulation output.

    Hashes every ``.py`` file under :data:`SIMULATION_SOURCES` in the
    installed ``repro`` package.  Editing any model file invalidates all
    cached results — the safe behaviour — while edits to orchestration,
    reporting or CLI code leave the cache warm.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root)
        if relative.parts[0] not in SIMULATION_SOURCES:
            continue
        digest.update(str(relative).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


#: :class:`SystemResult` fields in declaration order, minus
#: ``latency``: telemetry is an observation of the run, not part of it,
#: and keeping it out of the canonical payload keeps digests and cached
#: rows byte-identical whether or not a run was observed.
_RESULT_FIELDS = tuple(
    f.name for f in dataclasses.fields(SystemResult) if f.name != "latency"
)


def result_to_dict(result: SystemResult) -> dict:
    """Serialize a :class:`SystemResult` to a JSON-able dict.

    Keys come in field order, with ``mitigations`` by reason value and
    no ``latency``.  Values that are not exact JSON leaves are
    deep-copied, which is what :func:`dataclasses.asdict` does for a
    field holding no dataclass (these hold a list or tuple of floats),
    so the payload never aliases the result's lists.
    """
    payload = {}
    for name in _RESULT_FIELDS:
        value = getattr(result, name)
        if name == "mitigations":
            value = {reason.value: count for reason, count in value.items()}
        elif type(value) not in _JSON_LEAVES:
            value = copy.deepcopy(value)
        payload[name] = value
    return payload


def result_from_dict(payload: dict) -> SystemResult:
    """Reconstruct a :class:`SystemResult` from :func:`result_to_dict`.

    The result gets its own ``core_ipcs`` list: the payload may be the
    store index's entry, and a caller mutating the result must not
    change what the store serves next.
    """
    data = dict(payload)
    data["core_ipcs"] = list(data["core_ipcs"])
    data["mitigations"] = {
        MitigationReason(name): count
        for name, count in data.get("mitigations", {}).items()
    }
    return SystemResult(**data)
