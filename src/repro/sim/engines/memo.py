"""The Alert-free timing memo, shared by the ``event`` and ``epoch`` engines.

A defense changes request timing only through Alerts and cadence RFMs:
proactive ``on_ref`` mitigations happen in the REF shadow and
``on_ref``'s return value is ignored, so a run that raises no Alert and
has no cadence defense has exactly the timing of any other such run on
the same request stream.  Defense state depends only on the ordered hook
calls it receives.  So a run's timing outputs, plus the order in which
it called its defenses' hooks (its :class:`HookLog`), can serve every
later run on that stream that would raise no Alert either.

A run is *eligible* when it has no telemetry recorder and no cadence
defense.  Each engine's own ``simulate`` applies one rule through
:func:`lookup` and :func:`remember`:

* :func:`lookup` builds the run's defenses.  An eligible run with no
  memo for its stream and ``config.timing`` gets a fresh hook log to
  record into.  One with a memo drives its defenses through the stored
  log (:func:`drive`) and is served: the stored result with its own
  label, its own ``mitigations`` and a fresh ``core_ipcs`` list, with no
  trace, no memory system and no replay built.  At the first ACT whose
  defense asks for an Alert the log stops describing the run: the
  engine gets freshly built defenses and runs in full.
* :func:`remember` stores a recorded run's log and result if the run
  raised no Alert.

A served result is byte-identical to a full run.  The table is keyed by
engine, workload, trace length, seed, ``config.org`` and ``config.cpu``
(everything a request stream depends on), then by ``config.timing``; it
keeps at most :data:`MAX_STREAMS` streams (least recently used dropped
first) and is safe to share between threads.  :func:`clear` empties it,
for callers that must time full runs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, NamedTuple

from repro.core.defense import BankDefense, defense_stats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.controller.memctrl import DefenseFactory
    from repro.cpu.system import SystemResult
    from repro.obs.telemetry import Telemetry
    from repro.params import SystemConfig
    from repro.sim.engines.base import SimEngine
    from repro.workloads.synthetic import WorkloadSpec

#: Hook-log target of a REF tick (an ACT's target is its flat bank).
REF_TICK = -1

#: Request streams the table keeps.
MAX_STREAMS = 8


class HookLog:
    """The defense-hook calls of one run, in the order the engine made
    them: an ACT is ``(flat bank, row)``, a REF tick (one ``on_ref`` on
    every bank of a rank) is ``(REF_TICK, rank)``.  Two parallel
    columns, ``targets`` and ``args``; never changed once stored."""

    __slots__ = ("targets", "args")

    def __init__(self) -> None:
        self.targets: list[int] = []
        self.args: list[int] = []

    def act(self, bank: int, row: int) -> None:
        """Log an ``on_activation(row)`` on flat bank ``bank``."""
        self.targets.append(bank)
        self.args.append(row)

    def ref(self, rank: int) -> None:
        """Log a REF tick: ``on_ref()`` on each bank of ``rank``."""
        self.targets.append(REF_TICK)
        self.args.append(rank)


class Memo(NamedTuple):
    """One Alert-free run: its hook log and its result, stored with a
    ``core_ipcs`` tuple and no ``mitigations`` (each served run reports
    its own)."""

    log: HookLog
    result: "SystemResult"


class MemoTable:
    """Memos by stream key, then by ``config.timing``; at most
    :data:`MAX_STREAMS` streams, the least recently used dropped first.
    Every access holds one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._streams: OrderedDict[tuple, dict] = OrderedDict()

    def get(self, stream: tuple, timing) -> Memo | None:
        with self._lock:
            memos = self._streams.get(stream)
            if memos is None:
                return None
            self._streams.move_to_end(stream)
            return memos.get(timing)

    def put(self, stream: tuple, timing, memo: Memo) -> None:
        with self._lock:
            memos = self._streams.get(stream)
            if memos is None:
                memos = self._streams[stream] = {}
                if len(self._streams) > MAX_STREAMS:
                    self._streams.popitem(last=False)
            else:
                self._streams.move_to_end(stream)
            memos[timing] = memo

    def clear(self) -> None:
        with self._lock:
            self._streams.clear()

    def items(self) -> list[tuple[tuple, Memo]]:
        """Every ``((stream, timing), memo)``, least recently used first."""
        with self._lock:
            return [
                ((stream, timing), memo)
                for stream, memos in self._streams.items()
                for timing, memo in memos.items()
            ]

    def __len__(self) -> int:
        """The number of streams held."""
        with self._lock:
            return len(self._streams)


#: The process-wide table both engines read and fill.
TABLE = MemoTable()


def clear() -> None:
    """Drop every memo, so the next runs are full ones."""
    TABLE.clear()


class Lookup(NamedTuple):
    """What :func:`lookup` found for one run."""

    #: The run's defenses in flat bank order (freshly built after an
    #: aborted drive).
    defenses: list[BankDefense]
    #: The result, when the memo served the run.
    served: "SystemResult | None"
    #: Where the run records its hook calls, when it may store a memo.
    log: HookLog | None
    #: ``(stream, timing)`` of an eligible run.
    key: tuple | None

    def factory(self, flat: int, _config: "SystemConfig") -> BankDefense:
        """A defense factory handing out :attr:`defenses`."""
        return self.defenses[flat]


def build_defenses(
    config: "SystemConfig", defense_factory: "DefenseFactory"
) -> list[BankDefense]:
    """One defense per bank, in flat bank order (both engines' order)."""
    return [
        defense_factory(flat, config)
        for flat in range(config.org.total_banks)
    ]


def lookup(
    engine: "SimEngine",
    workload: "WorkloadSpec",
    n_entries: int,
    seed: int,
    config: "SystemConfig",
    defense_factory: "DefenseFactory",
    telemetry: "Telemetry | None",
    label: str,
) -> Lookup:
    """Build the run's defenses and serve it from the memo, labelled
    ``label``, if it can be (module docstring)."""
    defenses = build_defenses(config, defense_factory)
    if telemetry is not None or any(
        defense.rfm_cadence_acts is not None for defense in defenses
    ):
        return Lookup(defenses, None, None, None)
    stream = (engine.name, workload, n_entries, seed, config.org, config.cpu)
    key = (stream, config.timing)
    memo = TABLE.get(*key)
    if memo is None:
        return Lookup(defenses, None, HookLog(), key)
    if drive(memo.log, defenses, config.org.banks_per_rank):
        served = replace(
            memo.result,
            variant=label,
            core_ipcs=list(memo.result.core_ipcs),
            mitigations=defense_stats(defenses),
        )
        return Lookup(defenses, served, None, key)
    # The first Alert: from here on this run's timing differs, and the
    # full run will raise that Alert, so it records nothing.
    return Lookup(build_defenses(config, defense_factory), None, None, key)


def remember(run: Lookup, result: "SystemResult") -> None:
    """Store a recorded run's log and result if it raised no Alert."""
    if run.log is not None and result.alerts == 0:
        frozen = replace(
            result, core_ipcs=tuple(result.core_ipcs), mitigations={},
        )
        TABLE.put(*run.key, Memo(run.log, frozen))


def drive(
    log: HookLog, defenses: list[BankDefense], banks_per_rank: int
) -> bool:
    """Feed a stored hook log to fresh defenses, in order.

    Returns False at the first ACT whose defense asks for an Alert (the
    log stops describing this run there), True at the end.
    """
    on_acts = [defense.on_activation for defense in defenses]
    on_refs = [
        tuple(defense.on_ref for defense in defenses[lo:lo + banks_per_rank])
        for lo in range(0, len(defenses), banks_per_rank)
    ]
    for target, arg in zip(log.targets, log.args):
        if target == REF_TICK:
            for hook in on_refs[arg]:
                hook()
        elif on_acts[target](arg):
            return False
    return True
