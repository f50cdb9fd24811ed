"""Multi-bank performance attack: activation-bandwidth loss (Figure 19).

PRAC's Alert Back-Off can be weaponised: an attacker who hammers rows in
many banks simultaneously triggers a stream of Alerts, and every Alert
stalls banks for the RFM service time (Section VI-E).

The attacker modelled here is the paper's multi-bank pool attacker:

* in every bank of the attacked rank it cycles round-robin over a pool of
  rows, so all pool rows climb towards N_BO together (bank-level
  parallelism makes the climb tRRD-limited, not tRC-limited);
* once rows start crossing N_BO the rank sustains the maximum Alert rate
  the ABO protocol allows, each Alert costing the 180 ns window plus
  ``N_mit x tRFM`` of blackout.

Bandwidth is measured *after* a warm-up window so the pool-building phase
does not dilute the steady-state number.  The RFM scope decides the blast
area of each Alert: ``RFMab`` stalls all banks of the rank, ``RFMsb`` one
bank per bank group, ``RFMpb`` only the alerting bank — reproducing the
paper's series.  Proactive mitigation drains the attacker's pool while it
is still being built, which is why it rescues high N_BO configurations
(climbing to 64+ takes about one proactive mitigation per tREFI of
per-bank effort — the same ``N_BO vs 67`` arithmetic as Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.controller.memctrl import MemorySystem
from repro.defenses import resolve_defense
from repro.dram.address import bank_pools
from repro.engine import EventQueue
from repro.errors import ConfigError
from repro.params import RfmScope, SystemConfig, default_config
from repro.sim.runner import DEFAULT_DEFENSE, Defense


@dataclass(frozen=True)
class BandwidthResult:
    """Outcome of one bandwidth-attack run (steady-state window only)."""

    acts: int
    alerts: int
    duration_ns: float

    @property
    def acts_per_us(self) -> float:
        return self.acts / (self.duration_ns / 1000.0)

    def reduction_vs(self, baseline: "BandwidthResult") -> float:
        """Fractional activation-bandwidth loss against a baseline run."""
        if baseline.acts <= 0:
            raise ConfigError("baseline attack run produced no activations")
        return max(0.0, 1.0 - self.acts / baseline.acts)


def run_bandwidth_attack(
    config: SystemConfig | None = None,
    defense: Defense = None,
    measure_ns: float = 400_000.0,
    warmup_ns: float | None = None,
    pool_rows_per_bank: int = 24,
    attack_ranks: int = 1,
    targets: list[list[int]] | None = None,
) -> BandwidthResult:
    """Closed-loop pool attack on every bank of ``attack_ranks`` ranks.

    Each bank cycles over ``pool_rows_per_bank`` rows; a completed request
    immediately enqueues the next.  Returns activations achieved within
    the measurement window (after ``warmup_ns``, which defaults to the
    time the pool needs to climb to N_BO plus margin).

    ``defense`` names the defense as ``simulate_workload``'s does
    (``None``: ``qprac+proactive-ea``).

    ``targets`` optionally replaces the default strided pool with
    explicit per-bank address pools (e.g. from
    :func:`repro.attacks.bandwidth_targets`); ``pool_rows_per_bank`` and
    ``attack_ranks`` only shape the default pool and the warm-up
    estimate then.
    """
    config = config or default_config()
    spec = resolve_defense(DEFAULT_DEFENSE if defense is None else defense)
    events = EventQueue()
    memory = MemorySystem(config, events, spec.factory())
    org = config.org
    row_stride = 2 * config.prac.blast_radius + 2

    if targets is None:
        ranks_to_attack = min(attack_ranks, org.channels * org.ranks)
        targets = bank_pools(
            org, range(ranks_to_attack * org.banks_per_rank),
            [(i * row_stride) % org.rows_per_bank
             for i in range(pool_rows_per_bank)],
        )
    if not targets or any(not addrs for addrs in targets):
        raise ConfigError("attack targets must be non-empty per bank")

    if warmup_ns is None:
        # Pool climb time: each bank serves one ACT per (banks * tRRD) at
        # rank saturation; a pool row is visited once per pool rotation.
        banks_per_rank = org.banks_per_rank
        per_bank_act_ns = banks_per_rank * config.timing.t_rrd
        deepest_pool = max(len(addrs) for addrs in targets)
        warmup_ns = (
            1.5 * config.prac.n_bo * deepest_pool * per_bank_act_ns
        )

    cursors = [0] * len(targets)
    end_ns = warmup_ns + measure_ns

    def make_pump(slot: int):
        pool = targets[slot]
        pool_len = len(pool)

        def pump(now: float) -> None:
            if now >= end_ns:
                return
            cursors[slot] += 1
            addr = pool[cursors[slot] % pool_len]
            memory.enqueue(addr, False, now, callback=pump)

        return pump

    for slot, addrs in enumerate(targets):
        memory.enqueue(addrs[0], False, 0.0, callback=make_pump(slot))

    window = {"acts": 0, "alerts": 0}

    def snapshot(_now: float) -> None:
        window["acts"] = memory.stats.acts
        window["alerts"] = memory.stats.alerts

    events.schedule(warmup_ns, snapshot)
    events.run(until=end_ns)
    return BandwidthResult(
        acts=memory.stats.acts - window["acts"],
        alerts=memory.stats.alerts - window["alerts"],
        duration_ns=measure_ns,
    )


def analytical_bandwidth_reduction(
    n_bo: int,
    scope: "RfmScope | None" = None,
    proactive: bool = False,
    config: SystemConfig | None = None,
) -> float:
    """The paper's worst-case analytical bandwidth-loss model (Figure 19).

    The analytical attacker climbs one fresh row to N_BO per Alert, at the
    rank-interleaved activation rate (tRRD across two ranks, ~2.5 ns per
    activation), then pays the Alert service (the ``prac.abo_window_ns``
    window, 180 ns by default, + N_mit RFMs)::

        loss = blocked_per_alert / (climb + blocked_per_alert)

    Proactive mitigation drains the climbing rows at one per tREFI of
    per-bank effort, inflating the climb cost by ``1 / (1 - N_BO / 67)``
    and defeating the attack outright once ``N_BO >= 67`` activations are
    needed per row (the Section IV-C arithmetic).  Scoped RFMs shrink the
    blocked area by ``scope_banks / all_banks``.

    This model reproduces the paper's reported points (93%/62% for plain
    RFMab at N_BO 16/128; 91%/77%/~10%/0% for RFMab+Proactive at
    16/32/64/128); the event-driven simulation in
    :func:`run_bandwidth_attack` is *more* favourable to QPRAC because it
    charges the attacker for opportunistically-mitigated pool rows.
    """
    config = config or default_config()
    timing = config.timing
    prac = config.prac
    scope = scope or prac.rfm_scope
    if n_bo < 1:
        raise ConfigError(f"n_bo must be >= 1, got {n_bo}")
    ranks = max(1, config.org.ranks)
    act_ns = timing.t_rrd / ranks
    climb_ns = n_bo * act_ns
    if proactive:
        drain_ratio = n_bo / timing.acts_per_trefi
        if drain_ratio >= 1.0:
            return 0.0
        climb_ns /= 1.0 - drain_ratio
    service_ns = prac.abo_window_ns + prac.n_mit * timing.t_rfm
    if scope is RfmScope.ALL_BANK:
        fraction = 1.0
    elif scope is RfmScope.SAME_BANK:
        fraction = 1.0 / config.org.banks_per_group
    else:
        fraction = 1.0 / config.org.banks_per_rank
    blocked_ns = service_ns * fraction
    return blocked_ns / (climb_ns + service_ns)
