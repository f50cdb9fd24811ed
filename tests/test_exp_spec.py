"""Tests for sweep specification expansion and content addressing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import InitVar, dataclass
from enum import Enum, IntEnum
from typing import ClassVar, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.defense import MitigationReason
from repro.cpu.system import SystemResult
from repro.defenses import DefenseSpec
from repro.errors import ConfigError, ReproError
from repro.exp import BASELINE, SweepSpec, overrides_label
from repro.exp.serialize import _plain, canonical_json, result_to_dict
from repro.obs import sweep_id_for
from repro.params import MitigationVariant, default_config
from repro.serve.protocol import build_spec


def make_spec(**kwargs):
    defaults = dict(
        workloads=("541.leela", "429.mcf"),
        variants=(MitigationVariant.QPRAC, MitigationVariant.QPRAC_NOOP),
        n_entries=500,
    )
    defaults.update(kwargs)
    return SweepSpec.build(
        defaults.pop("workloads"), defaults.pop("variants"), **defaults
    )


_GRID_WORKLOADS = ("541.leela", "429.mcf", "470.lbm", "ycsb-a", "mb-adpcm")
_GRID_ATTACKS = ("hammer:banks=2", "decoy", "row-list:rows=1/3", "many-sided")
_GRID_DEFENSES = ("qprac", "moat", "qprac+proactive", "mithril:t_rh=256",
                  "panopticon")
_GRID_OVERRIDES = ({}, {"n_bo": 16}, {"n_bo": 64}, {"n_mit": 2},
                   {"n_bo": 16, "n_mit": 2})


@st.composite
def _grids(draw):
    """Sweep grids: workloads and/or attack patterns (attacks-only
    included), zero or more defenses, one to three override sets, with
    or without the baseline."""
    workloads = draw(st.lists(st.sampled_from(_GRID_WORKLOADS),
                              max_size=3, unique=True))
    attacks = draw(st.lists(st.sampled_from(_GRID_ATTACKS),
                            min_size=0 if workloads else 1, max_size=2,
                            unique=True))
    include_baseline = draw(st.booleans())
    defenses = draw(st.lists(st.sampled_from(_GRID_DEFENSES),
                             min_size=0 if include_baseline else 1,
                             max_size=3, unique=True))
    overrides = draw(st.lists(
        st.sampled_from(range(len(_GRID_OVERRIDES))),
        min_size=1, max_size=3, unique=True,
    ))
    return SweepSpec.build(
        workloads, defenses,
        overrides=[_GRID_OVERRIDES[i] for i in overrides],
        attacks=attacks, include_baseline=include_baseline, n_entries=100,
    )


class TestJobCount:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_grids())
    def test_job_count_matches_expansion(self, spec):
        assert spec.job_count == len(spec.expand())

    def test_attacks_only_grid(self):
        spec = SweepSpec.build([], ["qprac", "moat"], attacks=["decoy"],
                               overrides=[{}, {"n_bo": 16}])
        assert spec.job_count == len(spec.expand()) == 5


class TestExpansion:
    def test_grid_size_and_order(self):
        spec = make_spec()
        jobs = spec.expand()
        # 2 workloads x (baseline + 2 variants).
        assert len(jobs) == 6
        assert [j.label for j in jobs] == [
            "541.leela/baseline",
            "541.leela/qprac",
            "541.leela/qprac-noop",
            "429.mcf/baseline",
            "429.mcf/qprac",
            "429.mcf/qprac-noop",
        ]

    def test_expansion_is_deterministic(self):
        spec = make_spec()
        assert spec.expand() == spec.expand()

    def test_no_baseline(self):
        jobs = make_spec(include_baseline=False).expand()
        assert all(j.defense.variant is not None for j in jobs)
        assert len(jobs) == 4

    def test_overrides_axis(self):
        spec = make_spec(
            workloads=("541.leela",),
            variants=(MitigationVariant.QPRAC,),
            overrides=({"psq_size": 1}, {"psq_size": 3}),
            include_baseline=False,
        )
        jobs = spec.expand()
        assert len(jobs) == 2
        assert jobs[0].config.prac.psq_size == 1
        assert jobs[1].config.prac.psq_size == 3
        assert overrides_label(jobs[1].overrides) == "psq_size=3"

    def test_baseline_emitted_once_across_override_sets(self):
        spec = make_spec(
            workloads=("541.leela",),
            variants=(MitigationVariant.QPRAC,),
            overrides=({"psq_size": 1}, {"psq_size": 3}),
        )
        jobs = spec.expand()
        # Overrides only alter the defense: 1 shared baseline + 2 variants.
        assert len(jobs) == 3
        assert sum(1 for j in jobs if j.defense.variant is None) == 1

    def test_variant_applied_to_config(self):
        jobs = make_spec().expand()
        assert jobs[0].defense.variant is None
        assert jobs[0].defense.is_baseline
        assert jobs[0].defense.label == BASELINE
        assert jobs[1].config.variant is MitigationVariant.QPRAC
        assert jobs[1].defense.variant is MitigationVariant.QPRAC

    def test_string_defenses_resolved(self):
        spec = SweepSpec.build(["541.leela"], ["qprac"], n_entries=100)
        assert spec.defenses == (DefenseSpec("qprac"),)
        assert spec.defenses[0].variant is MitigationVariant.QPRAC

    def test_mixed_defense_grid(self):
        spec = SweepSpec.build(
            ["541.leela"],
            [MitigationVariant.QPRAC, "moat", DefenseSpec.of("pride", t_rh=256)],
            n_entries=100,
        )
        jobs = spec.expand()
        assert [j.label for j in jobs] == [
            "541.leela/baseline",
            "541.leela/qprac",
            "541.leela/moat",
            "541.leela/pride:t_rh=256",
        ]
        # Non-QPRAC defenses leave the config's variant untouched.
        assert jobs[2].defense.variant is None
        assert jobs[2].config.variant is spec.config.variant

    def test_duplicate_defenses_rejected(self):
        with pytest.raises(ConfigError, match="duplicate defenses"):
            make_spec(variants=("qprac", MitigationVariant.QPRAC))

    def test_baseline_in_defenses_conflicts_with_include_baseline(self):
        with pytest.raises(ConfigError, match="already included"):
            make_spec(variants=("qprac", "baseline"))
        spec = make_spec(
            variants=("baseline", "qprac"), include_baseline=False
        )
        assert spec.expand()[0].defense.is_baseline

    def test_unregistered_defense_rejected(self):
        with pytest.raises(ReproError, match="unknown defense 'pancake'"):
            make_spec(variants=("pancake",))

    def test_missing_required_param_rejected(self):
        with pytest.raises(ReproError, match="requires parameter"):
            make_spec(variants=("mithril",))

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown PRAC override"):
            make_spec(overrides=({"not_a_knob": 1},))

    def test_empty_workloads_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec.build([], [MitigationVariant.QPRAC])

    def test_duplicate_workloads_rejected(self):
        with pytest.raises(ConfigError, match="duplicate workloads"):
            make_spec(workloads=("429.mcf", "429.mcf"))

    def test_key_includes_environment(self):
        from repro.exp.serialize import environment_fingerprint

        env = environment_fingerprint()
        assert set(env) == {"numpy", "python"}
        assert all(isinstance(v, str) and v for v in env.values())


class TestCacheKey:
    def test_key_is_stable_across_expansions(self):
        a = make_spec().expand()
        b = make_spec().expand()
        assert [j.cache_key() for j in a] == [j.cache_key() for j in b]

    def test_keys_are_unique_within_a_sweep(self):
        keys = [j.cache_key() for j in make_spec().expand()]
        assert len(set(keys)) == len(keys)

    def test_key_changes_with_overrides(self):
        plain = make_spec(
            include_baseline=False, variants=(MitigationVariant.QPRAC,),
            workloads=("541.leela",),
        ).expand()[0]
        overridden = make_spec(
            include_baseline=False, variants=(MitigationVariant.QPRAC,),
            workloads=("541.leela",), overrides=({"psq_size": 2},),
        ).expand()[0]
        assert plain.cache_key() != overridden.cache_key()

    def test_key_changes_with_entries_and_seed(self):
        base = make_spec().expand()[0]
        more = make_spec(n_entries=501).expand()[0]
        reseeded = make_spec(seed=7).expand()[0]
        assert base.cache_key() != more.cache_key()
        assert base.cache_key() != reseeded.cache_key()

    def test_salt_covers_only_simulation_sources(self):
        from repro.exp import code_version_salt
        from repro.exp.serialize import SIMULATION_SOURCES

        # Orchestration/reporting/CLI edits must leave the cache warm.
        for non_model in ("exp", "analysis", "cli.py", "energy", "security"):
            assert non_model not in SIMULATION_SOURCES
        # Trace generation and the device model must invalidate it — and
        # so must every defense implementation.
        for model in ("workloads", "sim", "core", "params.py",
                      "defenses", "mitigations"):
            assert model in SIMULATION_SOURCES
        assert len(code_version_salt()) == 64
        assert code_version_salt() == code_version_salt()

    def test_key_changes_with_config(self):
        base = make_spec().expand()[0]
        other = make_spec(
            config=default_config().with_prac(n_bo=64)
        ).expand()[0]
        assert base.cache_key() != other.cache_key()

    def test_key_changes_with_defense_params(self):
        plain = make_spec(
            variants=("moat",), include_baseline=False
        ).expand()[0]
        tuned = make_spec(
            variants=("moat:proactive_every_n_refs=4",),
            include_baseline=False,
        ).expand()[0]
        assert plain.cache_key() != tuned.cache_key()

    def test_key_is_independent_of_registration_order(self):
        """A job's key depends only on the spec's own (name, params)
        identity — registering additional defenses must not move it."""
        from repro.defenses import register_defense
        from repro.defenses.registry import REGISTRY

        job = make_spec(variants=("moat",)).expand()[1]
        before = job.cache_key()

        name = "order-probe-defense"
        assert name not in REGISTRY

        @register_defense(name, summary="cache-key stability probe")
        def build_probe(bank_index, config):
            raise AssertionError("never built")

        try:
            assert job.cache_key() == before
        finally:
            REGISTRY._entries.pop(name)


# ----------------------------------------------------------------------
# Exactness pins: encodings that must never move under speed work
# ----------------------------------------------------------------------
def _pinned_grids():
    """A benign grid, an attack grid and an overrides grid."""
    return {
        "benign": build_spec(
            ["541.leela", "429.mcf"],
            defenses=["qprac", "moat", "pride:t_rh=256"],
            entries=400, engine="epoch",
        ),
        "attack": build_spec(
            [], defenses=["qprac", "moat"],
            attacks=["decoy:reads_per_trefi=4", "hammer:banks=4"],
            entries=400,
        ),
        "overrides": SweepSpec.build(
            ["470.lbm"], ["qprac", "qprac+proactive"],
            overrides=({"psq_size": 1}, {"psq_size": 3}),
            n_entries=500, seed=7,
        ),
    }


#: ``sweep_id_for`` of each pinned grid (salt-free, so stable).
PINNED_SWEEP_IDS = {
    "benign":
        "a067686cbbb2962b5808bb63dba1a894339a18d7bdeb5ba4625d37365b436ff3",
    "attack":
        "6034c45db8b6b3b96d047f6f6e0771c4e6cc82c418a51fbd45f1e4095137c38b",
    "overrides":
        "971b07d4e2a064d3f920b6f591313f51f171017857da693de12a220f7c5e34bf",
}

#: Per grid: job count, sha256 over the newline-joined cache keys, and
#: the first key, with the code salt and environment held constant.
PINNED_CACHE_KEYS = {
    "benign": (
        8,
        "40094e16a7be2314481f0c23f5da3be92a1a091248faeff37dccf747da0e40e6",
        "2965e614e73b9bd06e250f966a67b3a6ba4977bdee9e770a42552d7277b26c95",
    ),
    "attack": (
        6,
        "a5dcbf3e41e0d0d5f0bc99f2ecc9c2cd2de52cb800db63866a9e827f7be1b40b",
        "e5add52e00b4c3f600b02737ffeed13897bd135dc86c3fdd43d491b25936ab4c",
    ),
    "overrides": (
        5,
        "27979fc6de0906fef2f594ea9ac3edb2ca368dbe4895cfd55f3a6940381ec81c",
        "c14758633b968bfc1764b07e7921ce97ae1832d2bc2e491d9efbcba9f2d9e980",
    ),
}


class TestExactnessPins:
    @pytest.mark.parametrize("grid", sorted(PINNED_SWEEP_IDS))
    def test_sweep_id_is_pinned(self, grid):
        assert sweep_id_for(_pinned_grids()[grid]) == PINNED_SWEEP_IDS[grid]

    @pytest.mark.parametrize("grid", sorted(PINNED_CACHE_KEYS))
    def test_cache_keys_are_pinned(self, grid, monkeypatch):
        import repro.exp.spec as spec_module

        monkeypatch.setattr(spec_module, "code_version_salt",
                            lambda: "salt-pin")
        monkeypatch.setattr(spec_module, "environment_fingerprint",
                            lambda: {"numpy": "pin", "python": "pin"})
        keys = [job.cache_key() for job in _pinned_grids()[grid].expand()]
        count, joined, first = PINNED_CACHE_KEYS[grid]
        assert len(keys) == count
        assert keys[0] == first
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == joined

    def test_bandwidth_attack_keys_are_pinned(self, monkeypatch):
        import repro.exp.attack as attack_module
        from repro.exp.attack import attack_job

        monkeypatch.setattr(attack_module, "code_version_salt",
                            lambda: "salt-pin")
        jobs = {
            "qprac": attack_job("qprac"),
            "moat": attack_job("moat", attack="hammer:banks=4"),
            "pride": attack_job(
                "pride:t_rh=256",
                config=default_config().with_prac(n_bo=64), engine="event",
            ),
        }
        assert {name: job.cache_key() for name, job in jobs.items()} == {
            "qprac": "b8b140475ca95e4f1ab18332908dbf52"
                     "bdf9b921499126307f78e85303f8132c",
            "moat": "56b8005596d5c24d4c83c4d212184dcf"
                    "a2c282f6b1021a0d4913b1a1dc649b52",
            "pride": "8a221dc5bff3b8c609bfa8f3f01aa927"
                     "5e5857fb67917b8fd668be811682e24a",
        }

    @pytest.mark.parametrize("grid", sorted(PINNED_CACHE_KEYS))
    def test_identity_parts_encode_alike_walked_once_or_twice(self, grid):
        """Keys encode the workload and config objects in one walk; the
        bytes equal those of encoding their pre-walked plain forms."""
        for job in _pinned_grids()[grid].expand():
            for part in (job.workload, job.config):
                assert canonical_json(part) == canonical_json(_plain(part))


# -- _plain / canonical_json against the original body ------------------
def _plain_reference(value):
    """``_plain`` as first written: ``is_dataclass`` and ``fields`` on
    every node, the Enum check first.  The differential's reference."""
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain_reference(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _plain_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_reference(v) for v in value]
    return value


def _canonical_reference(value):
    return json.dumps(
        _plain_reference(value), sort_keys=True, separators=(",", ":")
    )


class Colour(IntEnum):
    RED = 1
    BLUE = 2


class Mode(str, Enum):
    FAST = "fast"
    SLOW = "slow"


class Shape(Enum):
    POINT = (0, 0)
    LINE = (1, 2)


class Pair(NamedTuple):
    left: object
    right: object


@dataclass
class Plain:
    a: object
    b: object = None


@dataclass
class WithPseudoFields:
    x: object
    init_only: InitVar[int] = 0
    shared: ClassVar[int] = 7

    def __post_init__(self, init_only):
        del init_only


def _typed(value):
    """A comparable view that tells ``1``/``True``/``1.0``, ``0.0``/
    ``-0.0`` and list/tuple apart (and compares NaN by repr)."""
    if isinstance(value, dict):
        return ("dict", type(value), [(k, _typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return ("seq", type(value), [_typed(v) for v in value])
    return ("leaf", type(value), repr(value))


def _outcome(fn, value):
    try:
        return ("ok", _typed(fn(value)))
    except Exception as exc:  # the raised exception must match too
        return ("raise", type(exc), str(exc))


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf")]),
    st.text(max_size=4),
    st.floats(allow_nan=True).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.sampled_from([*Colour, *Mode, *Shape]),
    st.just(Plain),  # a dataclass *class* is not an instance
)
_KEYS = st.one_of(
    st.text(max_size=3), st.integers(-3, 3), st.booleans(),
    st.sampled_from([*Colour, *Mode]),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.builds(Pair, children, children),
        st.builds(Plain, children, children),
        st.builds(WithPseudoFields, children),
    ),
    max_leaves=20,
)


class TestPlainDifferential:
    @settings(derandomize=True, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_VALUES)
    def test_plain_and_canonical_json_match_reference(self, value):
        assert _outcome(_plain, value) == _outcome(_plain_reference, value)
        assert (_outcome(canonical_json, value)
                == _outcome(_canonical_reference, value))

    def test_real_identities_match_reference(self):
        spec = _pinned_grids()["attack"]
        for job in spec.expand():
            for part in (job.config, job.workload, job.defense, job.engine):
                assert _outcome(_plain, part) == _outcome(
                    _plain_reference, part
                )
                assert canonical_json(part) == _canonical_reference(part)

    def test_pseudo_fields_are_not_encoded(self):
        assert _plain(WithPseudoFields(x=1, init_only=5)) == {"x": 1}


# -- result_to_dict against an asdict-based reference -------------------
def _result_to_dict_reference(result):
    """``result_to_dict`` as first written, on ``dataclasses.asdict``."""
    payload = dataclasses.asdict(result)
    payload["mitigations"] = {
        reason.value: count for reason, count in result.mitigations.items()
    }
    payload.pop("latency", None)
    return payload


def _result(core_ipcs, latency, **overrides):
    fields = dict(
        workload="429.mcf", variant="qprac", sim_time_ns=1234.5,
        core_ipcs=core_ipcs, instructions=10, acts=3, reads=4, writes=1,
        refs=2, alerts=0, rfm_commands=0, cadence_rfms=0,
        row_hit_rate=0.25, llc_hit_rate=-0.0, avg_read_latency_ns=50.0,
        mitigations={MitigationReason.ALERT: 2,
                     MitigationReason.PROACTIVE: 0},
        latency=latency,
    )
    fields.update(overrides)
    return SystemResult(**fields)


class TestResultToDict:
    @pytest.mark.parametrize("core_ipcs", [[0.5, 1.5], (0.5, 1.5), []])
    @pytest.mark.parametrize("latency", [None, {"count": 3, "p50_ns": 1.0,
                                                "hist": [1, 2]}])
    def test_matches_asdict_reference(self, core_ipcs, latency):
        result = _result(core_ipcs, latency)
        payload = result_to_dict(result)
        reference = _result_to_dict_reference(result)
        assert list(payload) == list(reference)  # asdict's key order
        assert _typed(payload) == _typed(reference)  # and container types
        assert canonical_json(payload) == canonical_json(reference)
        assert "latency" not in payload

    def test_payload_does_not_alias_result_lists(self):
        result = _result([0.5, 1.5], None)
        payload = result_to_dict(result)
        payload["core_ipcs"].append(9.0)
        assert result.core_ipcs == [0.5, 1.5]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=True), max_size=4),
        st.booleans(),
        st.floats(allow_nan=True),
        st.integers(),
        st.dictionaries(st.sampled_from(list(MitigationReason)),
                        st.integers(0, 9)),
    )
    def test_generated_results_match_reference(
        self, ipcs, as_tuple, rate, acts, mitigations
    ):
        result = _result(
            tuple(ipcs) if as_tuple else ipcs, {"count": acts},
            row_hit_rate=rate, acts=acts, mitigations=mitigations,
        )
        payload = result_to_dict(result)
        reference = _result_to_dict_reference(result)
        assert _typed(payload) == _typed(reference)
        assert canonical_json(payload) == canonical_json(reference)
