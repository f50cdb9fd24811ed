"""Tests for the defense registry and :class:`DefenseSpec`."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.moat import MOATBank
from repro.core.null_defense import NullDefense
from repro.core.qprac import QPRACBank
from repro.defenses import (
    BASELINE_NAME,
    DefenseRegistry,
    DefenseSpec,
    REGISTRY,
    register_defense,
    registered_defenses,
    resolve_defense,
)
from repro.errors import ConfigError, ReproError
from repro.exp import canonical_json
from repro.mitigations.mithril import MithrilBank
from repro.mitigations.pride import PrIDEBank
from repro.params import MitigationVariant, default_config


class TestSpecIdentity:
    def test_params_are_sorted_and_hashable(self):
        a = DefenseSpec.of("moat", eth=8, proactive_every_n_refs=4)
        b = DefenseSpec.of("moat", proactive_every_n_refs=4, eth=8)
        assert a == b
        assert hash(a) == hash(b)
        assert a.params == (("eth", 8), ("proactive_every_n_refs", 4))

    def test_label_formats(self):
        assert DefenseSpec("qprac").label == "qprac"
        assert DefenseSpec.of("mithril", t_rh=256).label == "mithril:t_rh=256"
        assert DefenseSpec.of("moat", eth=8, proactive_every_n_refs=4).label \
            == "moat:eth=8,proactive_every_n_refs=4"

    def test_string_round_trip(self):
        for text in ("qprac", "mithril:t_rh=256",
                     "moat:eth=8,proactive_every_n_refs=4"):
            spec = DefenseSpec.from_string(text)
            assert spec.to_string() == text
            assert DefenseSpec.from_string(spec.to_string()) == spec

    def test_string_value_coercion(self):
        spec = DefenseSpec.from_string(
            "x:i=4,f=2.5,t=true,n=none,s=hello"
        )
        assert spec.params_dict == {
            "i": 4, "f": 2.5, "t": True, "n": None, "s": "hello"
        }

    def test_quoted_values_stay_strings(self):
        # A string value that *looks* numeric must survive the label
        # round-trip without being coerced (and without colliding with
        # the genuinely numeric spec's label).
        spec = DefenseSpec.of("x", mode="8")
        assert spec.label == "x:mode='8'"
        assert DefenseSpec.from_string(spec.to_string()) == spec
        assert spec.label != DefenseSpec.of("x", mode=8).label
        assert DefenseSpec.from_string('x:mode="none"').params_dict == {
            "mode": "none"
        }

    def test_values_with_separators_round_trip(self):
        # Unquoted these would split/conflate: 'x:a=1,b=2' as one string
        # value must not collide with the two-param spec's label.
        tricky = DefenseSpec.of("x", a="1,b=2")
        plain = DefenseSpec.of("x", a=1, b=2)
        assert tricky.label != plain.label
        assert DefenseSpec.from_string(tricky.to_string()) == tricky
        assert DefenseSpec.from_string(plain.to_string()) == plain
        for value in ("k=v", "a:b", 'say "hi"', "it's"):
            spec = DefenseSpec.of("x", s=value)
            assert DefenseSpec.from_string(spec.to_string()) == spec, value

    def test_malformed_strings_rejected(self):
        with pytest.raises(ConfigError, match="no name"):
            DefenseSpec.from_string(":t_rh=1")
        with pytest.raises(ConfigError, match="key=value"):
            DefenseSpec.from_string("moat:eth")
        with pytest.raises(ConfigError, match="non-empty"):
            DefenseSpec("")

    def test_dict_round_trip_through_canonical_json(self):
        spec = DefenseSpec.of("pride", t_rh=256)
        payload = json.loads(canonical_json(spec.to_dict()))
        assert DefenseSpec.from_dict(payload) == spec
        # Byte-stable: two equal specs serialize identically.
        again = DefenseSpec.of("pride", t_rh=256)
        assert canonical_json(spec.to_dict()) == canonical_json(again.to_dict())

    def test_serialization_is_registry_independent(self):
        """Two registries populated in different orders resolve the same
        spec, whose serialized identity never mentions the registry."""
        first, second = DefenseRegistry(), DefenseRegistry()

        def build_a(bank_index, config):
            return NullDefense()

        def build_b(bank_index, config):
            return NullDefense()

        first.register("a")(build_a)
        first.register("b")(build_b)
        second.register("b")(build_b)
        second.register("a")(build_a)
        spec = DefenseSpec("a")
        assert canonical_json(spec.to_dict()) == '{"name":"a","params":{}}'
        assert isinstance(spec.factory(first)(0, default_config()), NullDefense)
        assert isinstance(spec.factory(second)(0, default_config()), NullDefense)

    def test_spec_is_picklable(self):
        spec = DefenseSpec.of("mithril", t_rh=256)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestRegistry:
    def test_builtins_registered(self):
        names = {e.name for e in registered_defenses()}
        expected = {BASELINE_NAME, "moat", "panopticon", "pride", "mithril",
                    "uprac"} | {v.value for v in MitigationVariant}
        assert expected <= names

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            @register_defense("moat")
            def build_again(bank_index, config):
                return NullDefense()

    def test_unknown_defense_error_lists_alternatives(self):
        with pytest.raises(ReproError, match="registered defenses"):
            resolve_defense("definitely-not-registered")

    def test_unknown_param_rejected(self):
        with pytest.raises(ReproError, match="valid parameters"):
            resolve_defense("moat:blast=9")

    def test_missing_required_param_rejected(self):
        with pytest.raises(ReproError, match="requires parameter"):
            DefenseSpec("pride").factory()

    def test_wrong_param_type_rejected_before_simulation(self):
        # Fail fast with a formatted error, not a TypeError mid-sweep.
        with pytest.raises(ReproError, match="wrong type"):
            resolve_defense("mithril:t_rh=abc")
        with pytest.raises(ReproError, match="wrong type"):
            resolve_defense("panopticon:t_bit=2.5")
        # None is fine where the annotation allows it; ints widen to float.
        resolve_defense("moat:proactive_every_n_refs=none")
        with pytest.raises(ReproError, match="wrong type"):
            resolve_defense("moat:eth=sixteen")

    def test_param_table_introspection(self):
        entry = REGISTRY.entry("pride")
        assert [(p.name, p.required) for p in entry.params] == [("t_rh", True)]
        entry = REGISTRY.entry("moat")
        assert {p.name: p.required for p in entry.params} == {
            "proactive_every_n_refs": False, "eth": False
        }

    def test_builder_without_config_slot_rejected(self):
        registry = DefenseRegistry()
        with pytest.raises(ConfigError, match="bank_index, config"):
            registry.register("broken")(lambda config: NullDefense())

    def test_builder_with_kwargs_rejected(self):
        registry = DefenseRegistry()
        with pytest.raises(ConfigError, match="explicit keyword"):
            registry.register("broken")(
                lambda bank_index, config, **kw: NullDefense()
            )


class TestResolution:
    def test_resolves_variant_shim(self):
        spec = resolve_defense(MitigationVariant.QPRAC_PROACTIVE)
        assert spec == DefenseSpec("qprac+proactive")
        assert spec.variant is MitigationVariant.QPRAC_PROACTIVE

    def test_resolves_spec_and_string(self):
        spec = DefenseSpec.of("mithril", t_rh=64)
        assert resolve_defense(spec) is spec
        assert resolve_defense("mithril:t_rh=64") == spec

    def test_rejects_other_types(self):
        with pytest.raises(ConfigError, match="cannot resolve"):
            resolve_defense(42)  # type: ignore[arg-type]

    def test_factories_build_expected_engines(self):
        config = default_config()
        cases = {
            "baseline": NullDefense,
            "qprac-ideal": QPRACBank,
            "moat": MOATBank,
            "pride:t_rh=256": PrIDEBank,
            "mithril:t_rh=256": MithrilBank,
        }
        for text, cls in cases.items():
            factory = resolve_defense(text).factory()
            a, b = factory(0, config), factory(1, config)
            assert isinstance(a, cls) and isinstance(b, cls)
            assert a is not b
        ideal = resolve_defense("qprac-ideal").factory()(0, config)
        assert ideal.variant is MitigationVariant.QPRAC_IDEAL

    def test_factory_carries_its_spec(self):
        spec = DefenseSpec.of("moat", proactive_every_n_refs=4)
        assert spec.factory().spec is spec

    def test_plugin_registration_end_to_end(self):
        """The one-decorator plugin point: register, sweep, label."""
        from repro.sim import simulate_workload

        name = "plugin-probe"

        @register_defense(name, summary="test plugin")
        def build_plugin(bank_index, config, *, strength: int = 1):
            del bank_index, config, strength
            return NullDefense()

        try:
            result = simulate_workload(
                "541.leela", defense=f"{name}:strength=2", n_entries=200
            )
            assert result.variant == "plugin-probe:strength=2"
        finally:
            REGISTRY._entries.pop(name)


class TestResultLabeling:
    def test_defense_runs_carry_spec_labels(self):
        from repro.sim import simulate_workload

        run = simulate_workload("541.leela", defense="moat", n_entries=200)
        assert run.variant == "moat"
        run = simulate_workload(
            "541.leela", defense=DefenseSpec.of("mithril", t_rh=512),
            n_entries=200,
        )
        assert run.variant == "mithril:t_rh=512"

    def test_baseline_label(self):
        from repro.sim import simulate_workload

        run = simulate_workload("541.leela", defense="baseline", n_entries=200)
        assert run.variant == "baseline"
