"""The shared ``name:k=v`` grammar round-trips for every spec kind."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import AttackSpec
from repro.defenses import DefenseSpec
from repro.sim.engines import EngineSpec

#: Every value the grammar promises to carry loss-free: scalars, and
#: strings without commas or quotes.
VALUES = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(st.characters(blacklist_characters=",'\"")),
)

PARAMS = st.dictionaries(
    st.text("abekmt_", min_size=1, max_size=8), VALUES, max_size=4,
)


def _typed(spec) -> list:
    """Params with each value's type: ``1 == 1.0 == True`` in Python."""
    return [(key, type(value), value) for key, value in spec.params]


@pytest.mark.parametrize("kind", [DefenseSpec, EngineSpec, AttackSpec])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    name=st.text("abmqrx+-", min_size=1, max_size=10),
    params=PARAMS,
)
def test_string_and_dict_round_trip(kind, name, params):
    spec = kind.of(name, **params)
    for again in (
        kind.from_string(spec.to_string()),
        kind.from_dict(spec.to_dict()),
    ):
        assert again == spec
        assert _typed(again) == _typed(spec)


@pytest.mark.parametrize("value", [" x", "x ", " ", "\t", " a b "])
def test_surrounding_whitespace_is_quoted(value):
    spec = DefenseSpec.of("x", k=value)
    assert DefenseSpec.from_string(spec.to_string()).params_dict == {
        "k": value
    }
