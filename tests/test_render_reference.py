"""The CLI's JSON renderer against its verbatim reference.

`cli._render_json` dispatches on the exact `type()` and writes floats and
lists of floats without recursing; it must print the reference's text
(`render_reference.py`) for every value built of the exact JSON types:
nested dicts, lists and tuples of strings with quotes, backslashes,
control, non-ASCII and astral characters, of bools, ints, None, empty
containers and floats down to -0.0 and the subnormals and up to +-1e308.
A non-finite float is still a `ConvergenceError` and any other type a
`TypeError`, with the reference's message.  A subclass of a JSON type,
which the reference writes as its base, is a `TypeError` too: the program
hands the renderer none.
"""

import enum
import math
import sys

import pytest
import render_reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calogero import cli
from calogero.errors import ConvergenceError


class _Level(enum.IntEnum):
    GROUND = 0


class _Name(str, enum.Enum):
    NU = "nu"


class _Real(float):
    pass


class _Row(dict):
    pass


class _Levels(list):
    pass


class _Flag(int):
    pass


_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€\U0001f600\U00010348'),
        st.characters(),
    ),
    max_size=12,
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     sys.float_info.max, 0.1, 1e16, 1e-5]),
)
_LEAVES = st.one_of(
    _FLOATS,
    _TEXT,
    st.booleans(),
    st.integers(),
    st.none(),
    st.sampled_from([True, 0, -0.0]),
)
_KEYS = st.one_of(_TEXT, st.integers(), st.sampled_from([None, True, 1.5, _Name.NU]))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_FLOATS, max_size=6),
        st.dictionaries(_KEYS, inner, max_size=5),
    ),
    max_leaves=30,
)


@given(obj=_VALUES, indent=st.integers(0, 3))
@settings(max_examples=600, deadline=None)
@example(obj={}, indent=0)
@example(obj=[], indent=0)
@example(obj=(), indent=2)
@example(obj={"a": [], "b": {}, "c": ()}, indent=0)
@example(obj={"energies": [-0.0, 5e-324, 1e308, -1e308], "q\"\\\x01é\U0001f600": None}, indent=0)
@example(obj=[[1.5, 2.5], (3.5,), [True, 1, None, "x"]], indent=1)
def test_render_json_matches_reference(obj, indent):
    assert cli._render_json(obj, indent) == ref._render_json(obj, indent)


@pytest.mark.parametrize(
    "obj",
    [math.nan, -math.inf, [1.0, math.inf], {"e": [0.5, math.nan]}, ({"x": (math.inf,)},)],
)
def test_non_finite_float_is_a_convergence_error(obj):
    with pytest.raises(ConvergenceError) as got:
        cli._render_json(obj)
    with pytest.raises(ConvergenceError) as want:
        ref._render_json(obj)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("non-finite value reached the output layer: ")


@pytest.mark.parametrize(
    "obj",
    [object(), {"a": {1, 2}}, [1.0, b"bytes"], ({"x": 1j},), [1.0, math.inf, object()], {object(): 1.0}],
)
def test_first_refusal_matches_reference(obj):
    # the first bad value in writing order is the one refused
    with pytest.raises(Exception) as got:
        cli._render_json(obj)
    with pytest.raises(Exception) as want:
        ref._render_json(obj)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("obj", [object(), {"a": {1, 2}}, [b"bytes"], 1j])
def test_unrenderable_type_names_its_type(obj):
    with pytest.raises(TypeError, match="unrenderable type"):
        cli._render_json(obj)


@pytest.mark.parametrize(
    "obj",
    [_Row(a=1.0), _Levels([1.0]), _Real(2.5), _Real("nan"), _Level.GROUND, _Name.NU, _Flag(3),
     {"rows": [_Row()]}, [1.0, _Real(-0.0)], ({"e": _Levels()},)],
)
def test_subclass_is_a_type_error(obj):
    # the reference writes a subclass as its base; the renderer refuses it
    # as it refuses any other type, naming the subclass
    with pytest.raises(TypeError, match=r"unrenderable type <(class|enum) '(\S*\.)?_[A-Z][a-z]+'>"):
        cli._render_json(obj)
