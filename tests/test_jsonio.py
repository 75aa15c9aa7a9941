import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphenergy import jsonio


def test_floats_round_trip_exactly():
    rng = np.random.default_rng(12345)
    values = list(rng.standard_normal(200)) + [1e-8, 96.00000000000009, 2 / 3, 1e300]
    for x in values:
        x = float(x)
        assert float(jsonio.format_float(x)) == x


def test_integral_floats_keep_a_decimal_point():
    assert jsonio.format_float(12.0) == "12.0"
    assert json.loads(jsonio.dumps({"e": 12.0})) == {"e": 12.0}


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        jsonio.format_float(math.nan)
    with pytest.raises(ValueError):
        jsonio.format_float(math.inf)


def test_nested_structure_and_key_order():
    payload = {"b": [1, {"x": None, "y": True}], "a": "text", "empty": {}, "none": []}
    text = jsonio.dumps(payload)
    assert json.loads(text) == payload
    # insertion order is preserved, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_repeated_dumps_identical():
    payload = {"values": [1 / 3, 2 / 7, 1e-8], "n": 3}
    assert jsonio.dumps(payload) == jsonio.dumps(payload)


def test_rejects_unserializable():
    with pytest.raises(TypeError):
        jsonio.dumps({"x": object()})
    with pytest.raises(TypeError):
        jsonio.dumps({1: "non-string key"})


# quotes, backslashes, control characters, DEL, non-ASCII, astral and lone surrogates
AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u00e9",
                           "\u2028", "\U0001f600", "\ud800", "\udfff"])
STRINGS = st.text(alphabet=st.one_of(AWKWARD, st.characters()))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), STRINGS,
                    st.integers(-(2 ** 4000), 2 ** 4000))


@given(SCALARS)
def test_scalars_are_written_as_json_dumps_writes_them(value):
    assert jsonio.dumps(value) == json.dumps(value) + "\n"
    assert jsonio.dumps([value]) == json.dumps([value], indent=2) + "\n"


@given(STRINGS)
def test_keys_are_written_as_json_dumps_writes_them(key):
    assert jsonio.dumps({key: 1}) == json.dumps({key: 1}, indent=2) + "\n"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_numpy_float64_is_written_as_the_float(x):
    assert jsonio.dumps(np.float64(x)) == jsonio.dumps(x)
    assert jsonio.dumps({"x": [np.float64(x)]}) == jsonio.dumps({"x": [x]})


@pytest.mark.parametrize("value", [np.int64(1), np.uint8(1), np.bool_(True), b"bytes"],
                         ids=["int64", "uint8", "bool_", "bytes"])
def test_rejects_scalars_json_does_not_know(value):
    with pytest.raises(TypeError):
        jsonio.dumps(value)
    with pytest.raises(TypeError):
        jsonio.dumps({"x": [value]})


# float-free trees: apart from floats, dumps is json.dumps(obj, indent=2) plus a newline
TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), STRINGS),
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(STRINGS, children)),
)


@given(TREES)
def test_float_free_trees_are_written_as_json_dumps_indents_them(tree):
    assert jsonio.dumps(tree) == json.dumps(tree, indent=2) + "\n"


def test_empty_containers_tuples_and_floats_inside_containers():
    payload = {"a": [], "b": {}, "c": [[], {}], "d": (1, -0.0), "e": [np.float64(2.5)]}
    assert jsonio.dumps(payload) == (
        '{\n  "a": [],\n  "b": {},\n  "c": [\n    [],\n    {}\n  ],\n'
        '  "d": [\n    1,\n    -0.0\n  ],\n  "e": [\n    2.5\n  ]\n}\n'
    )
