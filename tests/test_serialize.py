"""The indented JSON writer: `json.dumps(obj, indent=2, sort_keys=True)`'s bytes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband._serialize import indented_dumps
from hyperband.tight_binding import model_to_json, write_model

from test_tight_binding import random_model


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e22, 1.5e300,
    0.1, float("nan"), float("inf"), float("-inf"),
]
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
ints = st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
# non-ASCII, quotes, backslashes, control characters and a lone surrogate
strings = st.text() | st.sampled_from(["", "é", "☃", "\U0001f600", '"', "\\", "\n\t\x00", "\ud800", "a/b"])
scalars = (
    st.none() | st.booleans() | ints | floats | strings | floats.map(np.float64)
)
# homogeneous lists reach the lists-of-floats and lists-of-ints forms
leaves = (
    scalars
    | st.lists(floats)
    | st.lists(floats.map(np.float64))
    | st.lists(ints)
    | st.lists(ints | st.booleans())
)
documents = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(strings, children, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=400)
@given(documents)
def test_property_writer_is_json_dumps_byte_for_byte(doc):
    assert indented_dumps(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"b": {}, "a": [[], (), {}]},
        [1, True, 2, False],
        [True, False],
        [1.0, 2],
        [np.float64(1.5), -0.0, float("nan")],
        {"é\"\\": {"\x7f": [10**30, -(10**30)]}},
        ("x", None, 1e16),
    ],
)
def test_writer_examples(doc):
    assert indented_dumps(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        np.int64(1),
        [np.bool_(True)],
        1 + 2j,
        {1, 2},
        b"bytes",
        object(),
        np.zeros(2),
        {"a": [np.complex128(1)]},
        {1: "an int key"},
        {"a": 1, 2: "mixed keys"},
    ],
)
def test_writer_refuses_unsupported_values(doc):
    with pytest.raises(TypeError):
        indented_dumps(doc)


def test_write_model_writes_the_json_module_text(tmp_path):
    model = random_model(np.random.default_rng(4), 2, 3)
    path = tmp_path / "model.json"
    write_model(model, path)
    assert path.read_text(encoding="utf-8") == reference(model_to_json(model))
