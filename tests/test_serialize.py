"""The indented JSON writer: `json.dumps(obj, indent=2, sort_keys=True)`'s bytes,
also of lists of objects held as columns (`Rows`); the size rule for the
arrays a caller's counts ask for."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband import _serialize
from hyperband._serialize import indented_dumps, matrix_from_json, matrix_to_json
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


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS[:10])
columns = st.one_of(
    st.lists(finite).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.integers(-(2**62), 2**62)).map(lambda xs: np.array(xs, dtype=np.int64)),
)


@st.composite
def rows(draw):
    """A `Rows` of n objects (n >= 0) and the same objects as a list of dicts."""
    n = draw(st.integers(0, 4))
    fields = {}
    for name in draw(st.lists(strings, min_size=1, max_size=4, unique=True)):
        widths = draw(st.none() | st.integers(0, 3))
        cut = lambda: draw(columns.filter(lambda c: len(c) >= n))[:n]
        fields[name] = cut() if widths is None else [cut() for _ in range(widths)]
    if not any(not isinstance(v, list) or v for v in fields.values()):
        fields[next(iter(fields))] = draw(columns.filter(lambda c: len(c) >= n))[:n]
    objects = [
        {k: [c[j].item() for c in v] if isinstance(v, list) else v[j].item() for k, v in fields.items()}
        for j in range(n)
    ]
    return _serialize.Rows(**fields), objects


@settings(max_examples=200)
@given(rows(), st.integers(0, 2))
def test_property_rows_are_their_objects_byte_for_byte(drawn, depth):
    # at any depth, under a key or in a list: the indent is the caller's
    table, objects = drawn
    doc, plain = table, objects
    for _ in range(depth):
        doc, plain = {"x": 1, "rows": doc}, {"x": 1, "rows": plain}
    assert indented_dumps(doc) == reference(plain)
    assert indented_dumps([doc]) == reference([plain])


@pytest.mark.parametrize(
    "fields, error",
    [
        ({"a": np.array([1.0, float("nan")])}, ValueError),
        ({"a": [np.array([0.0]), np.array([float("-inf")])]}, ValueError),
        ({}, TypeError),
        ({"a": []}, TypeError),
        ({"a": np.array([1, 2]), "b": np.array([1])}, TypeError),
        ({"a": np.array([[1.0]])}, TypeError),
        ({"a": np.array([1j])}, TypeError),
        ({"a": np.array([True])}, TypeError),
    ],
    ids=["nan", "inf-in-list", "no-fields", "no-columns", "lengths", "2-d", "complex", "bool"],
)
def test_rows_refuse_what_json_text_cannot_hold(fields, error):
    with pytest.raises(error):
        indented_dumps({"rows": _serialize.Rows(**fields)})


def test_write_model_writes_the_json_module_text(tmp_path):
    model = random_model(np.random.default_rng(4), 2, 3)
    path = tmp_path / "model.json"
    write_model(model, path)
    assert path.read_text(encoding="utf-8") == reference(model_to_json(model))


# ---------------------------------------------------------------------------
# the size rule
# ---------------------------------------------------------------------------


def test_size_rule_passes_the_limit_and_refuses_one_byte_more():
    limit = _serialize._MAX_ARRAY_BYTES
    _serialize.refuse_oversized(limit, "grid", "momenta")
    _serialize.refuse_oversized(float(limit), "grid", "momenta")
    with pytest.raises(ValueError) as info:
        _serialize.refuse_oversized(limit + 1, "grid", "momenta for {} points", 7)
    assert str(info.value) == "grid too large: about 1.1 GB of momenta for 7 points; the limit is 1.1 GB"


@pytest.mark.parametrize(
    "estimate, count, shown",
    [
        (48 * 10**12, 10**12, "about 48000.0 GB of arrays for 1000000000000 points"),
        (10**24 - 1, 10**18 - 1, "about 1000000000000000.0 GB of arrays for 999999999999999999 points"),
        (10**24, 10**18, "about 10^24 bytes of arrays for about 10^18 points"),
        # past the float range, and past the digits str() of an int may show
        (16 * 10**400, 10**400, "about 10^401 bytes of arrays for about 10^400 points"),
        (10**6000, 10**5000, "about 10^6000 bytes of arrays for about 10^5000 points"),
        (1e300, 10**20, "about 10^300 bytes of arrays for about 10^20 points"),
        (float("inf"), 3, "an unbounded size of arrays for 3 points"),
        (float("nan"), 3, "an unbounded size of arrays for 3 points"),
    ],
    ids=["GB", "last-GB", "first-power", "past-float", "past-str", "float", "inf", "nan"],
)
def test_size_rule_compares_exactly_and_shows_any_size(estimate, count, shown):
    with pytest.raises(ValueError) as info:
        _serialize.refuse_oversized(estimate, "grid", "arrays for {} points", count)
    assert str(info.value) == f"grid too large: {shown}; the limit is 1.1 GB"


# ---------------------------------------------------------------------------
# input refusals: each row a call, its exception type and its whole message
# ---------------------------------------------------------------------------

REFUSALS = [
    pytest.param(lambda: matrix_to_json([1.0, 2.0]), ValueError, "expected a 2-d array", id="to-json-vector"),
    pytest.param(
        lambda: matrix_from_json([], "onsite"), ValueError,
        "onsite must be a matrix (nested lists, rows of one length)", id="from-json-empty",
    ),
    pytest.param(
        lambda: matrix_from_json([[1.0], [1.0, 2.0]], "hops"), ValueError,
        "hops must be a matrix (nested lists, rows of one length)", id="from-json-ragged",
    ),
    pytest.param(
        lambda: matrix_from_json([1.0, 2.0], "onsite"), ValueError,
        "onsite must be a matrix (nested lists, rows of one length)", id="from-json-flat",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_serialize_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
