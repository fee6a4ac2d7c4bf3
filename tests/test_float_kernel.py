"""The bands CSV's float kernel against repr, lane by lane.

`spectra._float_words` writes each float as repr writes it: the digits of
`spectra._shortest_digits` where that certifies them, "0.0" and "-0.0" for
zeros, repr's own text on the other lanes.  Every property here compares the kernel's text with repr's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband import spectra
from hyperband.spectra import complex_region_grid, sweep, unitary_grid

from test_tight_binding import random_model


def kernel_texts(values) -> list:
    """The kernel's text of each float, its NUL padding dropped."""
    words = spectra._float_words(np.asarray(values, dtype=float).ravel())
    rows = np.ascontiguousarray(words.T).view(np.uint8)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def assert_repr(values):
    values = np.asarray(values, dtype=float).ravel()
    got = kernel_texts(values)
    expected = [repr(v) for v in values.tolist()]
    wrong = [(g, e) for g, e in zip(got, expected) if g != e]
    assert not wrong, wrong[:5]


def neighbours(values, steps=2):
    """Each value and its `steps` nearest doubles on either side."""
    values = np.asarray(values, dtype=float)
    out = [values]
    up = down = values
    with np.errstate(over="ignore"):  # past the largest double
        for _ in range(steps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return np.concatenate(out)


EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-4, 9.999999999999999e-05, 0.00010000000000000002, 9999999999999998.0, 1e16, 1e16 + 2,
    2.0**52, 2.0**52 - 0.5, 2.0**52 + 1, 2.0**53, 1e15 + 0.25, 1e15 + 0.75,
    0.1 + 0.2, 0.3, 0.1, 2.5, 0.125, 0.5, 1.5, 1.0, 10.0, 100.0, 1e15, 123456789012345.6,
    np.inf, -np.inf, np.nan,
]


def test_edge_floats():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_repr(neighbours(EDGES + [-v for v in EDGES]))
    assert_repr(neighbours(np.concatenate([powers, -powers]), steps=1))
    assert_repr(neighbours(10.0 ** np.arange(-8, 20)))


@pytest.mark.parametrize("digits", [15, 16, 17])
def test_candidates_on_the_interval_edges(digits):
    # a decimal of 15 to 17 digits reads back as x; on x's neighbours it
    # lies just past an end of their intervals, the nearest a candidate gets
    rng = np.random.default_rng(digits)
    mantissas = rng.integers(10 ** (digits - 1), 10**digits, size=3000)
    exponents = rng.integers(-4 - digits, 17 - digits, size=3000)
    values = [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    assert_repr(neighbours(values, steps=3))


def test_short_decimals_integers_and_eighths():
    rng = np.random.default_rng(7)
    assert_repr(np.round(rng.normal(size=20000) * 10, 3))
    assert_repr(rng.integers(-10**6, 10**6, size=20000).astype(float))
    assert_repr(rng.integers(-10**6, 10**6, size=20000) / 8)
    for scale in (1e-4, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e8, 1e15):
        assert_repr(rng.normal(size=20000) * scale)


finite = st.floats(allow_nan=False, allow_infinity=False)
fixed = st.floats(1e-4, 1e16) | st.floats(-1e16, -1e-4)  # repr's fixed notation


@settings(max_examples=200)
@given(st.lists(finite | fixed, min_size=1, max_size=64))
def test_property_finite_floats_as_repr(values):
    assert_repr(values)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_property_bit_patterns_as_repr(patterns):
    assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_repr_runs_only_on_the_lanes_left_uncertified(monkeypatch):
    values = np.concatenate([neighbours(EDGES), np.random.default_rng(8).normal(size=1000)])
    exact = spectra._shortest_digits(values)[2]
    calls = []
    monkeypatch.setattr(spectra, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    texts = kernel_texts(values)
    assert list(map(repr, calls)) == list(map(repr, values[~exact & (values != 0)].tolist()))
    assert texts == [repr(v) for v in values.tolist()]
    # ties between two shortest candidates are repr's to break
    assert not spectra._shortest_digits(np.array([1e15 + 0.25]))[2].any()


@pytest.mark.parametrize(
    "genus, dim, grid",
    [
        (2, 8, lambda: unitary_grid(2, 6)),
        (1, 1, lambda: unitary_grid(1, 256)),
        (2, 4, lambda: complex_region_grid(2, 3, (-0.4, 0.4), 2)),
    ],
    ids=["genus2-d8", "d1-256x256", "genus2-region"],
)
def test_kernel_certifies_nearly_every_sweep_value(genus, dim, grid):
    # a kernel that handed its lanes to repr would keep the bytes and lose
    # the speed; on sweep output it certifies all but a few lanes in 10^3
    bands = sweep(random_model(np.random.default_rng(9), genus, dim), grid())
    parts = [bands.bands.real.ravel()]
    if not bands.hermitian:
        parts.append(bands.bands.imag.ravel())
    for values in parts:
        assert spectra._shortest_digits(values)[2].mean() >= 0.999
