"""Words, relators, and matrix evaluation for the genus-g translation groups."""

import re

import numpy as np
import pytest

from hyperband.surface_group import (
    SurfaceGroup,
    Word,
    evaluate_word,
    free_reduce,
    make_surface_group,
)


def test_relator_has_length_4g_and_abelianizes_to_zero():
    for genus in (1, 2, 3, 5):
        g = make_surface_group(genus)
        r = g.relator()
        assert len(r) == 4 * genus
        # each generator's exponents sum to zero
        assert all(sum(e for i, e in r.letters if i == gen) == 0 for gen in range(1, 2 * genus + 1))


def test_relator_structure_genus_one():
    # a1 b1 a1^-1 b1^-1
    r = make_surface_group(1).relator()
    assert r.letters == ((1, 1), (2, 1), (1, -1), (2, -1))


def test_genus_zero_rejected():
    with pytest.raises(ValueError):
        make_surface_group(0)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: SurfaceGroup(2.7), "genus must be an integer, got 2.7"),
        (lambda: SurfaceGroup(True), "genus must be an integer, got True"),
        (lambda: make_surface_group(1.5), "genus must be an integer, got 1.5"),
        (lambda: Word(((1.9, 1),)), "generator index must be an integer, got 1.9"),
        (lambda: Word(((1, True),)), "exponent must be an integer, got True"),
        (lambda: Word(((1, 1), ("2", -1))), "generator index must be an integer, got '2'"),
    ],
)
def test_counts_refuse_fractions_and_booleans(build, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        build()


def test_counts_read_integral_numbers_as_ints():
    assert SurfaceGroup(2.0).genus == 2 and type(SurfaceGroup(np.int64(2)).genus) is int
    assert Word(((1.0, np.int64(-1)),)).letters == ((1, -1),)


def test_word_validates_exponents():
    with pytest.raises(ValueError):
        Word(((1, 2),))
    with pytest.raises(ValueError):
        Word(((0, 1),))


def test_word_product_concatenates_without_reduction():
    w = Word(((1, 1),)) * Word(((1, -1),))
    assert len(w) == 2  # no silent cancellation
    assert len(free_reduce(w)) == 0


def test_inverse_reverses_and_flips():
    w = Word(((1, 1), (2, -1), (3, 1)))
    assert w.inverse().letters == ((3, -1), (2, 1), (1, -1))
    assert len(free_reduce(w * w.inverse())) == 0


def test_free_reduce_cancels_nested_pairs():
    w = Word(((1, 1), (2, 1), (2, -1), (1, -1), (3, 1)))
    assert free_reduce(w).letters == ((3, 1),)


def test_free_reduce_fixed_point_of_reduced_word():
    w = Word(((1, 1), (2, 1), (1, -1)))
    assert free_reduce(w) == w


def test_evaluate_word_ordered_product():
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(3, 3)) for _ in range(4)]
    w = Word(((1, 1), (3, 1), (2, -1)))
    expected = mats[0] @ mats[2] @ np.linalg.inv(mats[1])
    got = evaluate_word(w, mats)
    assert np.allclose(got, expected)


def test_evaluate_word_empty_is_identity():
    mats = [np.eye(2)] * 2
    assert np.array_equal(evaluate_word(Word(()), mats), np.eye(2))


def test_evaluate_word_singular_matrix_inverse_raises():
    mats = [np.zeros((2, 2)), np.eye(2)]
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        evaluate_word(Word(((1, -1),)), mats)


def test_evaluate_relator_on_commuting_matrices_is_identity():
    rng = np.random.default_rng(1)
    # diagonal matrices commute, so any relator evaluates to the identity
    for genus in (1, 2):
        g = make_surface_group(genus)
        mats = [np.diag(rng.uniform(0.5, 2.0, size=3)) for _ in range(2 * genus)]
        out = evaluate_word(g.relator(), mats)
        assert np.allclose(out, np.eye(3), atol=1e-12)


def test_group_is_frozen():
    g = make_surface_group(2)
    with pytest.raises(AttributeError):
        g.genus = 3


# ---------------------------------------------------------------------------
# input refusals: each row a call, its exception type and its whole message
# ---------------------------------------------------------------------------

EYE2 = np.eye(2)

REFUSALS = [
    pytest.param(
        lambda: evaluate_word(Word(((1, 1),)), []), ValueError,
        "assignment must contain at least one matrix", id="no-matrices",
    ),
    pytest.param(
        lambda: evaluate_word(Word(((1, 1),)), [EYE2, np.eye(3)]), ValueError,
        "assignment matrices must all be square of one size", id="sizes",
    ),
    # a scalar first matrix once raised IndexError from its missing shape
    pytest.param(
        lambda: evaluate_word(Word(((1, 1),)), [2.0]), ValueError,
        "assignment matrices must all be square of one size", id="scalar",
    ),
    pytest.param(
        lambda: evaluate_word(Word(((3, 1),)), [EYE2, EYE2]), ValueError,
        "word uses generator 3 but only 2 matrices given", id="generator-range",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_surface_group_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
