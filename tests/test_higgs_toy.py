"""The explicit rank-2 family on the 4-punctured sphere."""

import math
import re

import numpy as np
import pytest

from hyperband.errors import NumericalCheckFailure
from hyperband.higgs_toy import (
    INFINITY,
    RationalMatrixOneForm,
    ToyModelPoint,
    connection_form,
    connection_matrices,
    evaluate_form,
    higgs_form,
    higgs_matrices,
    hitchin_closed_form,
    hitchin_coordinate,
    local_monodromy_eigenvalues,
)


def random_point(rng):
    m = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    while min(abs(m), abs(m - 1.0)) < 0.2:
        m = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    B = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    while abs(B) < 0.1:
        B = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return ToyModelPoint(m=m, u=u, B=B)


def test_point_rejects_degenerate_puncture():
    with pytest.raises(ValueError):
        ToyModelPoint(m=0.0, u=1.0)
    with pytest.raises(ValueError):
        ToyModelPoint(m=1.0 + 1e-15j, u=1.0)
    ToyModelPoint(m=1e-3, u=1.0)  # small but legal


def test_connection_residues_sum_to_zero_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        point = random_point(rng)
        form = connection_form(point)
        total = sum(r for _, r in form.poles)
        assert np.all(total == 0.0)


def test_higgs_residues_sum_to_zero_exactly():
    rng = np.random.default_rng(1)
    for _ in range(20):
        point = random_point(rng)
        form = higgs_form(point)
        total = sum(r for _, r in form.poles)
        assert np.all(total == 0.0)


def test_connection_matrices_quarter_eigenvalues():
    rng = np.random.default_rng(2)
    for _ in range(20):
        point = random_point(rng)
        for A in connection_matrices(point.u):
            ev = np.sort_complex(np.linalg.eigvals(A))
            assert np.allclose(ev, [-0.25, 0.25], atol=1e-12)


def test_higgs_matrices_nilpotent_and_tracefree():
    rng = np.random.default_rng(3)
    for _ in range(20):
        point = random_point(rng)
        for P in higgs_matrices(point.u):
            assert abs(np.trace(P)) <= 1e-14 * max(1.0, np.abs(P).max())
            assert np.max(np.abs(P @ P)) <= 1e-12 * max(1.0, np.abs(P).max() ** 2)


def test_higgs_form_scales_with_B():
    point = ToyModelPoint(m=3.0, u=2.0, B=2.5 - 1.0j)
    unscaled = higgs_matrices(point.u)
    form = higgs_form(point)
    finite = [r for p, r in form.poles if p != INFINITY]
    for P, R in zip(unscaled, finite):
        assert np.allclose(R, point.B * P, atol=1e-14)


def test_infinity_residue_balances_finite_ones():
    point = ToyModelPoint(m=3.0, u=2.0, B=1.0)
    form = higgs_form(point)
    finite_sum = sum(r for p, r in form.poles if p != INFINITY)
    assert np.array_equal(dict(form.poles)[INFINITY], -finite_sum)


def test_evaluate_form_partial_fractions():
    point = ToyModelPoint(m=3.0, u=2.0, B=1.0)
    form = higgs_form(point)
    z = 0.7 + 0.2j
    expected = sum(
        r / (z - p) for p, r in form.poles if p != INFINITY
    )
    assert np.allclose(evaluate_form(form, z), expected)


def test_evaluate_form_rejects_poles():
    point = ToyModelPoint(m=3.0, u=2.0, B=1.0)
    form = higgs_form(point)
    with pytest.raises(ValueError):
        evaluate_form(form, 3.0)
    with pytest.raises(ValueError):
        evaluate_form(form, 1.0 + 1e-14j)


def test_hitchin_coordinate_z_independent_and_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(30):
        point = random_point(rng)
        c = hitchin_coordinate(point)
        assert abs(c - hitchin_closed_form(point)) <= 1e-9 * max(
            1.0, abs(hitchin_closed_form(point))
        )


def test_hitchin_closed_form_rederived_symbolically():
    # independent oracle: rebuild z (z - 1)(z - m) det(B N(z)) from the residue
    # matrices with exact symbols and confirm it is constant in z, equal to
    # -B^2 u (u - 1)(u - m)
    sympy = pytest.importorskip("sympy")
    z, u, m, B = sympy.symbols("z u m B")
    P0 = sympy.Matrix([[0, 0], [1 - u, 0]])
    P1 = sympy.Matrix([[u, -u], [u, -u]])
    Pm = sympy.Matrix([[-u, u**2], [-1, u]])
    N = B * (P0 / z + P1 / (z - 1) + Pm / (z - m))
    q = sympy.det(N) * z * (z - 1) * (z - m)
    q = sympy.together(sympy.expand(q))
    assert sympy.simplify(sympy.diff(q, z)) == 0  # constant in z
    expected = -(B**2) * u * (u - 1) * (u - m)
    assert sympy.simplify(q - expected) == 0


def test_hitchin_rejects_scattered_samples():
    # a point with mismatched closed form would show sample spread; simulate by
    # tightening the spread tolerance to an impossible level on a fine point
    point = ToyModelPoint(m=3.0, u=2.0, B=1.0)
    hitchin_coordinate(point, tol=1e-9)  # fine
    with pytest.raises(NumericalCheckFailure):
        hitchin_coordinate(point, tol=1e-18)


def test_local_monodromy_connection_eigenvalues():
    point = ToyModelPoint(m=3.0, u=2.0, B=1.0)
    form = connection_form(point)
    for pole, residue in form.poles:
        values = local_monodromy_eigenvalues(residue)
        if pole == INFINITY:
            assert np.allclose(np.sort_complex(np.array(values)), [-1.0, -1.0], atol=1e-12)
        else:
            assert np.allclose(np.sort_complex(np.array(values)), [-1j, 1j], atol=1e-12)


def test_local_monodromy_rejects_nilpotent_nonscalar():
    point = ToyModelPoint(m=3.0, u=2.0, B=1.0)
    nilpotent = dict(higgs_form(point).poles)[0.0]
    with pytest.raises(ValueError):
        local_monodromy_eigenvalues(nilpotent)


def test_local_monodromy_scalar_residue_allowed():
    values = local_monodromy_eigenvalues(np.diag([0.5, 0.5]))
    assert np.allclose(values, [-1.0, -1.0])


def test_infinity_marker_is_math_inf():
    assert INFINITY is math.inf


# ---------------------------------------------------------------------------
# input refusals: each row a call, its exception type and its whole message
# ---------------------------------------------------------------------------

EYE = np.eye(2)

REFUSALS = [
    pytest.param(lambda: ToyModelPoint(m=math.nan, u=0.3), ValueError, "m must be finite, got (nan+0j)", id="m-nan"),
    pytest.param(lambda: ToyModelPoint(m=2.0, u=math.inf), ValueError, "u must be finite, got (inf+0j)", id="u-inf"),
    pytest.param(
        lambda: ToyModelPoint(m=2.0, u=0.3, B=complex(0.0, -math.inf)), ValueError,
        "B must be finite, got -infj", id="B-inf",
    ),
    pytest.param(
        lambda: RationalMatrixOneForm(((0.0, [[1.0, 2.0]]), (INFINITY, [[-1.0, -2.0]]))), ValueError,
        "residues must be 2x2 matrices", id="residue-shape",
    ),
    pytest.param(
        lambda: RationalMatrixOneForm(((0.0, EYE), (1.0, EYE))), ValueError,
        "residues must sum to zero exactly; got total [[(2+0j), 0j], [0j, (2+0j)]]", id="residue-sum",
    ),
    pytest.param(
        lambda: RationalMatrixOneForm(((0.0, [[math.inf, 0.0], [0.0, 0.0]]), (INFINITY, -EYE))), ValueError,
        "the residue at 0j is not finite: it overflows the float range", id="residue-inf",
    ),
    # u^2 overflows in P_m, and P_m + P_1 + P_0 in the residue at infinity
    pytest.param(
        lambda: higgs_form(ToyModelPoint(m=2.0, u=1e200)), ValueError,
        "the residue at (2+0j) is not finite: it overflows the float range", id="residue-overflow",
    ),
    pytest.param(
        lambda: evaluate_form(higgs_form(ToyModelPoint(m=2.0, u=0.3)), complex(math.nan, 0.0)), ValueError,
        "z must be finite", id="z-nan",
    ),
    pytest.param(
        lambda: local_monodromy_eigenvalues(np.eye(3)), ValueError, "residue must be 2x2", id="monodromy-shape",
    ),
    # det(B Phi(z)) overflows at B = 1e200: the samples were NaN and passed
    pytest.param(
        lambda: hitchin_coordinate(ToyModelPoint(m=2.0, u=0.3, B=1e200)), NumericalCheckFailure,
        "the invariant is not finite ((nan+nanj)): it overflows the float range", id="invariant-overflow",
    ),
    # here B Phi(z) itself overflows, in evaluate_form
    pytest.param(
        lambda: hitchin_coordinate(ToyModelPoint(m=2.0, u=0.3, B=complex(1e308, 1e308))), NumericalCheckFailure,
        "the invariant is not finite ((nan+nanj)): it overflows the float range", id="form-overflow",
    ),
    pytest.param(
        lambda: hitchin_closed_form(ToyModelPoint(m=2.0, u=1e-200, B=1e200)), NumericalCheckFailure,
        "the closed form of the invariant is not finite ((nan+nanj)): it overflows the float range",
        id="closed-form-overflow",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_higgs_toy_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
