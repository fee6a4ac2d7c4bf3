"""Rank-2 twisted fields, discriminants, branch divisors, genus."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from hyperband.errors import NumericalCheckFailure
from hyperband.higgs_toy import INFINITY, ToyModelPoint
from hyperband.spectral_curve import (
    BranchPoint,
    Rank2TwistedHiggs,
    SpectralCurveInfo,
    char_poly,
    curve_info,
    curve_report,
    discriminant,
    feasibility,
    higgs_from_json,
    higgs_to_json,
    toy_to_twisted,
)


def test_feasibility_window():
    assert feasibility(1, 0) and feasibility(1, 2)
    assert not feasibility(1, 3)
    assert not feasibility(0, -1)
    with pytest.raises(ValueError):
        feasibility(-1, 0)


def test_degree_caps_enforced():
    # genus 1, k = 1: caps are 2 / 2 / 2 / 2
    ok = Rank2TwistedHiggs(1, 1, (([0, 1, 1], [1]), ([0, 0, 1], [2])))
    assert ok.genus == 1
    with pytest.raises(ValueError):
        Rank2TwistedHiggs(1, 1, (([0, 1, 1, 1], [1]), ([1], [1])))
    # genus 1, k = 0: cap for entry 21 is zero
    with pytest.raises(ValueError):
        Rank2TwistedHiggs(1, 0, (([1], [1]), ([0, 1], [1])))
    Rank2TwistedHiggs(1, 0, (([1], [1]), ([3], [1])))  # constants fine


def test_char_poly_and_evaluate_consistent():
    rng = np.random.default_rng(0)
    phi = Rank2TwistedHiggs(
        1,
        1,
        (
            (rng.normal(size=3) + 1j * rng.normal(size=3), rng.normal(size=3)),
            (rng.normal(size=3), rng.normal(size=3) - 1j * rng.normal(size=3)),
        ),
    )
    a1, a2 = char_poly(phi)
    for z in (0.3, -1.2 + 0.7j, 2.0):
        M = phi.evaluate(z)
        assert abs(npoly.polyval(z, a1) - np.trace(M)) < 1e-12 * max(1, abs(np.trace(M)))
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        assert abs(npoly.polyval(z, a2) - det) < 1e-10 * max(1, abs(det))


def test_discriminant_of_diagonal_field():
    # phi = diag(p, -p): a1 = 0, a2 = -p^2, disc = 4 p^2
    p = np.array([1.0, 2.0], dtype=complex)  # 1 + 2z
    phi = Rank2TwistedHiggs(1, 1, ((p, [0]), ([0], -p)))
    a1, a2 = char_poly(phi)
    disc = discriminant(a1, a2)
    assert np.allclose(disc, 4.0 * npoly.polymul(p, p))


def test_branch_points_double_root_multiplicity():
    # disc = 4 (1 + 2z)^2 has a double root at -1/2 and a quadruple point at
    # infinity (degree 2 instead of 4)
    p = np.array([1.0, 2.0], dtype=complex)
    phi = Rank2TwistedHiggs(1, 1, ((p, [0]), ([0], -p)))
    info = curve_info(phi)
    assert not info.smooth
    pts = {(-0.5): 2}
    finite = [bp for bp in info.branch_points if bp.point != INFINITY]
    assert len(finite) == 1
    assert abs(finite[0].point - (-0.5)) < 1e-8
    assert finite[0].multiplicity == 2
    inf_bp = [bp for bp in info.branch_points if bp.point == INFINITY]
    assert inf_bp[0].multiplicity == 2
    # a non-reduced divisor: a singular curve, which has no genus here
    assert not info.degenerate and info.curve_genus is None


def test_simple_branch_divisor_gives_genus():
    # phi = [[0, P], [1, 0]] with deg-4 squarefree P: disc = 4P, genus 1
    P = np.array([-1.0, 0.0, 0.0, 0.0, 1.0], dtype=complex)  # z^4 - 1
    phi = Rank2TwistedHiggs(1, 0, (([0], P), ([1], [0])))
    info = curve_info(phi)
    assert info.smooth
    assert info.curve_genus == 1
    assert len(info.branch_points) == 4
    roots = sorted((complex(bp.point).real, complex(bp.point).imag) for bp in info.branch_points)
    assert np.allclose(roots, [(-1, 0), (0, -1), (0, 1), (1, 0)], atol=1e-8)


def test_branch_point_at_infinity_from_low_degree():
    # deg-3 squarefree P: 3 finite branch points + 1 at infinity, genus 1
    P = np.array([0.0, -1.0, 0.0, 1.0], dtype=complex)  # z^3 - z
    phi = Rank2TwistedHiggs(1, 0, (([0], P), ([1], [0])))
    info = curve_info(phi)
    assert info.smooth and info.curve_genus == 1
    inf_bp = [bp for bp in info.branch_points if bp.point == INFINITY]
    assert len(inf_bp) == 1 and inf_bp[0].multiplicity == 1


def test_genus_two_curve():
    # deg-6 squarefree discriminant over genus-2 caps: genus (6/2 - 1) = 2
    P = npoly.polyfromroots([0.0, 1.0, -1.0, 2.0, -2.0, 3.0]).astype(complex)
    phi = Rank2TwistedHiggs(2, 0, (([0], P), ([1], [0])))
    info = curve_info(phi)
    assert info.smooth and info.curve_genus == 2


def test_identically_zero_discriminant_reports_degenerate():
    # nilpotent constant field
    phi = Rank2TwistedHiggs(1, 1, (([0], [1]), ([0], [0])))
    info = curve_info(phi)
    assert info.degenerate
    assert info.branch_points == ()
    assert info.smooth is False
    assert info.curve_genus is None


def test_branch_points_agree_with_curve_info_on_rounding_level_discriminant():
    # the discriminant (about 0.4) is rounding noise next to the entries'
    # product scale of 1e12, so curve_info calls the curve degenerate and
    # finds no divisor, not one at infinity
    phi = Rank2TwistedHiggs(1, 1, (([1e6], [1e6]), ([-1e6 + 1e-7], [-1e6])))
    info = curve_info(phi)
    assert info.degenerate and info.branch_points == ()
    assert (info.smooth, info.curve_genus) == (False, None)


def near_diagonal_field(e_squared):
    """The constant genus-1, k = 1 field ((1, e), (e, 1)): discriminant 4 e^2."""
    e = np.sqrt(e_squared)
    return Rank2TwistedHiggs(1, 1, (([1.0], [e]), ([e], [1.0])))


@pytest.mark.parametrize(
    "e_squared, degenerate", [(1e-13, True), (3e-13, True), (5e-13, True), (9e-13, True), (2e-12, False)]
)
def test_discriminant_the_root_finder_would_trim_away_is_degenerate(e_squared, degenerate):
    # 4 e^2 at or below the trim tolerance 1e-12 * 4 (the scale of a1^2) is
    # degenerate, also above the product-scale threshold 1e-12 * 1; above
    # it, the discriminant is a nonzero constant and infinity carries all 4
    info = curve_info(near_diagonal_field(e_squared))
    points = () if degenerate else (BranchPoint(point=INFINITY, multiplicity=4),)
    assert (info.degenerate, info.branch_points, info.smooth, info.curve_genus) == (degenerate, points, False, None)


def test_toy_field_branch_set():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        while min(abs(m), abs(m - 1)) < 0.2:
            m = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(u), abs(u - 1), abs(u - m)) < 1e-2:
            continue
        point = ToyModelPoint(m=m, u=u, B=1.0)
        info = curve_info(toy_to_twisted(point))
        assert info.smooth and info.curve_genus == 1
        finite = sorted(
            (bp.point for bp in info.branch_points if bp.point != INFINITY),
            key=lambda w: (w.real, w.imag),
        )
        expected = sorted([0.0 + 0j, 1.0 + 0j, m], key=lambda w: (w.real, w.imag))
        assert np.allclose(finite, expected, atol=1e-7)
        assert any(bp.point == INFINITY for bp in info.branch_points)


def test_toy_field_degenerates_on_coordinate_hyperplanes():
    for u in (0.0, 1.0, 3.0):
        point = ToyModelPoint(m=3.0, u=u, B=1.0)
        info = curve_info(toy_to_twisted(point))
        assert info.degenerate


def test_toy_field_scale_invariance_of_branch_points():
    point_a = ToyModelPoint(m=2.5, u=-1.0, B=1.0)
    point_b = ToyModelPoint(m=2.5, u=-1.0, B=100.0)
    pts_a = [bp.point for bp in curve_info(toy_to_twisted(point_a)).branch_points]
    pts_b = [bp.point for bp in curve_info(toy_to_twisted(point_b)).branch_points]
    finite_a = [p for p in pts_a if p != INFINITY]
    finite_b = [p for p in pts_b if p != INFINITY]
    assert np.allclose(sorted(p.real for p in finite_a), sorted(p.real for p in finite_b), atol=1e-8)


def test_tiny_coefficient_noise_is_not_structure():
    # a discriminant that is "almost" degree 4 but whose top coefficient is
    # pure rounding junk must be treated as degree 3
    # (the divisor is taken here from the root finder curve_info runs, at
    # its zero tolerance)
    from hyperband.spectral_curve import TRIM_REL, _disc_scale, _roots_with_multiplicity

    a1 = np.zeros(1, dtype=complex)
    disc = np.array([0.0, -1.0, 0.0, 1.0, 1e-17], dtype=complex)
    a2 = -disc / 4.0
    finite, inf_mult = _roots_with_multiplicity(disc, 1, TRIM_REL * _disc_scale(a1, a2, disc))
    assert len(finite) == 3 and all(m == 1 for _, m in finite)
    assert inf_mult == 1


def test_curve_report_layout():
    point = ToyModelPoint(m=3.0, u=2.0, B=1.0)
    report = curve_report(curve_info(toy_to_twisted(point)))
    assert report["hyperband_spectral_curve"] == 1
    assert report["genus"] == 1
    markers = [bp["point"] for bp in report["branch_points"]]
    assert "infinity" in markers
    assert all(m == "infinity" or isinstance(m, list) for m in markers)


def test_higgs_json_round_trip():
    rng = np.random.default_rng(2)
    phi = Rank2TwistedHiggs(
        2,
        1,
        (
            (rng.normal(size=3), rng.normal(size=4) * 1j),
            (rng.normal(size=2), rng.normal(size=3)),
        ),
    )
    again = higgs_from_json(higgs_to_json(phi))
    assert again.genus == phi.genus and again.k == phi.k
    for i in range(2):
        for j in range(2):
            assert np.array_equal(again.entries[i][j], phi.entries[i][j])


def test_higgs_json_rejects_bad_document():
    with pytest.raises(ValueError):
        higgs_from_json({"hyperband_higgs": 2, "genus": 1, "k": 0, "entries": []})


#: the start of the error for an entry that is not a JSON number or pair
NOT_A_NUMBER = r"must be a number or \[re, im\] in the float range, got"


def _higgs_document(coefficient):
    """A genus-1, k=0 twisted-field document whose (1,1) entry is [coefficient]."""
    return {"hyperband_higgs": 1, "genus": 1, "k": 0, "entries": [[[coefficient], [0.0]], [[0.0], [0.0]]]}


@pytest.mark.parametrize(
    "data, error",
    [
        ([1, 2], r"not a higgs document \(expected hyperband_higgs: 1\)"),
        ({k: v for k, v in _higgs_document(1.0).items() if k != "k"}, "higgs document has no 'k'"),
        (_higgs_document("10"), rf"a coefficient in entries {NOT_A_NUMBER} '10'"),
        (_higgs_document(True), rf"a coefficient in entries {NOT_A_NUMBER} True"),
        (_higgs_document(None), rf"a coefficient in entries {NOT_A_NUMBER} None"),
    ],
)
def test_higgs_json_refuses_non_documents_and_non_number_coefficients(data, error):
    assert higgs_from_json(_higgs_document(10)).entries[0][0].tolist() == [10]
    with pytest.raises(ValueError, match=error):
        higgs_from_json(data)


@pytest.mark.parametrize("genus, k", [(1.5, 0), (1, True), (True, 0)])
def test_feasibility_refuses_fractional_and_boolean_counts(genus, k):
    with pytest.raises(ValueError, match="must be an integer"):
        feasibility(genus, k)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_coefficients_are_refused(bad):
    with pytest.raises(ValueError, match="^entry coefficients must be finite$"):
        Rank2TwistedHiggs(1, 1, (([0, bad], [1]), ([0], [0])))


@pytest.mark.parametrize(
    "phi",
    [
        toy_to_twisted(ToyModelPoint(m=3.0, u=2.0, B=1.0)),  # smooth, genus 1
        Rank2TwistedHiggs(1, 1, (([1.0, 2.0], [0]), ([0], [-1.0, -2.0]))),  # double root
        Rank2TwistedHiggs(1, 1, (([0], [1]), ([0], [0]))),  # degenerate
    ],
    ids=["smooth", "singular", "degenerate"],
)
def test_curve_info_builds_one_info(monkeypatch, phi):
    from hyperband import spectral_curve

    built = []

    def counted(**fields):
        built.append(fields)
        return SpectralCurveInfo(**fields)

    monkeypatch.setattr(spectral_curve, "SpectralCurveInfo", counted)
    info = curve_info(phi)
    assert len(built) == 1
    # the record stores the divisor and derives the rest from it
    assert set(built[0]) == {"base_genus", "k", "a1", "a2", "discriminant", "branch_points"}
    assert info.degenerate == (info.branch_points == ())
    assert info.curve_genus == (info.base_genus if info.smooth else None)


def per_point_cayley_oracle(phi, a1, a2):
    """The check as a loop over five fresh scalar draws of default_rng(0)."""
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        M = phi.evaluate(z)
        t1 = complex(npoly.polyval(z, a1)) if a1.size else 0.0
        t2 = complex(npoly.polyval(z, a2)) if a2.size else 0.0
        residual = M @ M - t1 * M + t2 * np.eye(2)
        scale = max(1.0, float(np.linalg.norm(M)) ** 2)
        if np.linalg.norm(residual) > 1e-10 * scale:
            raise NumericalCheckFailure(
                f"Cayley-Hamilton residual {np.linalg.norm(residual):.3e} at z={z}"
            )


def random_field(rng, genus, k):
    caps = ((genus + 1, 2 * (genus + 1 - k)), (2 * k, genus + 1))
    entries = tuple(
        tuple(rng.normal(size=cap + 1) + 1j * rng.normal(size=cap + 1) for cap in row)
        for row in caps
    )
    return Rank2TwistedHiggs(genus, k, entries)


def test_cayley_points_are_the_per_call_draws():
    from hyperband import spectral_curve

    rng = np.random.default_rng(0)
    drawn = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(5)]
    assert spectral_curve._cayley_points().tolist() == drawn
    assert spectral_curve._cayley_points() is spectral_curve._cayley_points()


@pytest.mark.parametrize("seed", range(12))
def test_cayley_hamilton_check_matches_per_point_loop(seed):
    from hyperband import spectral_curve

    rng = np.random.default_rng(seed)
    genus = int(rng.integers(0, 4))
    phi = random_field(rng, genus, int(rng.integers(0, genus + 2)))
    a1, a2 = char_poly(phi)
    failures = 0
    for which in range(2):
        for size in (0.0, 1e-14, 1e-6, 1.0):
            polys = [a1, a2]
            polys[which] = polys[which] + size * rng.normal(size=polys[which].size)
            try:
                per_point_cayley_oracle(phi, *polys)
                expected = None
            except NumericalCheckFailure as exc:
                expected = str(exc)
            if expected is None:
                spectral_curve._cayley_hamilton_check(phi, *polys)
            else:
                failures += 1
                with pytest.raises(NumericalCheckFailure) as caught:
                    spectral_curve._cayley_hamilton_check(phi, *polys)
                assert str(caught.value) == expected
    # perturbed a1 and a2 fail the check: at least the unit perturbations
    assert failures >= 2


def test_cayley_hamilton_check_with_zero_trace():
    from hyperband import spectral_curve

    # a1 vanishes identically, and char_poly stores it as an empty array
    phi = Rank2TwistedHiggs(1, 1, (([1.0, 2.0], [1.0]), ([3.0], [-1.0, -2.0])))
    a1, a2 = char_poly(phi)
    assert a1.size == 0
    spectral_curve._cayley_hamilton_check(phi, a1, a2)
    with pytest.raises(NumericalCheckFailure, match="Cayley-Hamilton residual"):
        spectral_curve._cayley_hamilton_check(phi, np.array([1e-3]), a2)


def shaped_field(rng, genus, k, kind):
    """A field of the given kind: random to its caps, random below them,
    diag(p, -p) (every branch point double) or nilpotent (degenerate)."""
    caps = ((genus + 1, 2 * (genus + 1 - k)), (2 * k, genus + 1))
    if kind == "below-caps":
        caps = tuple(tuple(int(rng.integers(0, cap + 1)) for cap in row) for row in caps)
    entries = [[rng.normal(size=cap + 1) + 1j * rng.normal(size=cap + 1) for cap in row] for row in caps]
    if kind == "square":
        entries = [[entries[0][0], [0.0]], [[0.0], -entries[0][0]]]
    elif kind == "nilpotent":
        entries = [[[0.0], entries[0][1]], [[0.0], [0.0]]]
    return Rank2TwistedHiggs(genus, k, entries)


@settings(max_examples=200)
@given(
    genus=st.integers(0, 3),
    data=st.data(),
    kind=st.sampled_from(["random", "below-caps", "square", "nilpotent"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_record_derives_degeneracy_and_genus_from_its_divisor(genus, data, kind, seed):
    k = data.draw(st.integers(0, genus + 1), label="k")
    info = curve_info(shaped_field(np.random.default_rng(seed), genus, k, kind))
    assert info.degenerate == (info.branch_points == ())
    if not info.degenerate:
        assert sum(bp.multiplicity for bp in info.branch_points) == 2 * genus + 2
    assert (info.curve_genus == genus) == info.smooth
    assert info.curve_genus is None or info.smooth
    if kind == "nilpotent":
        assert info.degenerate
    if kind == "square":
        assert not info.smooth


# ---------------------------------------------------------------------------
# input refusals: each row a call, its exception type and its whole message
# ---------------------------------------------------------------------------

REFUSALS = [
    pytest.param(
        lambda: Rank2TwistedHiggs(1, 1, (([[1.0]], [1.0]), ([1.0], [1.0]))), ValueError,
        "polynomials are 1-d ascending coefficient arrays", id="entry-ndim",
    ),
    pytest.param(
        lambda: Rank2TwistedHiggs(1, 3, (([1.0], [1.0]), ([1.0], [1.0]))), ValueError,
        "(genus=1, k=3) is infeasible: need 0 <= k <= genus+1", id="infeasible",
    ),
    pytest.param(
        lambda: Rank2TwistedHiggs(1, 1, (([1.0],), ([1.0], [1.0]))), ValueError,
        "entries must be a 2x2 grid of polynomials", id="grid-shape",
    ),
    # B P_p q_p overflows in the cleared toy field
    pytest.param(
        lambda: toy_to_twisted(ToyModelPoint(m=2.0, u=0.3, B=1e308)), ValueError,
        "entry coefficients must be finite", id="toy-field-overflow",
    ),
    # a2 = p11 p22 - p12 p21 overflows
    pytest.param(
        lambda: curve_info(Rank2TwistedHiggs(1, 1, (([1e155], [1.0]), ([1.0], [1e155])))), NumericalCheckFailure,
        "the characteristic polynomial overflows: a1, a2 or the discriminant a1^2 - 4 a2 "
        "has a coefficient past the float range", id="char-poly-overflow",
    ),
    # |a1|^2 passes the float range while the complex a1^2 does not
    pytest.param(
        lambda: curve_info(Rank2TwistedHiggs(1, 1, (([1.5e154 * (1 + 1j)], [0.0]), ([0.0], [0.0])))),
        NumericalCheckFailure,
        "the characteristic polynomial overflows: a1, a2 or the discriminant a1^2 - 4 a2 "
        "has a coefficient past the float range", id="disc-scale-overflow",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_spectral_curve_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
