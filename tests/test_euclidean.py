"""Flat genus-1 reference computations."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband.errors import NumericalCheckFailure
from hyperband.euclidean import (
    EuclideanLattice,
    complex_dispersion,
    empty_lattice_bands,
    fold,
    modular_lambda,
    reciprocal,
    two_torsion_points,
)


def test_lattice_requires_upper_half_plane():
    with pytest.raises(ValueError):
        EuclideanLattice(1.0 - 1j)
    with pytest.raises(ValueError):
        EuclideanLattice(2.0)


@pytest.mark.parametrize(
    "tau",
    [complex(np.nan, 1), complex(0, np.inf), complex(-np.inf, 1), complex(0, np.nan)],
)
def test_lattice_and_momentum_must_be_finite(tau):
    with pytest.raises(ValueError, match="tau must be finite"):
        EuclideanLattice(tau)
    lattice = EuclideanLattice(1j)
    k = (tau.real, tau.imag)
    with pytest.raises(ValueError, match="k must be finite"):
        empty_lattice_bands(lattice, k, 3)
    with pytest.raises(ValueError, match="k must be finite"):
        empty_lattice_bands(lattice, tau, 3)


@pytest.mark.parametrize(
    "tau",
    [
        complex(0, 1e-320),  # |tau|^2 underflows to 0: tau / |tau|^2 divided by zero
        complex(1e-170, 1e-170),
        complex(1e300, 1),  # |tau|^2 overflows
        complex(0, 1e155),
        complex(1, 1e-320),  # the solve's 1 / Im tau overflows
        complex(1e300, 1e-10),  # and its Re tau / Im tau
    ],
)
def test_lattice_refuses_a_tau_whose_reciprocal_basis_leaves_the_float_range(tau):
    with pytest.raises(ValueError, match="tau out of range"):
        EuclideanLattice(tau)


@pytest.mark.parametrize("tau", [complex(0, 1e-150), complex(1e150, 1e-150), complex(-1e150, 1e150)])
def test_lattice_accepts_a_tau_whose_reciprocal_basis_is_finite(tau):
    W = reciprocal(EuclideanLattice(tau)).basis
    assert np.isfinite(W).all() and np.isfinite(reciprocal(EuclideanLattice(tau)).formula_discrepancy)


@pytest.mark.parametrize(
    "k, n_bands, shown",
    [
        ((0.0, 0.0), 10**8, "about 6.4 GB of reciprocal vectors for 100000000 bands"),
        ((0.0, 0.0), 10**30, "about 10^32 bytes of reciprocal vectors for about 10^30 bands"),
        ((0.0, 0.0), 10**400, "about 10^402 bytes of reciprocal vectors for about 10^400 bands"),
    ],
)
def test_oversized_window_is_refused_before_it_is_built(k, n_bands, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        with pytest.raises(ValueError) as info:
            empty_lattice_bands(EuclideanLattice(1j), k, n_bands)
    assert str(info.value) == f"empty-lattice window too large: {shown}; the limit is 1.1 GB"


@pytest.mark.parametrize(
    "tau, k, shown",
    [
        (1j, (1e300, 0.0), "[1e+300, 0.0]"),  # |k|^2 overflows
        (1j, (1e20, 0.0), "[1e+20, 0.0]"),
        (1j, (0.0, 2.0**16), "[0.0, 65536.0]"),  # |c_0| |W_0| + |c_1| |W_1| reaches 2^16
        (0.3 + 1.1j, (1e8, 1e8), "[100000000.0, 140000000.0]"),  # energies off by 7 tie tolerances
        (1e20j, (0.0, 1.0), "[0.0, 1e+20]"),  # |W_1| = 1e-20: only the 2^52 rule refuses it
        (1e150j, (1e300, 1e300), "[1e+300, inf]"),  # lattice.basis @ k overflows
    ],
)
def test_k_too_far_out_to_resolve_ties_is_refused(tau, k, shown):
    # past 2^52 the window's consecutive coordinates are no longer distinct
    # floats; past the 2^16 rule the rounding of G nears the tie tolerance
    with np.errstate(all="raise"):  # no overflow on the way
        with pytest.raises(ValueError) as info:
            empty_lattice_bands(EuclideanLattice(tau), k, 8)
    assert str(info.value) == f"k out of range: its lattice coordinates {shown} are too far out to resolve ties"


def test_k_just_inside_the_tie_rule_is_served():
    bands = empty_lattice_bands(EuclideanLattice(1j), (0.25, 2.0**16 - 1), 4)
    assert bands.groups == ((0.0625, 1), (0.5625, 1), (1.0625, 2))


def _exact_groups(lattice, k, n_bands, bound):
    """The n lowest |k - G|^2 and their tie groups, in exact rational
    arithmetic on the float k and reciprocal basis, over a window about k
    that holds every G with |k - G|^2 <= bound + 1."""
    W = reciprocal(lattice).basis
    centre = np.rint(lattice.basis @ np.asarray(k))
    sigma_min = float(np.linalg.svd(W, compute_uv=False)[-1])
    shift = float(np.linalg.norm(np.asarray(k) - centre @ W))
    half_width = math.ceil((shift + math.sqrt(bound + 1.0)) / sigma_min) + 1
    (w00, w01), (w10, w11) = [[Fraction(float(v)) for v in row] for row in W]
    kx, ky = map(Fraction, k)
    exact = []
    for m in range(int(centre[0]) - half_width, int(centre[0]) + half_width + 1):
        for n in range(int(centre[1]) - half_width, int(centre[1]) + half_width + 1):
            dx, dy = kx - m * w00 - n * w10, ky - m * w01 - n * w11
            exact.append(dx * dx + dy * dy)
    exact.sort()
    tie_tol = Fraction(1e-9 * max(1.0, bound))
    groups = []
    for value in exact[:n_bands]:
        if groups and abs(value - groups[-1][0]) <= tie_tol:
            continue
        groups.append((value, sum(1 for e in exact if abs(e - value) <= tie_tol)))
    return exact[:n_bands], groups, tie_tol


@settings(max_examples=30)
@given(
    st.floats(-1.0, 1.0),
    st.floats(0.5, 2.0),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.25, 0.99),
    st.sampled_from([(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.25, -0.375)]),
    st.integers(1, 12),
)
def test_far_k_on_a_skew_lattice_matches_exact_energies(re_tau, im_tau, angle, size, offset, n_bands):
    # k = (c + offset) @ W with |c_0| |W_0| + |c_1| |W_1| up to 0.99 2^16;
    # the half-lattice offsets put exact ties on the cell edges
    lattice = EuclideanLattice(complex(re_tau, im_tau))
    W = reciprocal(lattice).basis
    direction = np.array([math.cos(angle), math.sin(angle)])
    centre = np.rint(size * 2.0**16 * direction / (np.abs(direction) @ np.linalg.norm(W, axis=1)))
    k = tuple(((centre + offset) @ W).tolist())
    bands = empty_lattice_bands(lattice, k, n_bands)
    exact, groups, tie_tol = _exact_groups(lattice, k, n_bands, float(bands.energies[-1]))
    assert all(abs(Fraction(e) - x) <= tie_tol / 10 for e, x in zip(bands.energies.tolist(), exact))
    assert [mult for _, mult in bands.groups] == [mult for _, mult in groups]
    assert all(abs(Fraction(e) - x) <= tie_tol / 10 for (e, _), (x, _) in zip(bands.groups, groups))


@pytest.mark.parametrize("n_bands", [2.5, True, "3"])
def test_empty_lattice_bands_refuses_non_integer_counts(n_bands):
    with pytest.raises(ValueError, match="n_bands must be an integer"):
        empty_lattice_bands(EuclideanLattice(1j), 0.0, n_bands)


def test_reciprocal_duality_pairing():
    rng = np.random.default_rng(0)
    for _ in range(20):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3.0))
        lat = EuclideanLattice(tau)
        W = reciprocal(lat).basis
        G = lat.basis
        assert np.allclose(W @ G.T, np.eye(2), atol=1e-12)


def test_reciprocal_square_lattice():
    W = reciprocal(EuclideanLattice(1j)).basis
    assert np.allclose(W, np.eye(2))


def test_reciprocal_formula_agrees_for_rectangular_tau():
    rng = np.random.default_rng(1)
    for _ in range(10):
        tau = complex(0.0, rng.uniform(0.2, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = reciprocal(EuclideanLattice(tau))
        assert rec.formula_discrepancy < 1e-9


def test_reciprocal_formula_discrepancy_reported_for_skew_tau():
    # the closed form is the dual basis (1, -Re tau / Im tau), (0, 1 / Im tau);
    # its discrepancy is relative to W's largest entry, so the 2.0 absolute
    # difference at tau = 1e8 + 1e-8 i (W's entries reach 1e16) is 2e-16
    for tau in (0.5 + 1.0j, 0.3 + 1.1j, -1.7 + 0.2j, complex(1e8, 1e-8)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = reciprocal(EuclideanLattice(tau))
        assert rec.formula_discrepancy <= 1e-15, tau
        # the dual pairing holds
        W, G = rec.basis, EuclideanLattice(tau).basis
        assert np.allclose(W @ G.T, np.eye(2), atol=1e-12 * np.abs(W).max() * np.abs(G).max())


def test_empty_lattice_gamma_point_square():
    bands = empty_lattice_bands(EuclideanLattice(1j), (0.0, 0.0), 9)
    # |m w1 + n w2|^2 on the square lattice: 0, then 1 four times, 2 four times
    assert np.allclose(bands.energies, [0, 1, 1, 1, 1, 2, 2, 2, 2], atol=1e-12)
    assert bands.groups[0] == (0.0, 1)
    assert bands.groups[1][1] == 4
    assert bands.groups[2][1] == 4


def test_empty_lattice_multiplicity_counts_beyond_window():
    # the n-th smallest value must count ALL lattice vectors at that energy,
    # even those just outside the first n
    bands = empty_lattice_bands(EuclideanLattice(1j), (0.0, 0.0), 2)
    assert bands.groups[1] == (1.0, 4)


def _groups_by_full_scan(energies, kept, tie_tol):
    """The multiplicity loop empty_lattice_bands used to run: one pass over `kept` per group."""
    groups = []
    for value in energies:
        if groups and abs(value - groups[-1][0]) <= tie_tol:
            continue
        groups.append((float(value), int(np.sum(np.abs(kept - value) <= tie_tol))))
    return tuple(groups)


@pytest.mark.parametrize(
    "tau, k",
    [
        (1j, (0.0, 0.0)),  # square: fourfold shells
        (1j, (0.5, 0.5)),
        (0.3 + 1.1j, (0.3, -0.2)),  # skew: nearly every energy its own group
        (0.5 + 0.75**0.5 * 1j, (0.0, 0.0)),  # hexagonal: sixfold shells
        (0.5 + 0.75**0.5 * 1j, (0.1, 0.2)),
    ],
)
@pytest.mark.parametrize("n_bands", [1, 5, 26, 400])
def test_band_groups_match_a_full_scan_of_the_kept_energies(tau, k, n_bands):
    lattice = EuclideanLattice(tau)
    bands = empty_lattice_bands(lattice, k, n_bands)
    # every lattice vector out to well past the selected energies
    W = reciprocal(lattice).basis
    span = np.arange(-60, 61)
    G = (span[:, None, None] * W[0] + span[None, :, None] * W[1]).reshape(-1, 2)
    diff = np.asarray(k)[None, :] - G
    energies = np.sort(np.einsum("ij,ij->i", diff, diff))
    bound = bands.energies[-1]
    tie_tol = 1e-9 * max(1.0, float(bound))
    assert np.array_equal(energies[:n_bands], bands.energies)
    kept = energies[energies <= bound + tie_tol]
    assert bands.groups == _groups_by_full_scan(bands.energies, kept, tie_tol)


def _bands_from_a_growing_window(lattice, k, n_bands):
    """The window search empty_lattice_bands used to run: from half-width 2,
    one step at a time until the window holds n_bands vectors."""
    W = reciprocal(lattice).basis
    k = np.asarray(k, dtype=float)
    sigma_min = float(np.linalg.svd(W, compute_uv=False)[-1])

    def window_energies(half_width):
        span = np.arange(-half_width, half_width + 1)
        mm, nn = np.meshgrid(span, span, indexing="ij")
        diff = k[None, :] - (mm.reshape(-1, 1) * W[0] + nn.reshape(-1, 1) * W[1])
        return np.sort(np.einsum("ij,ij->i", diff, diff))

    half_width = 2
    while True:
        energies = window_energies(half_width)
        if energies.size < n_bands:
            half_width += 1
            continue
        bound = energies[n_bands - 1]
        needed = int(np.ceil((float(np.linalg.norm(k)) + float(np.sqrt(bound))) / sigma_min)) + 1
        if needed <= half_width:
            break
        half_width = needed
    tie_tol = 1e-9 * max(1.0, float(bound))
    kept = energies[energies <= bound + tie_tol]
    return energies[:n_bands], _groups_by_full_scan(energies[:n_bands], kept, tie_tol)


@settings(max_examples=60)
@given(
    st.floats(-1.0, 1.0),
    st.floats(0.3, 3.0),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.one_of(st.integers(1, 30), st.integers(1, 3000)),
)
def test_first_window_sized_from_n_bands_gives_the_same_bands(re_tau, im_tau, k, n_bands):
    lattice = EuclideanLattice(complex(re_tau, im_tau))
    bands = empty_lattice_bands(lattice, k, n_bands)
    energies, groups = _bands_from_a_growing_window(lattice, k, n_bands)
    assert bands.energies.tobytes() == energies.tobytes()
    assert bands.groups == groups



def _bands_from_an_origin_window(lattice, k, n_bands):
    """The window search empty_lattice_bands ran before it centred its window
    on k: a window about the origin, whose reach grows with |k|."""
    W = reciprocal(lattice).basis
    k = np.asarray(k, dtype=float)
    sigma_min = float(np.linalg.svd(W, compute_uv=False)[-1])

    def window_energies(half_width):
        span = np.arange(-half_width, half_width + 1)
        mm, nn = np.meshgrid(span, span, indexing="ij")
        diff = k[None, :] - (mm.reshape(-1, 1) * W[0] + nn.reshape(-1, 1) * W[1])
        return np.sort(np.einsum("ij,ij->i", diff, diff))

    reach, half_width = max(2, (math.isqrt(n_bands - 1) + 1) // 2), 0
    while reach > half_width:
        half_width = math.ceil(reach)
        energies = window_energies(half_width)
        bound = energies[n_bands - 1]
        reach = float(np.ceil((float(np.linalg.norm(k)) + float(np.sqrt(bound))) / sigma_min)) + 1.0
    tie_tol = 1e-9 * max(1.0, float(bound))
    kept = energies[energies <= bound + tie_tol]
    return energies[:n_bands], _groups_by_full_scan(energies[:n_bands], kept, tie_tol)


@settings(max_examples=60)
@given(
    st.floats(-1.5, 1.5),
    st.floats(0.2, 3.0),
    st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
    st.integers(1, 200),
    st.booleans(),
)
def test_window_about_k_gives_the_origin_windows_bands(re_tau, im_tau, k, n_bands, half_integer):
    # each vector keeps its m W_0 + n W_1 expression, so every energy keeps its bits
    if half_integer:  # k on a lattice point or a cell edge: ties, and rint's halfway cases
        k = tuple(round(2 * v) / 2 for v in k)
    lattice = EuclideanLattice(complex(re_tau, im_tau))
    bands = empty_lattice_bands(lattice, k, n_bands)
    energies, groups = _bands_from_an_origin_window(lattice, k, n_bands)
    assert bands.energies.tobytes() == energies.tobytes()
    assert bands.groups == groups

def test_two_torsion_energies_square_lattice():
    lat = EuclideanLattice(1j)
    pts = two_torsion_points(lat)
    expected = {
        (0.0, 0.0): (0.0, 1),
        (0.5, 0.0): (0.25, 2),
        (0.0, 0.5): (0.25, 2),
        (0.5, 0.5): (0.5, 4),
    }
    for p in pts:
        key = (round(p[0], 12), round(p[1], 12))
        e, mult = expected[key]
        bands = empty_lattice_bands(lat, p, 4)
        assert abs(bands.groups[0][0] - e) <= 1e-12
        assert bands.groups[0][1] == mult


@pytest.mark.parametrize("tau", [1j, 2.0j, 0.3 + 1.1j, -0.7 + 0.4j])
def test_two_torsion_points_solve_the_reciprocal_once(monkeypatch, tau):
    from hyperband import euclidean

    calls = []
    original = euclidean.reciprocal
    monkeypatch.setattr(euclidean, "reciprocal", lambda lattice: calls.append(lattice) or original(lattice))
    lattice = EuclideanLattice(tau)
    points = two_torsion_points(lattice)
    assert len(calls) == 1
    W = original(lattice).basis
    expected = [fold(p, lattice) for p in (np.zeros(2), W[0] / 2, W[1] / 2, (W[0] + W[1]) / 2)]
    assert [p.tobytes() for p in points] == [p.tobytes() for p in expected]


def test_reciprocal_is_solved_and_reported_once_per_lattice(monkeypatch):
    # a solve off by 1e-6 relative is reported against the closed form
    solves = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: solves.append(1) or inv(a) * (1 + 1e-6))
    lattice = EuclideanLattice(0.3 + 1.1j)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = reciprocal(lattice)
        empty_lattice_bands(lattice, (0.1, 0.2), 3)
        two_torsion_points(lattice)
        assert reciprocal(lattice) is first
    assert len(solves) == 1
    assert len(caught) == 1 and "closed-form reciprocal basis" in str(caught[0].message)
    # the warning names the line that asked for the reciprocal first
    assert caught[0].filename == __file__
    # a new lattice object solves again
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert reciprocal(EuclideanLattice(0.3 + 1.1j)) is not first
    assert len(solves) == 2 and len(caught) == 1


def test_fold_reduces_dual_coordinates():
    rng = np.random.default_rng(2)
    for _ in range(20):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        lat = EuclideanLattice(tau)
        k = rng.uniform(-3, 3, size=2)
        kf = fold(k, lat)
        # k - kf is a reciprocal lattice vector: integer dual coordinates
        coords = lat.basis @ (k - kf)
        assert np.allclose(coords, np.round(coords), atol=1e-9)
        folded_coords = lat.basis @ kf
        assert np.all(folded_coords > -1e-12) and np.all(folded_coords < 1.0 + 1e-12)


def test_dispersion_real_momentum_is_squared_norm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        kx, ky = rng.uniform(-5, 5, size=2)
        d = complex_dispersion(kx, ky)
        assert abs(d.energy - (kx * kx + ky * ky)) <= 1e-14 * max(1.0, kx * kx + ky * ky)
        assert d.energy.imag == 0.0


def test_dispersion_complex_momentum_two_forms_agree():
    rng = np.random.default_rng(4)
    for _ in range(100):
        kx = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ky = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        d = complex_dispersion(kx, ky)
        assert d.energy == d.split_energy or abs(d.energy - d.split_energy) <= 1e-14 * abs(
            d.energy
        )
        # direct identity: E = |Re k|^2 - |Im k|^2 + 2i Re k . Im k
        kr, ki = d.k_real, d.k_imag
        assert abs(d.energy.real - (kr @ kr - ki @ ki)) <= 1e-12
        assert abs(d.energy.imag - 2.0 * (kr @ ki)) <= 1e-12


# ---------------------------------------------------------------------------
# modular lambda
# ---------------------------------------------------------------------------


def test_lambda_square_torus_is_half():
    assert abs(modular_lambda(1j) - 0.5) <= 1e-12


def test_lambda_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    for _ in range(15):
        tau = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.5))
        ours = modular_lambda(tau)
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        theta2 = mp.jtheta(2, 0, q)
        theta3 = mp.jtheta(3, 0, q)
        reference = complex((theta2 / theta3) ** 4)
        assert abs(ours - reference) <= 1e-10 * max(1.0, abs(reference))


def test_lambda_translation_identity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        assert abs(modular_lambda(tau + 2) - modular_lambda(tau)) <= 1e-10


def test_lambda_inversion_identity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        lhs = modular_lambda(-1.0 / tau)
        rhs = 1.0 - modular_lambda(tau)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_lambda_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        modular_lambda(-1j)


# ---------------------------------------------------------------------------
# input refusals: each row a call, its exception type and its whole message
# ---------------------------------------------------------------------------

REFUSALS = [
    pytest.param(
        lambda: empty_lattice_bands(EuclideanLattice(1j), (0.0, 0.0, 0.0), 1), ValueError,
        "k must be a real 2-vector (or a complex scalar read as one)", id="k-length",
    ),
    pytest.param(
        lambda: empty_lattice_bands(EuclideanLattice(1j), 0.0, 0), ValueError,
        "n_bands must be >= 1", id="no-bands",
    ),
    # q = exp(-pi 1e-7): the 10,000th theta2 term is still about 2e-14
    pytest.param(
        lambda: modular_lambda(1e-7j), NumericalCheckFailure,
        "theta2 series did not converge", id="lambda-near-real-axis",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_euclidean_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
