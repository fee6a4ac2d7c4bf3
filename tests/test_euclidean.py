"""Flat genus-1 reference computations."""

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
    # the closed form <1, tau/|tau|^2> coincides with the dual solve only when
    # tau is purely imaginary; the solve is authoritative either way
    import warnings

    rng = np.random.default_rng(1)
    for _ in range(10):
        tau = complex(0.0, rng.uniform(0.2, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = reciprocal(EuclideanLattice(tau))
        assert rec.formula_discrepancy < 1e-9


def test_reciprocal_formula_discrepancy_reported_for_skew_tau():
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = reciprocal(EuclideanLattice(0.5 + 1.0j))
    assert rec.formula_discrepancy > 1e-9
    assert len(caught) == 1
    # the dual pairing still holds exactly
    W, G = rec.basis, EuclideanLattice(0.5 + 1.0j).basis
    assert np.allclose(W @ G.T, np.eye(2), atol=1e-12)


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
    import warnings

    from hyperband import euclidean

    calls = []
    original = euclidean.reciprocal
    monkeypatch.setattr(euclidean, "reciprocal", lambda lattice: calls.append(lattice) or original(lattice))
    lattice = EuclideanLattice(tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # skew tau warns
        points = two_torsion_points(lattice)
        assert len(calls) == 1
        W = original(lattice).basis
        expected = [fold(p, lattice) for p in (np.zeros(2), W[0] / 2, W[1] / 2, (W[0] + W[1]) / 2)]
    assert [p.tobytes() for p in points] == [p.tobytes() for p in expected]


def test_reciprocal_is_solved_and_reported_once_per_lattice(monkeypatch):
    import warnings

    solves = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: solves.append(1) or inv(a))
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
