"""Abelian characters and finite-dimensional momenta."""

import numpy as np
import pytest

from hyperband.momenta import (
    AbelianMomentum,
    NonabelianMomentum,
    abelian_to_nonabelian,
    direct_sum,
    euclidean_character,
    momentum_from_json,
    momentum_to_json,
    split_complex,
    validate,
)


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_abelian_genus_and_unitary_flag():
    chi = AbelianMomentum(np.exp(1j * np.array([0.3, 1.1])))
    assert chi.genus == 1
    assert chi.unitary
    chi2 = AbelianMomentum(np.array([2.0, 0.5 + 0j]))
    assert not chi2.unitary


def test_abelian_rejects_zero_and_odd_length():
    with pytest.raises(ValueError):
        AbelianMomentum(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        AbelianMomentum(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        AbelianMomentum(np.array([1.0, np.inf]))


def test_abelian_stored_reciprocals_multiply_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        chi = AbelianMomentum(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert np.max(np.abs(chi.chi * chi.chi_inv - 1.0)) <= 1e-9


def test_abelian_rejects_inconsistent_reciprocals():
    with pytest.raises(ValueError):
        AbelianMomentum(np.array([2.0, 2.0 + 0j]), chi_inv=np.array([0.5, 0.7 + 0j]))


def test_abelian_relator_always_satisfied():
    # characters kill every commutator, whatever the entries
    rng = np.random.default_rng(1)
    chi = AbelianMomentum(rng.normal(size=6) + 1j * rng.normal(size=6))
    report = validate(chi)
    assert report.relator_residual == 0.0 or report.relator_residual < 1e-12
    assert report.irreducible  # 1-dimensional


def test_euclidean_character_unit_torus_values():
    # tau = i: chi = (e^{2 pi i kx}, e^{2 pi i ky})
    chi = euclidean_character((0.25, 0.5), 1j)
    assert np.allclose(chi.chi, [1j, -1.0])
    assert chi.unitary


def test_euclidean_character_general_tau():
    tau = 0.5 + 2.0j
    kx, ky = 0.3, -0.7
    chi = euclidean_character((kx, ky), tau)
    expected = [
        np.exp(2j * np.pi * kx),
        np.exp(2j * np.pi * (kx * tau.real + ky * tau.imag)),
    ]
    assert np.allclose(chi.chi, expected)


def test_euclidean_character_complex_momentum_leaves_torus():
    chi = euclidean_character((0.25 + 0.1j, 0.0), 1j)
    assert not chi.unitary
    assert np.allclose(chi.chi[0], np.exp(2j * np.pi * (0.25 + 0.1j)))


def test_split_complex_polar_factorization():
    rng = np.random.default_rng(2)
    chi = AbelianMomentum(rng.normal(size=4) + 1j * rng.normal(size=4))
    unit, moduli = split_complex(chi)
    assert unit.unitary
    assert np.all(moduli > 0)
    assert np.allclose(unit.chi * moduli, chi.chi)


def test_nonabelian_requires_relator():
    # rho(a) and rho(b) that do not commute cannot define a genus-1 momentum
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    b = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        NonabelianMomentum((a, b))


def test_nonabelian_accepts_commuting_pair():
    a = np.diag([1.0, -1.0]).astype(complex)
    b = np.diag([1j, 2.0]).astype(complex)
    rho = NonabelianMomentum((a, b))
    assert rho.rank == 2
    assert rho.genus == 1
    assert not rho.unitary  # b is not unitary
    report = validate(rho)
    assert report.relator_residual < 1e-12
    assert report.commutant_dimension == 2
    assert not report.irreducible


def test_nonabelian_unitary_flag():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 3)
    # a single unitary commutes with itself: (u, u) satisfies the relator
    rho = NonabelianMomentum((u, u))
    assert rho.unitary


def test_nonabelian_stored_inverses_are_used():
    a = np.diag([2.0, 4.0]).astype(complex)
    b = np.eye(2, dtype=complex)
    a_inv = np.diag([0.5, 0.25]).astype(complex)
    rho = NonabelianMomentum((a, b), (a_inv, b))
    assert np.array_equal(rho.rho_inv[0], a_inv)


def test_nonabelian_rejects_singular():
    a = np.zeros((2, 2), dtype=complex)
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        NonabelianMomentum((a, np.eye(2, dtype=complex)))


def test_direct_sum_blocks_and_exact_inverses():
    chi1 = abelian_to_nonabelian(AbelianMomentum(np.array([2.0 + 0j, 1j])))
    chi2 = abelian_to_nonabelian(AbelianMomentum(np.array([0.5 + 0j, -1j])))
    s = direct_sum(chi1, chi2)
    assert s.rank == 2
    assert s.rho[0][0, 0] == 2.0 and s.rho[0][1, 1] == 0.5
    # inverse blocks are copied, not recomputed
    assert s.rho_inv[0][0, 0] == chi1.rho_inv[0][0, 0]
    assert s.rho_inv[0][1, 1] == chi2.rho_inv[0][0, 0]


def test_commutant_detects_irreducibility():
    # the 2-sheet induced momentum rho(a) = swap, rho(b) = diag(1, -1)
    # has commutant = scalars
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    b = np.diag([1.0, -1.0]).astype(complex)
    # check the relator first: a b a^-1 b^-1 = -I? No: swap*diag*swap = diag flipped,
    # so they do not commute; use the anti-diagonal pair that does.
    with pytest.raises(ValueError):
        NonabelianMomentum((a, b))
    rho = NonabelianMomentum((a, a))
    report = validate(rho)
    assert report.commutant_dimension == 2  # commutant of a single swap


def test_momentum_json_round_trip_abelian():
    chi = AbelianMomentum(np.array([1.5 - 0.5j, 0.25 + 1j]))
    again = momentum_from_json(momentum_to_json(chi))
    assert isinstance(again, AbelianMomentum)
    assert np.array_equal(again.chi, chi.chi)


def test_momentum_json_round_trip_nonabelian():
    a = np.diag([1j, -1j])
    rho = NonabelianMomentum((a, np.eye(2, dtype=complex)))
    again = momentum_from_json(momentum_to_json(rho))
    assert isinstance(again, NonabelianMomentum)
    assert np.array_equal(again.rho[0], rho.rho[0])


def test_momentum_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        momentum_from_json({"momentum": "sideways"})


def test_relator_residual_reads_stored_inverses(monkeypatch):
    from hyperband.covers_quivers import UnbranchedCover, induce
    from hyperband.momenta import relator_residual

    cover = UnbranchedCover(sheets=3, perms=((2, 3, 1), (1, 2, 3), (1, 2, 3), (1, 2, 3)))
    chi = AbelianMomentum(np.exp(1j * np.linspace(0.3, 2.9, 8)))

    def no_inverse(matrix):
        raise AssertionError("relator_residual inverted a matrix")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    rho = induce(chi, cover)  # the constructor checks the relator too
    assert relator_residual(rho) < 1e-12
    assert validate(rho).relator_residual < 1e-12
