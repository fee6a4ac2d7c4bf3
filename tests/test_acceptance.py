"""Top-level acceptance checks, one per shipped guarantee.

Each test pins the tolerances and (where it matters) the runtime budget of a
documented behavior, and prints a single PASS line so a verbose run reads as a
checklist.  These intentionally re-walk ground covered by the per-module
tests: they are the contract, the module tests are the diagnostics.
"""

import math
import time
from unittest import mock

import mpmath
import numpy as np

from hyperband import spectra
from hyperband.covers_quivers import (
    UnbranchedCover,
    cover_genus,
    pushforward_check,
    quiver_from_model,
    reassemble,
)
from hyperband.euclidean import (
    EuclideanLattice,
    complex_dispersion,
    empty_lattice_bands,
    modular_lambda,
    two_torsion_points,
)
from hyperband.higgs_toy import (
    INFINITY,
    ToyModelPoint,
    connection_form,
    evaluate_form,
    higgs_form,
    hitchin_closed_form,
    hitchin_coordinate,
)
from hyperband.momenta import AbelianMomentum
from hyperband.spectra import bloch_variety, eigenvalues
from hyperband.spectral_curve import curve_info, toy_to_twisted
from hyperband.tight_binding import adjoint_momentum, bloch_abelian

from test_tight_binding import random_model


def _random_m(rng):
    while True:
        m = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(m) > 0.3 and abs(m - 1.0) > 0.3:
            return m


def test_acceptance_1_four_puncture_identity_suite():
    # 200 random (u, m), m away from {0, 1}: the Higgs field is trace-free
    # with nilpotent residues at all four poles (|P^2| <= 1e-12), the
    # connection residues have eigenvalues exactly +-1/4 at the finite poles,
    # z (z-1) (z-m) det(Phi) is z-independent to 1e-9 relative, and matches
    # -u (u-1) (u-m) to 1e-10.  Budget: 1 s.
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    for trial in range(200):
        m = _random_m(rng)
        u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        point = ToyModelPoint(m=m, u=u, B=1.0)

        phi = higgs_form(point)
        for p, residue in phi.poles:
            assert complex(residue[0, 0] + residue[1, 1]) == 0.0
            sq = residue @ residue
            assert float(np.max(np.abs(sq))) <= 1e-12

        # a random off-pole sample of the full field is trace-free too
        z = complex(rng.uniform(2.5, 3.5), rng.uniform(2.5, 3.5))
        field = evaluate_form(phi, z)
        assert abs(field[0, 0] + field[1, 1]) <= 1e-12 * max(
            1.0, float(np.max(np.abs(field)))
        )

        conn = connection_form(point)
        for p, residue in conn.poles:
            if p == INFINITY:
                continue
            # trace 0 and det -1/16 exactly pin the eigenvalues at +-1/4
            assert complex(residue[0, 0] + residue[1, 1]) == 0.0
            det = residue[0, 0] * residue[1, 1] - residue[0, 1] * residue[1, 0]
            assert complex(det) == complex(-1.0 / 16.0)

        c = hitchin_coordinate(point, seed=trial, tol=1e-9)  # raises on drift
        closed = hitchin_closed_form(point)
        assert abs(c - closed) <= 1e-10 * max(1.0, abs(closed))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"identity suite took {elapsed:.2f} s (budget 1 s)"
    print("ACCEPTANCE 1 (four-puncture identity suite): PASS")


def test_acceptance_2_toy_spectral_pipeline():
    # 100 random non-degenerate (u, m, B): branch points {0, 1, m, infinity}
    # to 1e-7 and genus 1; the degenerate inputs u in {0, 1, m} are reported
    # as such.  Budget: 2 s.
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    for _ in range(100):
        m = _random_m(rng)
        while True:
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if min(abs(u), abs(u - 1.0), abs(u - m)) > 0.1:
                break
        B = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        info = curve_info(toy_to_twisted(ToyModelPoint(m=m, u=u, B=B)))
        assert not info.degenerate
        assert info.smooth
        assert info.curve_genus == 1
        points = info.branch_points
        assert len(points) == 4
        finite = [bp.point for bp in points if bp.point != INFINITY]
        assert any(bp.point == INFINITY for bp in points)
        expected = [0.0 + 0j, 1.0 + 0j, m]
        for target in expected:
            assert min(abs(p - target) for p in finite) <= 1e-7
        assert all(bp.multiplicity == 1 for bp in points)

    m = _random_m(rng)
    B = complex(rng.uniform(0.5, 2.0), 0.0)
    for u in (0.0, 1.0, m):
        info = curve_info(toy_to_twisted(ToyModelPoint(m=m, u=u, B=B)))
        assert info.degenerate
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"spectral pipeline took {elapsed:.2f} s (budget 2 s)"
    print("ACCEPTANCE 2 (toy spectral pipeline): PASS")


def test_acceptance_3_square_torus_torsion_degeneracies():
    # tau = i: the lowest-band energies and multiplicities at the four
    # 2-torsion momenta are (0, 1), (1/4, 2), (1/4, 2), (1/2, 4), reproduced
    # to 1e-12.  Budget: 0.1 s.
    start = time.perf_counter()
    lattice = EuclideanLattice(1j)
    expected = {
        (0.0, 0.0): (0.0, 1),
        (0.5, 0.0): (0.25, 2),
        (0.0, 0.5): (0.25, 2),
        (0.5, 0.5): (0.5, 4),
    }
    points = two_torsion_points(lattice)
    assert len(points) == 4
    seen = set()
    for k in points:
        key = (round(float(k[0]), 12), round(float(k[1]), 12))
        assert key in expected, f"unexpected 2-torsion point {k}"
        seen.add(key)
        energy, mult = expected[key]
        bands = empty_lattice_bands(lattice, k, 8)
        lowest_energy, lowest_mult = bands.groups[0]
        assert abs(lowest_energy - energy) <= 1e-12
        assert lowest_mult == mult
    assert len(seen) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"torsion check took {elapsed:.3f} s (budget 0.1 s)"
    print("ACCEPTANCE 3 (square-torus 2-torsion degeneracies): PASS")


def test_acceptance_4_complex_dispersion_forms():
    # the direct form k_x^2 + k_y^2 and the real/imaginary split agree to
    # 1e-14 relative on 10^4 random complex momenta; real momenta give |k|^2
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        kx = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ky = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        value = complex_dispersion(kx, ky)  # raises beyond 1e-14 relative
        scale = max(1.0, abs(value.energy))
        assert abs(value.energy - value.split_energy) <= 1e-14 * scale
    for _ in range(100):
        kx, ky = rng.uniform(-3, 3), rng.uniform(-3, 3)
        value = complex_dispersion(kx, ky)
        assert value.energy.imag == 0.0
        norm_sq = kx * kx + ky * ky
        assert abs(value.energy.real - norm_sq) <= 1e-14 * max(1.0, norm_sq)
    print("ACCEPTANCE 4 (complex dispersion forms): PASS")


def test_acceptance_5_hermiticity_and_adjoint_symmetry():
    # 100 random models and momenta: H is Hermitian exactly when the momentum
    # is unitary (residual threshold 1e-12 relative), and the spectra at chi
    # and at the conjugate-reciprocal momentum are conjugate multisets to 1e-9
    rng = np.random.default_rng(6)
    for trial in range(100):
        genus = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 5))
        model = random_model(rng, genus, dim)
        unitary = trial % 2 == 0
        phases = rng.uniform(0.0, 2.0 * np.pi, 2 * genus)
        if unitary:
            chi = AbelianMomentum(np.exp(1j * phases))
        else:
            moduli = np.exp(rng.uniform(0.1, 0.5, 2 * genus) * rng.choice([-1.0, 1.0], 2 * genus))
            chi = AbelianMomentum(moduli * np.exp(1j * phases))
        H = bloch_abelian(model, chi).matrix
        residual = float(np.max(np.abs(H - H.conj().T)))
        scale = max(1.0, float(np.max(np.abs(H))))
        if unitary:
            assert residual <= 1e-12 * scale
        else:
            assert residual > 1e-12 * scale

        spec = np.sort_complex(eigenvalues(bloch_abelian(model, chi)))
        spec_adj = np.sort_complex(
            np.conj(eigenvalues(bloch_abelian(model, adjoint_momentum(chi))))
        )
        radius = max(1.0, float(np.max(np.abs(spec))))
        assert float(np.max(np.abs(spec - spec_adj))) <= 1e-9 * radius
    print("ACCEPTANCE 5 (Hermiticity and adjoint symmetry): PASS")


def test_acceptance_6_pushforward_spectrum_equivalence():
    # supercell and induced-momentum spectra agree to 1e-9 relative for
    # 1-, 2-, 3-, and 4-sheet covers, cell sizes up to 3, 50 random unitary
    # momenta each.  Budget: 10 s.
    covers = [
        UnbranchedCover(sheets=1, perms=((1,), (1,))),
        UnbranchedCover(sheets=2, perms=((2, 1), (1, 2))),
        UnbranchedCover(sheets=3, perms=((2, 3, 1), (1, 2, 3))),
        UnbranchedCover(sheets=4, perms=((2, 1, 4, 3), (3, 4, 1, 2))),
    ]
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for cover in covers:
        gc = cover_genus(cover)
        for dim in (1, 2, 3):
            model = random_model(rng, 1, dim)
            for _ in range(50):
                phases = rng.uniform(0.0, 2.0 * np.pi, 2 * gc)
                chi = AbelianMomentum(np.exp(1j * phases))
                report = pushforward_check(model, cover, chi, tol=1e-9)
                assert report.passed, (
                    f"{cover.sheets}-sheet cover, dim {dim}: spectral distance "
                    f"{report.spectral_distance:.3e} vs radius {report.spectral_radius:.3e}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"pushforward sweep took {elapsed:.2f} s (budget 10 s)"
    print("ACCEPTANCE 6 (pushforward spectrum equivalence): PASS")


def test_acceptance_7_bloch_variety_holdout():
    # the interpolated coefficients of det(H(chi) - E) reproduce directly
    # computed values on 100 held-out off-torus points to 1e-8 relative, for
    # random models with genus <= 2 and cell size <= 3
    rng = np.random.default_rng(8)
    for genus in (1, 2):
        for dim in (1, 2, 3):
            model = random_model(rng, genus, dim)
            with mock.patch.object(spectra, "_HOLDOUT_POINTS", 100):
                variety = bloch_variety(model, tol=1e-8, seed=int(rng.integers(10_000)))
            # bloch_variety raises NumericalCheckFailure beyond tolerance
            assert variety.holdout_residual <= 1e-8
    print("ACCEPTANCE 7 (algebraic Bloch variety holdout): PASS")


def test_acceptance_8_modular_lambda_consistency():
    # lambda(i) = 1/2 to 1e-12 against an independent theta-series evaluation,
    # and the identities lambda(tau + 2) = lambda(tau),
    # lambda(-1/tau) = 1 - lambda(tau) hold to 1e-10 on 20 random tau
    assert abs(modular_lambda(1j) - 0.5) <= 1e-12

    def theta_lambda(tau):
        q = mpmath.exp(1j * mpmath.pi * tau)
        t2 = mpmath.jtheta(2, 0, q)
        t3 = mpmath.jtheta(3, 0, q)
        return complex((t2 / t3) ** 4)

    assert abs(modular_lambda(1j) - theta_lambda(1j)) <= 1e-12

    rng = np.random.default_rng(9)
    for _ in range(20):
        tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.6, 2.0))
        lam = modular_lambda(tau)
        assert abs(lam - theta_lambda(tau)) <= 1e-10 * max(1.0, abs(lam))
        assert abs(modular_lambda(tau + 2.0) - lam) <= 1e-10 * max(1.0, abs(lam))
        reflected = modular_lambda(-1.0 / tau)
        assert abs(reflected - (1.0 - lam)) <= 1e-10 * max(1.0, abs(lam))
    print("ACCEPTANCE 8 (modular lambda consistency): PASS")


def test_acceptance_9_quiver_round_trip():
    # decomposing a model into its quiver and reassembling at a momentum
    # reproduces the assembled Hamiltonian byte-exactly (same summation
    # order), over 100 random models and momenta
    rng = np.random.default_rng(10)
    for _ in range(100):
        genus = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 5))
        model = random_model(rng, genus, dim)
        moduli = np.exp(rng.uniform(-0.4, 0.4, 2 * genus))
        phases = rng.uniform(0.0, 2.0 * np.pi, 2 * genus)
        chi = AbelianMomentum(moduli * np.exp(1j * phases))
        quiver = quiver_from_model(model)
        assert np.array_equal(reassemble(quiver, chi), bloch_abelian(model, chi).matrix)
    print("ACCEPTANCE 9 (quiver round trip): PASS")
