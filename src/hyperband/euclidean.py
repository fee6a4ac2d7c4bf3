"""Flat-torus (genus-1, Euclidean) reference computations.

These are the classical counterparts of the genus-g machinery: a lattice with
periods (1, tau), its reciprocal, free-particle ("empty lattice") bands,
2-torsion momenta, the complexified dispersion, and the modular lambda
function evaluated by theta series.

The reciprocal basis is *defined* operationally by the dual-basis equations
w_i . gamma_j = delta_ij.  The closed form <1, tau/|tau|^2> is checked against
that solve, once per lattice; for non-rectangular tau the two disagree and a
warning (not an error) is emitted, keeping the solve authoritative.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalCheckFailure

__all__ = [
    "EuclideanLattice",
    "ReciprocalLattice",
    "reciprocal",
    "EmptyLatticeBands",
    "empty_lattice_bands",
    "DispersionValue",
    "complex_dispersion",
    "two_torsion_points",
    "fold",
    "modular_lambda",
]


@dataclass(frozen=True)
class EuclideanLattice:
    """The lattice Z gamma_1 + Z gamma_2 with gamma_1 = (1,0), gamma_2 = (Re tau, Im tau)."""

    tau: complex

    def __post_init__(self):
        tau = complex(self.tau)
        if not (tau.imag > 0):
            raise ValueError(f"tau must lie in the upper half-plane, got {tau}")
        object.__setattr__(self, "tau", tau)

    @property
    def basis(self) -> np.ndarray:
        """Rows are gamma_1, gamma_2."""
        return np.array([[1.0, 0.0], [self.tau.real, self.tau.imag]])

    @functools.cached_property
    def _reciprocal(self) -> ReciprocalLattice:
        W = np.linalg.inv(self.basis).T  # rows w_i satisfy G @ W.T = I for G = basis
        tau = self.tau
        w2_formula = tau / (abs(tau) ** 2)
        formula = np.array([[1.0, 0.0], [w2_formula.real, w2_formula.imag]])
        discrepancy = float(np.max(np.abs(W - formula)))
        if discrepancy > 1e-9:
            warnings.warn(
                f"closed-form reciprocal basis <1, tau/|tau|^2> deviates from the "
                f"dual-basis solve by {discrepancy:.3e} for tau={tau} "
                f"(expected for non-rectangular tau); using the solve",
                stacklevel=4,  # the caller of `reciprocal`
            )
        return ReciprocalLattice(self, W, discrepancy)


@dataclass(frozen=True)
class ReciprocalLattice:
    """Dual basis rows w_1, w_2 with w_i . gamma_j = delta_ij."""

    lattice: EuclideanLattice
    basis: np.ndarray
    formula_discrepancy: float

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)


def reciprocal(lattice: EuclideanLattice) -> ReciprocalLattice:
    """Solve the dual-basis equations, once per lattice; compare against the closed form."""
    return lattice._reciprocal


def _as_k_vector(k) -> np.ndarray:
    if isinstance(k, (int, float, complex)) and not isinstance(k, bool):
        k = complex(k)
        return np.array([k.real, k.imag])
    k = np.asarray(k, dtype=float).reshape(-1)
    if k.size != 2:
        raise ValueError("k must be a real 2-vector (or a complex scalar read as one)")
    return k


@dataclass(frozen=True)
class EmptyLatticeBands:
    """Lowest free-particle energies |k - G|^2 over the reciprocal lattice."""

    k: np.ndarray
    energies: np.ndarray  # n lowest values, ascending, ties repeated
    groups: tuple  # ((energy, multiplicity), ...) multiplicity counted in full

    def __post_init__(self):
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float))
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))


def empty_lattice_bands(lattice: EuclideanLattice, k, n_bands: int) -> EmptyLatticeBands:
    """The n lowest |k - G|^2, G in the reciprocal lattice, with full tie counts.

    Enumerates the smallest square window of reciprocal vectors, at least
    5x5, that holds n of them to bound the n-th energy, then enlarges the
    window until it provably contains every G with |k - G|^2 at or below that
    bound (using the smallest singular value of the reciprocal basis), so no
    low-energy vector is missed.
    """
    n_bands = int(n_bands)
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    W = reciprocal(lattice).basis
    k = _as_k_vector(k)
    sigma_min = float(np.linalg.svd(W, compute_uv=False)[-1])
    if sigma_min <= 0:
        raise NumericalCheckFailure("reciprocal basis is numerically singular")

    def window_energies(half_width: int) -> np.ndarray:
        rng = np.arange(-half_width, half_width + 1)
        mm, nn = np.meshgrid(rng, rng, indexing="ij")
        G = mm.reshape(-1, 1) * W[0] + nn.reshape(-1, 1) * W[1]
        diff = k[None, :] - G
        return np.sort(np.einsum("ij,ij->i", diff, diff))

    # (2h + 1)^2 >= n_bands first holds at h = ceil(sqrt(n_bands)) // 2
    half_width = max(2, (math.isqrt(n_bands - 1) + 1) // 2)
    while True:
        energies = window_energies(half_width)
        bound = energies[n_bands - 1]
        radius = float(np.linalg.norm(k)) + float(np.sqrt(bound))
        needed = int(np.ceil(radius / sigma_min)) + 1
        if needed <= half_width:
            break
        half_width = needed
    # keep every vector that could tie with the selected energies
    tie_tol = 1e-9 * max(1.0, float(bound))
    kept = energies[energies <= bound + tie_tol]
    lowest = energies[:n_bands]
    # the entries within tie_tol of a value form one run of the sorted `kept`;
    # searchsorted with twice the margin brackets it, and the test counts it
    starts = np.searchsorted(kept, lowest - 2.0 * tie_tol, "left")
    stops = np.searchsorted(kept, lowest + 2.0 * tie_tol, "right")
    groups = []
    for value, start, stop in zip(lowest.tolist(), starts.tolist(), stops.tolist()):
        if groups and abs(value - groups[-1][0]) <= tie_tol:
            continue
        mult = int(np.count_nonzero(np.abs(kept[start:stop] - value) <= tie_tol))
        groups.append((float(value), mult))
    return EmptyLatticeBands(k=k, energies=lowest, groups=tuple(groups))


@dataclass(frozen=True)
class DispersionValue:
    """E = k_x^2 + k_y^2 for complex k, with its real/imaginary-part split."""

    energy: complex
    split_energy: complex
    k_real: np.ndarray
    k_imag: np.ndarray


def complex_dispersion(kx, ky) -> DispersionValue:
    """Free dispersion for complexified momenta, computed two ways.

    Directly as k_x^2 + k_y^2, and from the split k = k_r + i k_i as
    (|k_r|^2 - |k_i|^2) + 2 i (k_r . k_i).  The two must agree to 1e-14
    relative; restriction to real k gives |k|^2.
    """
    kx, ky = complex(kx), complex(ky)
    energy = kx * kx + ky * ky
    kr = np.array([kx.real, ky.real])
    ki = np.array([kx.imag, ky.imag])
    split = complex(kr @ kr - ki @ ki, 2.0 * (kr @ ki))
    scale = max(1.0, abs(energy))
    if abs(energy - split) > 1e-14 * scale:
        raise NumericalCheckFailure(
            f"dispersion forms disagree: {energy} vs {split} (diff {abs(energy - split):.3e})"
        )
    return DispersionValue(energy=energy, split_energy=split, k_real=kr, k_imag=ki)


def fold(k, lattice: EuclideanLattice) -> np.ndarray:
    """Fold k into the fundamental reciprocal cell [0,1) w_1 + [0,1) w_2.

    The dual-basis coordinates of k are c_i = k . gamma_i; folding reduces
    them mod 1.
    """
    k = _as_k_vector(k)
    return _fold(k, lattice.basis, reciprocal(lattice).basis)


def _fold(k: np.ndarray, G: np.ndarray, W: np.ndarray) -> np.ndarray:
    """`fold` with the lattice basis G and its reciprocal basis W given."""
    coords = np.mod(G @ k, 1.0)  # c_i = k . gamma_i
    return coords[0] * W[0] + coords[1] * W[1]


def two_torsion_points(lattice: EuclideanLattice) -> list:
    """The four 2-torsion momenta 0, w_1/2, w_2/2, (w_1+w_2)/2, folded."""
    G, W = lattice.basis, reciprocal(lattice).basis
    points = [np.zeros(2), W[0] / 2.0, W[1] / 2.0, (W[0] + W[1]) / 2.0]
    return [_fold(p, G, W) for p in points]


def modular_lambda(tau) -> complex:
    """The modular lambda function via theta constants, lambda = (theta2/theta3)^4.

    theta2 = 2 sum_{n>=0} q^{(n+1/2)^2}, theta3 = 1 + 2 sum_{n>=1} q^{n^2},
    q = exp(i pi tau); each series is truncated once a term falls below 1e-15.
    """
    tau = complex(tau)
    if not (tau.imag > 0):
        raise ValueError(f"tau must lie in the upper half-plane, got {tau}")
    # q^s is evaluated as exp(i pi tau s): for non-integer s the principal
    # power of q = exp(i pi tau) would pick the wrong branch when |Re tau| > 1
    i_pi_tau = 1j * np.pi * tau
    theta2 = 0.0 + 0.0j
    n = 0
    while True:
        term = np.exp(i_pi_tau * (n + 0.5) ** 2)
        theta2 += term
        if abs(term) < 1e-15:
            break
        n += 1
        if n > 10_000:
            raise NumericalCheckFailure("theta2 series did not converge")
    theta2 *= 2.0
    theta3 = 1.0 + 0.0j
    n = 1
    while True:
        term = np.exp(i_pi_tau * n * n)
        theta3 += 2.0 * term
        if abs(term) < 1e-15:
            break
        n += 1
        if n > 10_000:
            raise NumericalCheckFailure("theta3 series did not converge")
    return complex((theta2 / theta3) ** 4)
