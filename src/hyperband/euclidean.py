"""Flat-torus (genus-1, Euclidean) reference computations.

These are the classical counterparts of the genus-g machinery: a lattice with
periods (1, tau), its reciprocal, free-particle ("empty lattice") bands,
2-torsion momenta, the complexified dispersion, and the modular lambda
function evaluated by theta series.

The reciprocal basis is *defined* operationally by the dual-basis equations
w_i . gamma_j = delta_ij.  The closed form w_1 = (1, -Re tau / Im tau),
w_2 = (0, 1 / Im tau) is checked against that solve, once per lattice,
relative to the solve's largest entry; past 1e-9 a warning (not an error) is
emitted, keeping the solve authoritative.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from ._serialize import integer, refuse_oversized
from .errors import NumericalCheckFailure


@dataclass(frozen=True)
class EuclideanLattice:
    """The lattice Z gamma_1 + Z gamma_2 with gamma_1 = (1,0), gamma_2 = (Re tau, Im tau)."""

    tau: complex

    def __post_init__(self):
        tau = complex(self.tau)
        if not cmath.isfinite(tau):
            raise ValueError(f"tau must be finite, got {tau}")
        if not (tau.imag > 0):
            raise ValueError(f"tau must lie in the upper half-plane, got {tau}")
        # neither |tau|^2 nor the solve's 1 / Im tau and Re tau / Im tau may
        # overflow or underflow
        norm, ratio = abs(tau) * abs(tau), max(1.0, abs(tau.real)) / tau.imag
        if not (sys.float_info.min <= norm < math.inf and ratio < math.inf):
            raise ValueError(f"tau out of range: the reciprocal basis of {tau} overflows or underflows")
        object.__setattr__(self, "tau", tau)

    @property
    def basis(self) -> np.ndarray:
        """Rows are gamma_1, gamma_2."""
        return np.array([[1.0, 0.0], [self.tau.real, self.tau.imag]])

    @functools.cached_property
    def _reciprocal(self) -> ReciprocalLattice:
        W = np.linalg.inv(self.basis).T  # rows w_i satisfy G @ W.T = I for G = basis
        tau = self.tau
        formula = np.array([[1.0, -tau.real / tau.imag], [0.0, 1.0 / tau.imag]])
        discrepancy = float(np.max(np.abs(W - formula)) / np.max(np.abs(W)))
        if discrepancy > 1e-9:
            warnings.warn(
                f"closed-form reciprocal basis (1, -Re tau/Im tau), (0, 1/Im tau) "
                f"deviates from the dual-basis solve by {discrepancy:.3e} relative "
                f"for tau={tau}; using the solve",
                stacklevel=4,  # the caller of `reciprocal`
            )
        return ReciprocalLattice(W, discrepancy)


@dataclass(frozen=True)
class ReciprocalLattice:
    """Dual basis rows w_1, w_2 with w_i . gamma_j = delta_ij."""

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
        k = (complex(k).real, complex(k).imag)
    k = np.asarray(k, dtype=float).reshape(-1)
    if k.size != 2:
        raise ValueError("k must be a real 2-vector (or a complex scalar read as one)")
    if not np.isfinite(k).all():
        raise ValueError(f"k must be finite, got {k.tolist()}")
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

    Enumerates the smallest square window of reciprocal vectors m W_0 + n W_1,
    at least 5x5 and centred on the vector nearest k in lattice coordinates
    (rint of lattice.basis @ k), that holds n of them to bound the n-th
    energy, then enlarges the window until it provably contains every G with
    |k - G|^2 at or below that bound (such a G lies within |k - centre| +
    sqrt(bound) of the centre, and the smallest singular value of the
    reciprocal basis converts lengths to coordinates), so no low-energy
    vector is missed.  A window
    past the size rule of `_serialize.refuse_oversized` is refused with
    ValueError before it is built, and so is a k too far out for its energies
    to resolve ties: one whose lattice coordinates c reach 2^52, where
    consecutive window coordinates stop being distinct floats, or where
    |c_0| |W_0| + |c_1| |W_1| reaches 2^16.  Rounding the products of
    m W_0 + n W_1 moves a G near the centre, and so k - G, by up to 2^-52
    times that sum, and an energy E by up to 2^-51 sqrt(E) times it: under
    2^16 that is below 1/30 of the tie tolerance 1e-9 max(1, bound).
    """
    n_bands = integer(n_bands, "n_bands")
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    W = reciprocal(lattice).basis
    k = _as_k_vector(k)
    sigma_min = float(np.linalg.svd(W, compute_uv=False)[-1])
    if sigma_min <= 0:
        raise NumericalCheckFailure("reciprocal basis is numerically singular")

    with np.errstate(over="ignore", invalid="ignore"):
        centre = np.rint(lattice.basis @ k)
        centre_size = float(np.abs(centre) @ np.linalg.norm(W, axis=1))
    if not (np.all(np.abs(centre) < 2.0**52) and centre_size < 2.0**16):
        raise ValueError(
            f"k out of range: its lattice coordinates {centre.tolist()} are too far out to resolve ties"
        )
    shift = float(np.linalg.norm(k - centre @ W))  # at most |W_0|/2 + |W_1|/2

    def window_energies(half_width: int) -> np.ndarray:
        rng = np.arange(-half_width, half_width + 1)
        mm, nn = np.meshgrid(centre[0] + rng, centre[1] + rng, indexing="ij")
        G = mm.reshape(-1, 1) * W[0] + nn.reshape(-1, 1) * W[1]
        diff = k[None, :] - G
        return np.sort(np.einsum("ij,ij->i", diff, diff))

    # the half-width from n_bands ((2h + 1)^2 >= n_bands first holds at h =
    # ceil(sqrt(n_bands)) // 2), then from the bound, a float until the size
    # rule has passed it; a window holds at most 64 B per vector at once
    reach, half_width = max(2, (math.isqrt(n_bands - 1) + 1) // 2), 0
    while reach > half_width:
        side = 2 * reach + 1
        refuse_oversized(64 * side * side, "empty-lattice window", "reciprocal vectors for {} bands", n_bands)
        half_width = math.ceil(reach)
        energies = window_energies(half_width)
        bound = energies[n_bands - 1]
        reach = float(np.ceil((shift + float(np.sqrt(bound))) / sigma_min)) + 1.0
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
