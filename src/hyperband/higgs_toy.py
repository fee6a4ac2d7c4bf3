"""An explicit rank-2 parabolic connection + Higgs field on the 4-punctured sphere.

Everything here is written over the base with punctures {0, 1, m, infinity}
(m away from 0 and 1) and depends on one modulus u and an overall Higgs scale
B.  The residue matrices are hard-coded closed forms:

connection residues (quarter-integer parabolic weights)

    A_0 = 1/4 [[-1, 0], [-1, 1]]
    A_1 = 1/4 [[ 0, 1], [ 1, 0]]
    A_m = 1/4 [[-1, 2u], [ 0, 1]]

Higgs-field residues (nilpotent at every finite puncture)

    P_0 = [[0, 0], [1-u, 0]]
    P_1 = [[u, -u], [u, -u]]
    P_m = [[-u, u^2], [-1, u]]

The residue at infinity is minus the sum of the finite residues, so residues
always sum to zero exactly.  The associated invariant

    c = z (z-1) (z-m) det(B * Phi(z))

is independent of z; `hitchin_coordinate` estimates it from random samples and
cross-checks their spread.  Its closed form is c = -B^2 u (u-1) (u-m) (the
test suite re-derives this symbolically rather than trusting the constant).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._serialize import check_tolerance
from .errors import NumericalCheckFailure

#: the point at infinity on the base sphere, as stored in pole lists
INFINITY = math.inf

#: how close a puncture may come to {0, 1} before the family degenerates
TOL_PUNCTURE = 1e-12


@dataclass(frozen=True)
class ToyModelPoint:
    """Parameters (m, u, B): puncture position, modulus, Higgs scale."""

    m: complex
    u: complex
    B: complex = 1.0 + 0.0j

    def __post_init__(self):
        m, u, B = complex(self.m), complex(self.u), complex(self.B)
        for name, val in (("m", m), ("u", u), ("B", B)):
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError(f"{name} must be finite, got {val}")
        if abs(m) <= TOL_PUNCTURE or abs(m - 1) <= TOL_PUNCTURE:
            raise ValueError(f"m must stay away from 0 and 1, got {m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "B", B)


@dataclass(frozen=True)
class RationalMatrixOneForm:
    """A matrix-valued form sum_p R_p dz/(z - p) with poles on the sphere.

    `poles` is a tuple of (point, residue) pairs where the point at infinity
    is represented by math.inf; residues must be finite and sum to zero
    exactly (the constructors build the infinity residue as minus the finite
    sum, which makes the cancellation exact in floating point).
    """

    poles: tuple

    def __post_init__(self):
        cleaned = []
        total = np.zeros((2, 2), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total is refused below
            for point, residue in self.poles:
                residue = np.array(residue, dtype=complex)
                if residue.shape != (2, 2):
                    raise ValueError("residues must be 2x2 matrices")
                residue.setflags(write=False)
                point = INFINITY if point == INFINITY else complex(point)
                cleaned.append((point, residue))
                total = total + residue
        if not np.all(total == 0.0):
            for point, residue in cleaned:
                if not np.isfinite(residue).all():
                    raise ValueError(f"the residue at {point} is not finite: it overflows the float range")
            raise ValueError(
                f"residues must sum to zero exactly; got total {total.tolist()}"
            )
        object.__setattr__(self, "poles", tuple(cleaned))

    @property
    def finite_poles(self) -> tuple:
        return tuple((p, r) for p, r in self.poles if p != INFINITY)


def connection_matrices(u):
    """The residues (A_0, A_1, A_m) of the connection, each with eigenvalues +-1/4."""
    u = complex(u)
    A0 = np.array([[-1.0, 0.0], [-1.0, 1.0]], dtype=complex) / 4.0
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 4.0
    Am = np.array([[-1.0, 2.0 * u], [0.0, 1.0]], dtype=complex) / 4.0
    return A0, A1, Am


def higgs_matrices(u):
    """The residues (P_0, P_1, P_m) of the Higgs field, all nilpotent and trace-free."""
    u = complex(u)
    P0 = np.array([[0.0, 0.0], [1.0 - u, 0.0]], dtype=complex)
    P1 = np.array([[u, -u], [u, -u]], dtype=complex)
    Pm = np.array([[-u, u * u], [-1.0, u]], dtype=complex)
    return P0, P1, Pm


def _with_infinity(m, residues) -> RationalMatrixOneForm:
    finite_sum = residues[0] + residues[1] + residues[2]
    poles = (
        (0.0 + 0.0j, residues[0]),
        (1.0 + 0.0j, residues[1]),
        (complex(m), residues[2]),
        (INFINITY, -finite_sum),
    )
    return RationalMatrixOneForm(poles)


def connection_form(point: ToyModelPoint) -> RationalMatrixOneForm:
    """The connection one-form's residue data over {0, 1, m, infinity}."""
    return _with_infinity(point.m, connection_matrices(point.u))


def higgs_form(point: ToyModelPoint) -> RationalMatrixOneForm:
    """The Higgs field B * Phi as residue data over {0, 1, m, infinity}."""
    B = point.B
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residue is refused
        return _with_infinity(point.m, tuple(B * P for P in higgs_matrices(point.u)))


def evaluate_form(form: RationalMatrixOneForm, z) -> np.ndarray:
    """sum of R_p / (z - p) over the finite poles (the dz coefficient at z)."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("z must be finite")
    value = np.zeros((2, 2), dtype=complex)
    for p, residue in form.finite_poles:
        dz = z - p
        if abs(dz) <= 1e-12:
            raise ValueError(f"z={z} is too close to the pole at {p}")
        value = value + residue / dz
    return value


def _finite(c: complex, what: str) -> complex:
    if not cmath.isfinite(c):
        raise NumericalCheckFailure(f"the {what} is not finite ({c}): it overflows the float range")
    return c


def hitchin_closed_form(point: ToyModelPoint) -> complex:
    """-B^2 u (u-1) (u-m) (see the module docstring); NumericalCheckFailure past the float range."""
    u, m, B = point.u, point.m, point.B
    return _finite(-(B * B) * u * (u - 1.0) * (u - m), "closed form of the invariant")


def hitchin_coordinate(point: ToyModelPoint, *, seed: int = 0, tol: float = 1e-9) -> complex:
    """c = z (z-1) (z-m) det(B Phi(z)), checked to be z-independent.

    Evaluates at 5 random z bounded away from the poles and requires the
    relative spread of the samples to stay below `tol`, and their mean to be
    finite (NumericalCheckFailure).
    """
    check_tolerance(tol)
    form = higgs_form(point)
    rng = np.random.default_rng(seed)
    poles = [0.0 + 0.0j, 1.0 + 0.0j, point.m]
    values = []
    attempts = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a non-finite mean
        while len(values) < 5:
            attempts += 1
            if attempts > 5000:
                raise NumericalCheckFailure("could not sample z away from the poles")
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            if min(abs(z - p) for p in poles) < 0.3:
                continue
            phi = evaluate_form(form, z)
            values.append(z * (z - 1.0) * (z - point.m) * np.linalg.det(phi))
        values = np.asarray(values)
        mean = _finite(complex(values.mean()), "invariant")
        spread = float(np.max(np.abs(values - mean)))
    if not spread <= tol * max(1.0, abs(mean)):
        raise NumericalCheckFailure(
            f"the invariant drifted across sample points "
            f"(spread {spread:.3e} relative to {abs(mean):.3e})"
        )
    return mean


def local_monodromy_eigenvalues(residue) -> tuple:
    """exp(2 pi i * eigenvalues) of a 2x2 residue, when it is diagonalizable.

    A residue with a repeated eigenvalue must be scalar to be diagonalizable;
    otherwise (e.g. a nonzero nilpotent) ValueError is raised because the
    monodromy then has a unipotent part this eigenvalue list would misstate.
    """
    residue = np.array(residue, dtype=complex)
    if residue.shape != (2, 2):
        raise ValueError("residue must be 2x2")
    lam = np.linalg.eigvals(residue)
    scale = max(1.0, float(np.max(np.abs(residue))))
    if abs(lam[0] - lam[1]) <= 1e-10 * scale:
        mean = (lam[0] + lam[1]) / 2.0
        if np.max(np.abs(residue - mean * np.eye(2))) > 1e-10 * scale:
            raise ValueError(
                "residue has a repeated eigenvalue but is not scalar: "
                "it is not diagonalizable, so the local monodromy is not "
                "determined by eigenvalues alone"
            )
    lam = np.sort_complex(lam)
    return tuple(np.exp(2j * np.pi * val) for val in lam)
