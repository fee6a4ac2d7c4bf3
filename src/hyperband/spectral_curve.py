"""Rank-2 twisted polynomial fields and their hyperelliptic spectral curves.

A field is a 2x2 matrix of polynomials on the base sphere with per-entry
degree caps set by a genus parameter g and a twisting integer k
(feasible when 0 <= k <= g+1):

    deg phi_11 <= g+1          deg phi_12 <= 2(g+1-k)
    deg phi_21 <= 2k           deg phi_22 <= g+1

The characteristic polynomial lambda^2 - a1(z) lambda + a2(z) defines a double
cover branched where the discriminant a1^2 - 4 a2 (degree <= 2g+2) vanishes,
plus a branch point at infinity for each missing degree.  Branch points are
companion-matrix roots, Newton-polished once and merged by single-linkage
clustering.  `curve_info` returns one record, `SpectralCurveInfo`, which
stores the characteristic data and the divisor and derives the rest: counted
with infinity the divisor has degree 2g + 2, or is empty when the discriminant
vanishes identically (degenerate), and a reduced one gives a smooth curve of
genus g.  A characteristic polynomial past the float range is refused.

Polynomials are 1-d complex coefficient arrays in ascending powers of z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._clustering import single_linkage
from ._serialize import complex_from_json, complex_to_json, document, integer, read_json
from .errors import NumericalCheckFailure
from .higgs_toy import INFINITY, ToyModelPoint, higgs_matrices

#: relative threshold for discarding numerically-zero leading coefficients
TRIM_REL = 1e-12
#: root-merging radius, relative to the root scale.  A double root of a
#: float64 polynomial splits into companion-matrix eigenvalues roughly
#: sqrt(machine eps) ~ 1.5e-8 apart (Newton polishing does not help at
#: multiple roots), so the radius sits well above that and far below any
#: separation that counts as two genuine branch points.
CLUSTER_RADIUS_REL = 1e-6
#: tolerance of the Cayley-Hamilton spot check in curve_info
CAYLEY_TOL = 1e-10


def _as_poly(p) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    if p.ndim != 1:
        raise ValueError("polynomials are 1-d ascending coefficient arrays")
    if p.size == 0:
        # internally the zero polynomial may be stored as an empty array
        # (e.g. an exactly-vanishing trace); arithmetic wants [0]
        return np.zeros(1, dtype=complex)
    return p


def _trim_exact(p: np.ndarray) -> np.ndarray:
    nz = np.nonzero(p)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=complex)
    return p[: nz[-1] + 1]


def _trim_absolute(p: np.ndarray, tol: float) -> np.ndarray:
    """Drop trailing (leading-power) coefficients at or below `tol` in magnitude."""
    keep = np.nonzero(np.abs(p) > tol)[0]
    if keep.size == 0:
        return np.zeros(0, dtype=complex)
    return p[: keep[-1] + 1]


def _degree(p: np.ndarray) -> int:
    """Exact degree; -1 for the zero polynomial."""
    return _trim_exact(p).size - 1


def feasibility(genus: int, k: int) -> bool:
    """Whether the degree-cap system admits fields at all: 0 <= k <= genus+1."""
    genus, k = integer(genus, "genus"), integer(k, "k")
    if genus < 0:
        raise ValueError("genus must be >= 0")
    return 0 <= k <= genus + 1


@dataclass(frozen=True)
class Rank2TwistedHiggs:
    """A 2x2 polynomial matrix obeying the (genus, k) degree caps."""

    genus: int
    k: int
    entries: tuple  # ((p11, p12), (p21, p22)), ascending coefficients

    def __post_init__(self):
        genus, k = integer(self.genus, "genus"), integer(self.k, "k")
        if not feasibility(genus, k):
            raise ValueError(f"(genus={genus}, k={k}) is infeasible: need 0 <= k <= genus+1")
        rows = tuple(tuple(_as_poly(p) for p in row) for row in self.entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("entries must be a 2x2 grid of polynomials")
        if not all(np.isfinite(p).all() for row in rows for p in row):
            raise ValueError("entry coefficients must be finite")
        caps = ((genus + 1, 2 * (genus + 1 - k)), (2 * k, genus + 1))
        for i in range(2):
            for j in range(2):
                deg = _degree(rows[i][j])
                if deg > caps[i][j]:
                    raise ValueError(
                        f"entry ({i + 1},{j + 1}) has degree {deg} "
                        f"> cap {caps[i][j]} for (genus={genus}, k={k})"
                    )
        for row in rows:
            for p in row:
                p.setflags(write=False)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "entries", rows)

    def evaluate(self, z) -> np.ndarray:
        z = complex(z)
        return np.array(
            [[npoly.polyval(z, p) for p in row] for row in self.entries], dtype=complex
        )


def char_poly(phi: Rank2TwistedHiggs):
    """(a1, a2) with characteristic polynomial lambda^2 - a1 lambda + a2."""
    (p11, p12), (p21, p22) = phi.entries
    a1 = npoly.polyadd(p11, p22)
    a2 = npoly.polysub(npoly.polymul(p11, p22), npoly.polymul(p12, p21))
    return _trim_exact(a1), _trim_exact(a2)


def discriminant(a1, a2) -> np.ndarray:
    """a1^2 - 4 a2, degree <= 2 genus + 2 by the degree caps."""
    a1, a2 = _as_poly(a1), _as_poly(a2)
    return _trim_exact(npoly.polysub(npoly.polymul(a1, a1), 4.0 * a2))


@dataclass(frozen=True)
class BranchPoint:
    """A branch point of the double cover; `point` is complex or math.inf."""

    point: object
    multiplicity: int


@dataclass(frozen=True)
class SpectralCurveInfo:
    """Characteristic data and branch divisor of one field's spectral curve."""

    base_genus: int
    k: int
    a1: np.ndarray
    a2: np.ndarray
    discriminant: np.ndarray
    branch_points: tuple  # of BranchPoint, degree 2 base_genus + 2; empty when degenerate

    @property
    def degenerate(self) -> bool:
        """The discriminant vanishes identically: no branch divisor."""
        return not self.branch_points

    @property
    def smooth(self) -> bool:
        """A reduced branch divisor: not degenerate, every multiplicity 1."""
        return not self.degenerate and all(bp.multiplicity == 1 for bp in self.branch_points)

    @property
    def curve_genus(self):
        """The genus of a smooth curve, `base_genus` (2g + 2 simple branch points), else None."""
        return self.base_genus if self.smooth else None


def _disc_scale(a1: np.ndarray, a2: np.ndarray, disc: np.ndarray) -> float:
    """Magnitude against which 'the discriminant is zero' is judged.

    The discriminant is assembled from a1^2 and 4 a2, so exact algebraic
    cancellations leave rounding noise on the order of eps times the peak of
    those ingredients -- comparing against the discriminant's own peak would
    mistake that noise for structure.  Inf where |a1|^2 or 4 |a2| overflows.
    """
    def peak(p):
        return float(np.max(np.abs(p))) if p.size else 0.0

    return max(peak(a1) * peak(a1), 4.0 * peak(a2), peak(disc), 1e-300)


def _roots_with_multiplicity(poly: np.ndarray, base_genus: int, zero_tol: float):
    """Finite clustered roots plus the multiplicity at infinity.

    The polynomial is made monic, its companion-matrix roots are polished with
    one Newton step (skipped where the derivative underflows), and roots
    closer than CLUSTER_RADIUS_REL * scale are merged single-linkage.
    Infinity carries multiplicity (2 genus + 2) - deg.
    """
    full_degree = 2 * base_genus + 2
    poly = _trim_absolute(poly, zero_tol)
    degree = poly.size - 1
    if degree > full_degree:
        raise NumericalCheckFailure(
            f"discriminant degree {degree} exceeds the cap {full_degree}"
        )
    inf_mult = full_degree - degree
    if degree == 0:
        return [], inf_mult
    monic = poly / poly[-1]
    roots = np.roots(monic[::-1])
    deriv = npoly.polyder(monic)
    for idx in range(roots.size):
        r = roots[idx]
        slope = npoly.polyval(r, deriv)
        if abs(slope) > 1e-300:
            roots[idx] = r - npoly.polyval(r, monic) / slope
    scale = max(1.0, float(np.max(np.abs(roots))) if roots.size else 1.0)
    radius = CLUSTER_RADIUS_REL * scale
    _, _, size, members, means = single_linkage(roots[None], radius)
    alone = np.ones(roots.size, dtype=bool)
    alone[members] = False
    merged = list(zip(means.tolist(), size.tolist())) + [(r, 1) for r in roots[alone].tolist()]
    merged.sort(key=lambda t: (t[0].real, t[0].imag))
    return merged, inf_mult


@functools.cache
def _cayley_points() -> np.ndarray:
    """The Cayley-Hamilton check points: five (Re, Im) draws of default_rng(0).

    Drawn on first use, not at import: importing numpy.random costs about 10 ms.
    """
    points = np.random.default_rng(0).uniform(-2.0, 2.0, 10).view(complex)
    points.setflags(write=False)
    return points


def _cayley_hamilton_check(phi: Rank2TwistedHiggs, a1, a2) -> None:
    """M^2 - a1 M + a2 = 0 for M = phi(z) at each of `_cayley_points()`,
    relative to max(1, |M|^2), both formed from s M, s t1 and s^2 t2 (s <= 1
    the power of two just below 1 / max |M_ij|: the same bits times s^2, with
    no square overflowing where a1 and a2 are finite).  A non-finite residual
    fails.
    """
    z = _cayley_points()
    with np.errstate(over="ignore", invalid="ignore"):
        M = np.array([[npoly.polyval(z, p) for p in row] for row in phi.entries]).transpose(2, 0, 1)
        t1, t2 = (npoly.polyval(z, _as_poly(a))[:, None, None] for a in (a1, a2))
        s = 0.5 ** max(math.frexp(float(np.max(np.abs(M))))[1], 0)
        M, t1, t2 = s * M, s * t1, (s * s) * t2
        residual = np.linalg.norm(M @ M - t1 * M + t2 * np.eye(2), axis=(1, 2))
        scale = np.maximum(s * s, np.linalg.norm(M, axis=(1, 2)) ** 2)
        failed = np.flatnonzero(~(np.isfinite(residual) & (residual <= CAYLEY_TOL * scale)))
    if failed.size:
        k = failed[0]
        raise NumericalCheckFailure(
            f"Cayley-Hamilton residual {float(residual[k]) / s / s:.3e} at z={complex(z[k])}"
        )


def curve_info(phi: Rank2TwistedHiggs) -> SpectralCurveInfo:
    """Characteristic polynomial, discriminant, branch divisor, smoothness, genus.

    An identically-zero discriminant (nilpotent-cone input) is reported as a
    degenerate info object rather than an error: one whose peak is within
    TRIM_REL of the entries' product scale, or that the root finder's trim
    would clear entirely.  A discriminant (so a1 or a2) or its scale past
    the float range raises NumericalCheckFailure.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a1, a2 = char_poly(phi)
        disc = discriminant(a1, a2)
    zero_tol = TRIM_REL * _disc_scale(a1, a2, disc)
    if not (np.isfinite(disc).all() and math.isfinite(zero_tol)):
        raise NumericalCheckFailure(
            "the characteristic polynomial overflows: a1, a2 or the discriminant "
            "a1^2 - 4 a2 has a coefficient past the float range"
        )
    _cayley_hamilton_check(phi, a1, a2)
    # judge "identically zero" against the pre-cancellation product scale of
    # the entries, so exact algebraic collapses detected through rounding noise
    # still count as degenerate
    entry_peak = max(
        (float(np.max(np.abs(p))) for row in phi.entries for p in row if p.size),
        default=0.0,
    )
    product_scale = entry_peak * entry_peak
    disc_peak = float(np.max(np.abs(disc))) if disc.size else 0.0
    degenerate = disc_peak <= max(TRIM_REL * product_scale, zero_tol)
    bps = ()
    if not degenerate:
        finite, inf_mult = _roots_with_multiplicity(disc, phi.genus, zero_tol)
        bps = tuple(BranchPoint(point=p, multiplicity=m) for p, m in finite)
        if inf_mult > 0:
            bps += (BranchPoint(point=INFINITY, multiplicity=inf_mult),)
    return SpectralCurveInfo(
        base_genus=phi.genus, k=phi.k, a1=a1, a2=a2, discriminant=disc, branch_points=bps,
    )


def toy_to_twisted(point: ToyModelPoint) -> Rank2TwistedHiggs:
    """Clear denominators of the toy field: N(z) = B sum_p P_p * prod_{q != p} (z - q).

    The entries are quadratics, giving a (genus=1, k=1) twisted field whose
    spectral curve is branched over {0, 1, m, infinity} when (u, m, B) is
    non-degenerate.
    """
    m = point.m
    q0 = np.array([m, -(1.0 + m), 1.0], dtype=complex)  # (z-1)(z-m)
    q1 = np.array([0.0, -m, 1.0], dtype=complex)  # z(z-m)
    qm = np.array([0.0, -1.0, 1.0], dtype=complex)  # z(z-1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is refused below
        P0, P1, Pm = (point.B * P for P in higgs_matrices(point.u))
        entries = tuple(
            tuple(P0[i, j] * q0 + P1[i, j] * q1 + Pm[i, j] * qm for j in range(2))
            for i in range(2)
        )
    return Rank2TwistedHiggs(genus=1, k=1, entries=entries)


def _poly_to_json(p: np.ndarray) -> list:
    return [complex_to_json(c) for c in np.atleast_1d(p)]


def curve_report(info: SpectralCurveInfo) -> dict:
    """JSON-ready report of one spectral curve."""
    bps = []
    for bp in info.branch_points:
        if bp.point == INFINITY:
            bps.append({"point": "infinity", "multiplicity": bp.multiplicity})
        else:
            bps.append({"point": complex_to_json(bp.point), "multiplicity": bp.multiplicity})
    return {
        "hyperband_spectral_curve": 1,
        "base_genus": info.base_genus,
        "k": info.k,
        "a1": _poly_to_json(info.a1),
        "a2": _poly_to_json(info.a2),
        "discriminant": _poly_to_json(info.discriminant),
        "branch_points": bps,
        "smooth": info.smooth,
        "genus": info.curve_genus,
        "degenerate": info.degenerate,
    }


def higgs_to_json(phi: Rank2TwistedHiggs) -> dict:
    """JSON form of a twisted field: entry polynomials as [re, im] coefficient lists."""
    return {
        "hyperband_higgs": 1,
        "genus": phi.genus,
        "k": phi.k,
        "entries": [[_poly_to_json(phi.entries[i][j]) for j in range(2)] for i in range(2)],
    }


def higgs_from_json(data: dict) -> Rank2TwistedHiggs:
    rows = document(data, "higgs", "genus", "k", "entries")["entries"]
    entries = [[[complex_from_json(c, "a coefficient in entries") for c in p] for p in row] for row in rows]
    return Rank2TwistedHiggs(genus=data["genus"], k=data["k"], entries=entries)


def higgs_from_json_file(path) -> Rank2TwistedHiggs:
    return higgs_from_json(read_json(path))
