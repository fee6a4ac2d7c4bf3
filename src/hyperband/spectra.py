"""Spectra over momentum grids, degeneracy detection, and Bloch varieties.

Eigenvalues are always reported sorted lexicographically by (Re, Im).  Sweeps
are embarrassingly parallel over grid points and are dispatched as one batched
LAPACK call; identical inputs produce identical outputs (no threading
nondeterminism is introduced here).  Band crossings and the branch points of
`spectral_curve` share one single-linkage clusterer.

The Bloch variety of a model is the polynomial det(H(chi) - E) viewed as a
Laurent polynomial in the momentum entries chi_1..chi_2g and an ordinary
polynomial in E.  For a d-state cell each chi variable appears with exponents
in [-d, d] (each term of the determinant expansion is a product of d entries,
each linear in chi_i and chi_i^{-1}), so coefficients are recovered exactly
from samples on a (2d+1)-point roots-of-unity grid per variable via the FFT,
and the E-coefficients at each sample come from elementary symmetric functions
of the eigenvalues.  A held-out residual check guards the reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._serialize import complex_to_json
from .errors import NumericalCheckFailure
from .momenta import AbelianMomentum
from .tight_binding import BlochHamiltonian, TightBindingModel, _assemble

__all__ = [
    "MomentumGrid",
    "unitary_grid",
    "complex_region_grid",
    "BandStructure",
    "eigenvalues",
    "sweep",
    "spectral_radius",
    "DegeneracyGroup",
    "detect_crossings",
    "BlochVariety",
    "bloch_variety",
    "write_bands_csv",
]


@dataclass(frozen=True)
class MomentumGrid:
    """An ordered list of abelian momenta arranged on a product grid."""

    chis: np.ndarray  # (P, 2g) complex
    shape: tuple
    unitary: bool

    def __post_init__(self):
        chis = np.asarray(self.chis, dtype=complex)
        if chis.ndim != 2 or chis.shape[0] == 0:
            raise ValueError("grid must contain at least one momentum")
        if np.any(chis == 0) or not np.all(np.isfinite(chis)):
            raise ValueError("grid momenta must be finite and nonzero")
        chis.setflags(write=False)
        object.__setattr__(self, "chis", chis)
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    @property
    def indices(self) -> np.ndarray:
        """(P, 2g) int grid index of each momentum, row-major like `chis`."""
        return np.indices(self.shape).reshape(len(self.shape), -1).T

    @property
    def n_points(self) -> int:
        return self.chis.shape[0]

    @property
    def genus(self) -> int:
        return self.chis.shape[1] // 2

    def momentum(self, flat_index: int) -> AbelianMomentum:
        return AbelianMomentum(self.chis[flat_index])


def _axis_counts(genus: int, counts) -> list:
    n_axes = 2 * genus
    if np.isscalar(counts):
        counts = [int(counts)] * n_axes
    counts = [int(c) for c in counts]
    if len(counts) == 1:
        counts = counts * n_axes
    if len(counts) != n_axes:
        raise ValueError(f"need {n_axes} axis counts (or one to broadcast), got {len(counts)}")
    if any(c < 1 for c in counts):
        raise ValueError("grid is empty: all axis counts must be >= 1")
    return counts


def _product_grid(axis_points: list) -> tuple:
    """Row-major cartesian product; returns (chis (P, n), shape)."""
    shape = tuple(len(p) for p in axis_points)
    mesh = np.meshgrid(*axis_points, indexing="ij")
    chis = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    return chis, shape


def unitary_grid(genus: int, counts) -> MomentumGrid:
    """Uniform phase grid on the unitary torus: chi_i = exp(2 pi i j / n_i)."""
    counts = _axis_counts(genus, counts)
    axis_points = [np.exp(2j * np.pi * np.arange(n) / n) for n in counts]
    chis, shape = _product_grid(axis_points)
    return MomentumGrid(chis, shape, unitary=True)


def complex_region_grid(genus: int, counts, log_modulus, n_moduli: int) -> MomentumGrid:
    """Grid over a rectangle in (log-modulus) x (phase) per chi variable.

    Each variable runs over n_moduli moduli exp(mu), mu uniform in
    [log_modulus[0], log_modulus[1]] (endpoints included), times `counts[i]`
    phases uniform on [0, 2 pi) -- modulus-major within the axis.
    """
    counts = _axis_counts(genus, counts)
    lo, hi = float(log_modulus[0]), float(log_modulus[1])
    n_moduli = int(n_moduli)
    if n_moduli < 1:
        raise ValueError("grid is empty: n_moduli must be >= 1")
    if n_moduli == 1:
        moduli = np.array([np.exp((lo + hi) / 2.0)])
    else:
        moduli = np.exp(np.linspace(lo, hi, n_moduli))
    axis_points = []
    for n in counts:
        phases = np.exp(2j * np.pi * np.arange(n) / n)
        axis_points.append((moduli[:, None] * phases[None, :]).reshape(-1))
    chis, shape = _product_grid(axis_points)
    unitary = bool(np.max(np.abs(np.abs(chis) - 1.0)) <= 1e-12)
    return MomentumGrid(chis, shape, unitary=unitary)


@dataclass(frozen=True)
class BandStructure:
    """Eigenvalues over a momentum grid, one sorted row per grid point."""

    grid: MomentumGrid
    bands: np.ndarray  # (P, N) complex, each row sorted by (Re, Im)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        bands = np.asarray(self.bands, dtype=complex)
        bands.setflags(write=False)
        object.__setattr__(self, "bands", bands)

    @property
    def n_bands(self) -> int:
        return self.bands.shape[1]

    @property
    def hermitian(self) -> bool:
        return self.grid.unitary


def _sorted_eigenvalues(matrix: np.ndarray, hermitian: bool) -> np.ndarray:
    if not np.all(np.isfinite(matrix)):
        raise ValueError("Hamiltonian has non-finite entries")
    try:
        if hermitian:
            vals = np.linalg.eigvalsh(matrix)
        else:
            vals = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalCheckFailure(f"eigensolver did not converge: {exc}") from exc
    return np.sort(vals.astype(complex), axis=-1)


def eigenvalues(ham) -> np.ndarray:
    """Sorted spectrum of a BlochHamiltonian (or a plain matrix)."""
    if isinstance(ham, BlochHamiltonian):
        return _sorted_eigenvalues(ham.matrix, ham.hermitian)
    m = np.asarray(ham, dtype=complex)
    hermitian = bool(np.linalg.norm(m - m.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(m)))
    return _sorted_eigenvalues(m, hermitian)


def sweep(model: TightBindingModel, grid: MomentumGrid) -> BandStructure:
    """Spectra over all grid points (row-major), batched into one LAPACK call."""
    if grid.genus != model.genus:
        raise ValueError(f"genus mismatch: model {model.genus}, grid {grid.genus}")
    stack = _assemble(model, grid.chis, 1.0 / grid.chis)
    try:
        bands = _sorted_eigenvalues(stack, grid.unitary)
    except NumericalCheckFailure:
        # locate the failing grid point so the error is actionable
        for idx, matrix in zip(grid.indices, stack):
            try:
                _sorted_eigenvalues(matrix, grid.unitary)
            except NumericalCheckFailure as exc:
                raise NumericalCheckFailure(
                    f"eigensolver failed at grid index {tuple(idx)}: {exc}"
                ) from exc
        raise NumericalCheckFailure("batched eigensolver failed")
    meta = {
        "model_hash": model.content_hash,
        "grid_shape": list(grid.shape),
        "unitary": bool(grid.unitary),
    }
    return BandStructure(grid, bands, meta=meta)


def spectral_radius(bands: BandStructure) -> float:
    return float(np.max(np.abs(bands.bands)))


@dataclass(frozen=True)
class DegeneracyGroup:
    """A cluster of >= 2 eigenvalues at one grid point, closer than the gap tolerance."""

    grid_index: tuple
    flat_index: int
    eigenvalue: complex
    multiplicity: int
    band_indices: tuple


def _single_linkage(rows, radius: float):
    """Single-linkage clusters within each row: yields (row index, members).

    Two entries join a cluster when some chain of pairwise distances
    <= radius connects them (union-find, scalar `abs`).  A row's clusters come
    in order of their first member, each member list ascending.
    """
    for p, row in enumerate(rows):
        n = len(row)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(n):
            for j in range(i + 1, n):
                if abs(row[i] - row[j]) <= radius:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
        clusters: dict = {}
        for i in range(n):
            clusters.setdefault(find(i), []).append(i)
        for members in clusters.values():
            yield p, members


def detect_crossings(bands: BandStructure, gap_tol: float = None) -> tuple:
    """Single-linkage clusters (`_single_linkage`) of >= 2 eigenvalues per grid point.

    Default gap_tol is 1e-6 times the spectral radius of the sweep.
    """
    if gap_tol is None:
        radius = spectral_radius(bands)
        gap_tol = 1e-6 * radius if radius > 0 else 1e-12
    indices = bands.grid.indices
    return tuple(
        DegeneracyGroup(
            grid_index=tuple(int(v) for v in indices[p]),
            flat_index=p,
            eigenvalue=complex(np.mean(bands.bands[p, members])),
            multiplicity=len(members),
            band_indices=tuple(members),
        )
        for p, members in _single_linkage(bands.bands, float(gap_tol))
        if len(members) >= 2
    )


@dataclass(frozen=True)
class BlochVariety:
    """det(H(chi) - E) as a Laurent polynomial in chi and polynomial in E.

    `coeffs` has one axis per chi variable (length 2*bound+1, FFT exponent
    layout: index m means exponent m for m <= bound, m - (2*bound+1) above)
    plus a final axis of length dim+1 for powers of E.
    """

    genus: int
    dim: int
    bound: int
    coeffs: np.ndarray
    holdout_residual: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def _axis_exponents(self) -> np.ndarray:
        m = 2 * self.bound + 1
        e = np.arange(m)
        e[e > self.bound] -= m
        return e

    def terms(self) -> list:
        """Nonzero terms as (alpha tuple, E power, coefficient), canonically ordered."""
        exps = self._axis_exponents()
        out = []
        for flat_idx in np.argwhere(self.coeffs != 0):
            *chi_idx, j = flat_idx
            alpha = tuple(int(exps[i]) for i in chi_idx)
            out.append((alpha, int(j), complex(self.coeffs[tuple(flat_idx)])))
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    def evaluate(self, chi, E, with_scale: bool = False):
        """Value at one momentum vector and energy; optionally the |term|-sum scale."""
        chi = np.asarray(chi, dtype=complex).reshape(-1)
        if chi.size != 2 * self.genus:
            raise ValueError(f"need {2 * self.genus} momentum entries, got {chi.size}")
        exps = self._axis_exponents()
        acc = self.coeffs
        acc_abs = np.abs(self.coeffs)
        for i in range(2 * self.genus):
            powers = chi[i] ** exps
            acc = np.tensordot(powers, acc, axes=(0, 0))
            acc_abs = np.tensordot(np.abs(powers), acc_abs, axes=(0, 0))
        E = complex(E)
        e_powers = E ** np.arange(self.dim + 1)
        value = complex(np.dot(acc, e_powers))
        scale = float(np.dot(acc_abs, np.abs(e_powers)))
        if with_scale:
            return value, scale
        return value

    def to_json(self) -> dict:
        terms = [
            {"alpha": list(alpha), "power": j, "coeff": complex_to_json(c)}
            for alpha, j, c in self.terms()
        ]
        return {
            "hyperband_bloch_variety": 1,
            "genus": self.genus,
            "dim": self.dim,
            "exponent_bound": self.bound,
            "holdout_residual": self.holdout_residual,
            "terms": terms,
        }


def _char_coeffs_from_eigenvalues(lams: np.ndarray) -> np.ndarray:
    """Coefficients of prod_i (lam_i - E) in ascending powers of E, batched.

    lams: (P, d) -> (P, d+1).  Multiplies out one linear factor at a time.
    """
    P, d = lams.shape
    coeffs = np.zeros((P, d + 1), dtype=complex)
    coeffs[:, 0] = 1.0
    for i in range(d):
        prev = coeffs.copy()
        coeffs[:, :] = lams[:, i, None] * prev
        coeffs[:, 1:] -= prev[:, :-1]
    return coeffs


def bloch_variety(
    model: TightBindingModel,
    holdout_points: int = 20,
    tol: float = 1e-8,
    seed: int = 0,
    prune_rel: float = 1e-13,
) -> BlochVariety:
    """Recover det(H(chi) - E) as an exact finite Laurent/polynomial expansion.

    Samples chi on the (2d+1)^{2g} roots-of-unity grid, converts eigenvalues to
    characteristic-polynomial coefficients, and inverts the momentum dependence
    with an FFT.  Coefficients below prune_rel (relative to the largest) are
    zeroed.  A held-out random sample (reproducible via `seed`) must match
    direct determinant evaluation to `tol` relative, else
    NumericalCheckFailure is raised.
    """
    d = model.dim
    g = model.genus
    bound = d
    m = 2 * bound + 1
    axis = np.exp(2j * np.pi * np.arange(m) / m)
    chis, shape = _product_grid([axis] * (2 * g))
    stack = _assemble(model, chis, 1.0 / chis)
    try:
        # unsorted: sorting would reorder the products in the char-poly coefficients
        lams = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericalCheckFailure(f"eigensolver failed on the sampling grid: {exc}") from exc
    F = _char_coeffs_from_eigenvalues(lams)  # (P, d+1)
    F = F.reshape(shape + (d + 1,))
    coeffs = np.fft.fftn(F, axes=tuple(range(2 * g))) / (m ** (2 * g))
    peak = float(np.max(np.abs(coeffs)))
    if peak > 0:
        coeffs = np.where(np.abs(coeffs) <= prune_rel * peak, 0.0, coeffs)
    variety = BlochVariety(genus=g, dim=d, bound=bound, coeffs=coeffs, holdout_residual=0.0)

    rng = np.random.default_rng(seed)
    lam_scale = float(np.max(np.abs(lams))) if lams.size else 1.0
    worst = 0.0
    for _ in range(int(holdout_points)):
        mod = np.exp(rng.uniform(-0.3, 0.3, size=2 * g))
        phase = rng.uniform(0.0, 2 * np.pi, size=2 * g)
        chi = mod * np.exp(1j * phase)
        E = (rng.normal() + 1j * rng.normal()) * max(lam_scale, 1.0)
        # one-row batch: the (2g,) form rounds differently at d = 1, moving holdout_residual
        H = _assemble(model, chi[None, :], 1.0 / chi[None, :])[0]
        direct = complex(np.linalg.det(H - E * np.eye(d)))
        value, scale = variety.evaluate(chi, E, with_scale=True)
        rel = abs(value - direct) / max(scale, 1e-300)
        worst = max(worst, rel)
    if worst > tol:
        raise NumericalCheckFailure(
            f"Bloch-variety reconstruction failed its held-out check "
            f"(relative residual {worst:.3e} > {tol:.0e})"
        )
    return BlochVariety(
        genus=g, dim=d, bound=bound, coeffs=coeffs, holdout_residual=worst
    )


def write_bands_csv(bands: BandStructure, fh) -> None:
    """CSV with '#' header comments; one row per (grid point, band index).

    Columns: one integer grid index per momentum axis, the band index, then
    Re and Im of the eigenvalue.  Rows iterate grid points in row-major order
    and bands in ascending (Re, Im) order; decimal separator '.', field
    separator ','.
    """
    grid = bands.grid
    indices = grid.indices
    n_axes = len(grid.shape)
    fh.write("# hyperband bands v1\n")
    fh.write(
        f"# model_hash={bands.meta.get('model_hash', '')} "
        f"grid_shape={'x'.join(str(s) for s in grid.shape)} "
        f"hermitian={bands.hermitian}\n"
    )
    fh.write(
        "# rows: grid points in row-major order, bands sorted by (Re, Im); "
        "columns: grid indices, band, eigenvalue\n"
    )
    cols = [f"i{k}" for k in range(n_axes)] + ["band", "re", "im"]
    fh.write(",".join(cols) + "\n")
    for p in range(grid.n_points):
        prefix = ",".join(str(int(v)) for v in indices[p])
        for b in range(bands.n_bands):
            lam = bands.bands[p, b]
            # repr of the builtin float is the shortest round-tripping form
            fh.write(f"{prefix},{b},{float(lam.real)!r},{float(lam.imag)!r}\n")
