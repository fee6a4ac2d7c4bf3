"""Spectra over momentum grids, degeneracy detection, and Bloch varieties.

Eigenvalues are always reported sorted lexicographically by (Re, Im).  Sweeps
are embarrassingly parallel over grid points and are solved in cache-sized
batches; the output is independent of the batch size, and identical inputs
produce identical outputs (no threading nondeterminism is introduced here).
Band crossings and the branch points of `spectral_curve` share one
single-linkage clusterer (branch points, one row of roots, go straight to its
union-find).

The Bloch variety of a model is the polynomial det(H(chi) - E) viewed as a
Laurent polynomial in the momentum entries chi_1..chi_2g and an ordinary
polynomial in E.  Variable chi_i appears with exponents in [-r_i, r_i], r_i the
rank of its hop J_i (at most d): write chi_i J_i + chi_i^{-1} J_i^dagger as
[U V] diag(chi_i I_r, chi_i^{-1} I_r) [V U]^dagger with J_i = U V^dagger, and
by Cauchy-Binet the determinant is a sum over index sets S of minors of the
diagonal factor, chi_i^(a - b) with a, b <= r_i, times terms free of chi_i.
So coefficients are recovered exactly from samples on a
(2r_i+1)-point roots-of-unity grid per variable via the FFT, and the
E-coefficients at each sample come from elementary symmetric functions of the
eigenvalues.  A held-out residual check guards the reconstruction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._serialize import check_tolerance
from .errors import NumericalCheckFailure
from .momenta import TOL_UNITARY, AbelianMomentum
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
    unitary = bool(np.max(np.abs(np.abs(chis) - 1.0)) <= TOL_UNITARY)
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


#: bytes of Hamiltonians assembled and solved per slice (see `_slices`)
_CHUNK_BYTES = 1 << 20


def _slices(count: int, item_bytes: int) -> list:
    """range(count) in slices of at most `_CHUNK_BYTES`, one item at least.

    A trailing one-item slice joins a longer one before it: numpy rounds a
    broadcast complex product with a one-entry result without the fused
    multiply-add of its vector loops, so at d = 1 a lone point gets other bits.
    Sweeps, Bloch varieties and cover checks all slice by this rule.
    """
    step = max(1, _CHUNK_BYTES // item_bytes)
    starts = list(range(0, count, step))
    if step > 1 and len(starts) > 1 and count - starts[-1] == 1:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def _solve_stack(stack: np.ndarray, hermitian, name) -> np.ndarray:
    """Sorted spectra of a stack by one solver call per flag in `hermitian`.

    `hermitian` is one flag or one per matrix.  If a solver fails, its
    matrices are solved one at a time and the first failing one is named by
    `name(k)`, k its position in the stack.
    """
    flags = np.broadcast_to(hermitian, stack.shape[:1])
    out = None
    for flag in (True, False):
        picked = np.flatnonzero(flags == flag)
        if not picked.size:
            continue
        whole = picked.size == len(stack)
        part = stack if whole else stack[picked]
        try:
            values = _sorted_eigenvalues(part, flag)
        except NumericalCheckFailure:
            for k, matrix in zip(picked, part):
                try:
                    _sorted_eigenvalues(matrix, flag)
                except NumericalCheckFailure as exc:
                    raise NumericalCheckFailure(f"eigensolver failed at {name(k)}: {exc}") from exc
            raise NumericalCheckFailure("batched eigensolver failed")
        if whole:
            return values
        out = np.empty(stack.shape[:-1], dtype=complex) if out is None else out
        out[picked] = values
    return out


def sweep(model: TightBindingModel, grid: MomentumGrid) -> BandStructure:
    """Spectra over all grid points (row-major), solved in cache-sized slices.

    Assembly is elementwise and LAPACK solves each matrix on its own, so the
    bands do not depend on the slice size (see `_slices` for the exception).
    """
    if grid.genus != model.genus:
        raise ValueError(f"genus mismatch: model {model.genus}, grid {grid.genus}")
    bands = np.empty((grid.n_points, model.dim), dtype=complex)
    for part in _slices(grid.n_points, 16 * model.dim**2):
        chis = grid.chis[part]
        name = lambda k: f"grid index {np.unravel_index(part.start + k, grid.shape)}"
        bands[part] = _solve_stack(_assemble(model, chis, 1.0 / chis), grid.unitary, name)
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


def _single_linkage(rows, radius: float) -> tuple:
    """Single-linkage clusters of >= 2 entries within each row of a 2-D array.

    Two entries join a cluster when some chain of pairwise distances
    <= radius connects them, each distance the scalar `abs(x - y)`.

    Rows of reals (zero imaginary parts, as every Hermitian sweep gives)
    whose adjacent gaps are all >= 0 (sorted, and no nan from a nan or from
    equal infinities) are labelled as runs of adjacent gaps <= radius:
    abs(complex(x, 0.0)) == abs(x), and float subtraction rounds
    monotonically, so a pair within the radius has every adjacent gap between
    them within it.  Their clusters come back as three int arrays (row, first
    member, size), a cluster being its row's entries first..first+size-1.
    Every other row goes through `_union_find`, whose (row index, members)
    pairs come back as the fourth item.  Both parts are in row order, then in
    order of first member.
    """
    rows = np.asarray(rows)
    none = np.zeros(0, dtype=np.intp)
    # a whole-array any() first: the per-row one costs several times more
    runs = np.ones(len(rows), dtype=bool)
    if rows.imag.any():
        runs = ~rows.imag.any(axis=1)
        if not runs.any():
            return none, none, none, _union_find(rows, radius)
    re = rows.real
    gaps = re[:, 1:] - re[:, :-1]
    unsorted = ~(gaps >= 0)
    if unsorted.any():
        runs &= ~unsorted.any(axis=1)
    # joined gap i of a run row links entries i and i + 1; consecutive joined
    # gaps of one row form one cluster
    p, i = np.nonzero(gaps <= radius)
    keep = runs[p]
    p, i = p[keep], i[keep]
    starts = np.ones(p.size + 1, dtype=bool)
    starts[1:-1] = (p[1:] != p[:-1]) | (i[1:] != i[:-1] + 1)
    bounds = np.flatnonzero(starts)
    first, last = bounds[:-1], bounds[1:] - 1
    others = np.flatnonzero(~runs)
    clusters = []
    if others.size:
        ids = others.tolist()
        clusters = [(ids[r], m) for r, m in _union_find(rows[others], radius)]
    return p[first], i[first], i[last] - i[first] + 2, clusters


def _union_find(rows: np.ndarray, radius: float) -> list:
    """`_single_linkage` on any rows, through a union-find over candidate pairs.

    Candidate pairs come from each row sorted by Re: |Re(x - y)| never
    exceeds abs(x - y), and once no row has entries k apart in that order
    within the radius, no row has any further apart.
    """
    n = rows.shape[1]
    order = np.argsort(rows.real, axis=1)
    re = rows.real[np.arange(len(rows))[:, None], order]
    limit = radius * (1 + 1e-12)
    parent = {}  # node -> parent, for nodes that are not roots

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for k in range(1, n):
        p, i = np.nonzero(re[:, k:] - re[:, :-k] <= limit)
        if p.size == 0:
            break
        a, b = order[p, i], order[p, i + k]
        diffs = (rows[p, a] - rows[p, b]).tolist()
        for x, y, diff in zip((p * n + a).tolist(), (p * n + b).tolist(), diffs):
            if abs(diff) <= radius:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
    clusters: dict = {}
    for x in sorted(set(parent) | set(parent.values())):
        clusters.setdefault(find(x), []).append(x % n)
    return [(root // n, members) for root, members in clusters.items()]


def _gather_means(rows: np.ndarray, p: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """complex(np.mean(rows[p[k], cols[k]])) for each k, bit for bit: clusters of one size."""
    return np.add.reduce(rows[p[:, None], cols], axis=1) / cols.shape[1]


def _cluster_means(rows: np.ndarray, clusters: list) -> list:
    """`_gather_means` of (p, members) pairs, batched by size."""
    means = [None] * len(clusters)
    by_size: dict = {}
    for k, (_, members) in enumerate(clusters):
        by_size.setdefault(len(members), []).append(k)
    for ks in by_size.values():
        p = np.array([clusters[k][0] for k in ks])
        cols = np.array([clusters[k][1] for k in ks])
        for k, mean in zip(ks, _gather_means(rows, p, cols).tolist()):
            means[k] = mean
    return means


def _run_means(rows: np.ndarray, p, first, size) -> np.ndarray:
    """`_gather_means` of the runs (p, first, size), one gather per size."""
    means = np.empty(p.size, dtype=complex)
    for m in np.unique(size).tolist():
        k = np.flatnonzero(size == m)
        means[k] = _gather_means(rows, p[k], first[k, None] + np.arange(m))
    return means


def detect_crossings(bands: BandStructure, gap_tol: float = None) -> tuple:
    """Single-linkage clusters (`_single_linkage`) of >= 2 eigenvalues per grid point.

    Default gap_tol is 1e-6 times the spectral radius of the sweep.
    """
    if gap_tol is None:
        radius = spectral_radius(bands)
        gap_tol = 1e-6 * radius if radius > 0 else 1e-12
    rows = bands.bands
    p, first, size, others = _single_linkage(rows, float(gap_tol))
    if not (p.size or others):
        return ()
    # the columns of the runs' groups, then of the union-find's
    means = _run_means(rows, p, first, size).tolist()
    width = rows.shape[1] + 1
    codes, which = np.unique(first * width + size, return_inverse=True)
    spans = [tuple(range(a, a + m)) for a, m in (divmod(c, width) for c in codes.tolist())]
    members = [spans[k] for k in which.tolist()]  # one tuple per distinct (first, size)
    size = size.tolist()
    if others:
        runs = p.size
        p = np.concatenate([p, [r for r, _ in others]])
        means += _cluster_means(rows, others)
        members += [tuple(m) for _, m in others]
        size += [len(m) for _, m in others]
        if runs:  # the two routes' rows interleave
            order = np.argsort(p, kind="stable")
            p, ks = p[order], order.tolist()
            means, members, size = ([column[k] for k in ks] for column in (means, members, size))
    # one grid_index tuple per degenerate grid point
    new = np.ones(p.size, dtype=bool)
    new[1:] = p[1:] != p[:-1]
    points = list(map(tuple, bands.grid.indices[p[new]].tolist()))
    points = [points[k] for k in (np.cumsum(new) - 1).tolist()]
    # fields in order (grid_index, flat_index, eigenvalue, multiplicity,
    # band_indices): positional arguments build each group faster than keywords
    return tuple(map(DegeneracyGroup, points, p.tolist(), means, size, members))


@dataclass(frozen=True)
class BlochVariety:
    """det(H(chi) - E) as a Laurent polynomial in chi and polynomial in E.

    `coeffs` has one axis per chi variable plus a final axis of length dim+1
    for powers of E.  Chi axis i has odd length 2*r_i+1 in FFT exponent
    layout: index m means exponent m for m <= r_i, m - (2*r_i+1) above.
    `bound` is the largest r_i, a bound on every exponent.
    """

    genus: int
    dim: int
    bound: int
    coeffs: np.ndarray
    holdout_residual: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        *axes, n_powers = c.shape
        if len(axes) != 2 * self.genus or n_powers != self.dim + 1:
            raise ValueError(
                f"coeffs shape {c.shape} does not fit genus {self.genus}, dim {self.dim}"
            )
        if any(n % 2 == 0 for n in axes) or max(axes, default=1) != 2 * self.bound + 1:
            raise ValueError(
                f"chi axis lengths {tuple(axes)} are not 2*r+1 with max r = bound {self.bound}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @functools.cached_property
    def _exponents(self) -> tuple:
        """Exponent of each index, per chi axis, read off `coeffs.shape`."""
        return tuple((np.arange(m) + m // 2) % m - m // 2 for m in self.coeffs.shape[:-1])

    @functools.cached_property
    def _abs_coeffs(self) -> np.ndarray:
        return np.abs(self.coeffs)

    def _sorted_terms(self) -> tuple:
        """Alphas (n, 2g), E powers and coefficients of the nonzero terms, by (alpha, power)."""
        *chi_idx, powers = np.nonzero(self.coeffs)
        alphas = [e[i] for e, i in zip(self._exponents, chi_idx)]
        order = np.lexsort((powers, *alphas[::-1]))
        values = self.coeffs[(*chi_idx, powers)]
        return np.stack(alphas, axis=1)[order], powers[order], values[order]

    def terms(self) -> list:
        """Nonzero terms as (alpha tuple, E power, coefficient), canonically ordered."""
        alphas, powers, values = self._sorted_terms()
        return list(zip(map(tuple, alphas.tolist()), powers.tolist(), values.tolist()))

    def evaluate(self, chi, E, with_scale: bool = False):
        """Value at one momentum vector and energy; optionally the |term|-sum scale."""
        chi = np.asarray(chi, dtype=complex).reshape(-1)
        if chi.size != 2 * self.genus:
            raise ValueError(f"need {2 * self.genus} momentum entries, got {chi.size}")
        acc, acc_abs = self.coeffs, self._abs_coeffs
        # contract one chi axis per step: the (1, m) x (m, rest) product that
        # np.tensordot(powers, acc, axes=(0, 0)) makes, without its overhead
        for x, exps in zip(chi, self._exponents):
            powers = (x**exps).reshape(1, -1)
            rest = acc.shape[1:]
            acc = np.dot(powers, acc.reshape(exps.size, -1)).reshape(rest)
            acc_abs = np.dot(np.abs(powers), acc_abs.reshape(exps.size, -1)).reshape(rest)
        E = complex(E)
        e_powers = E ** np.arange(self.dim + 1)
        value = complex(np.dot(acc, e_powers))
        scale = float(np.dot(acc_abs, np.abs(e_powers)))
        if with_scale:
            return value, scale
        return value

    def to_json(self) -> dict:
        alphas, powers, values = self._sorted_terms()
        pairs = np.stack([values.real, values.imag], axis=1).tolist()
        terms = [{"alpha": a, "power": j, "coeff": c}
                 for a, j, c in zip(alphas.tolist(), powers.tolist(), pairs)]
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


#: largest accepted estimate of the arrays one call builds: `bloch_variety`'s
#: coefficient arrays (the char-poly samples, their FFT and the pruning
#: temporaries: 3 P (d+1) 16 B), and the CLI's bands grids and cover checks
_MAX_ARRAY_BYTES = 1 << 30


def _refuse_oversized(estimate: int, subject: str, arrays: str) -> None:
    """Refuse with ValueError, before allocating them, arrays past `_MAX_ARRAY_BYTES`."""
    if estimate > _MAX_ARRAY_BYTES:
        raise ValueError(
            f"{subject} too large: about {estimate / 1e9:.1f} GB of {arrays}; "
            f"the limit is {_MAX_ARRAY_BYTES / 1e9:.1f} GB"
        )


def bloch_variety(
    model: TightBindingModel,
    holdout_points: int = 20,
    tol: float = 1e-8,
    seed: int = 0,
) -> BlochVariety:
    """Recover det(H(chi) - E) as an exact finite Laurent/polynomial expansion.

    Samples chi_i at the 2r_i+1 roots of unity, r_i the numeric rank of hop
    J_i (numpy's default tolerance), converts eigenvalues to
    characteristic-polynomial coefficients, and inverts the momentum dependence
    with an FFT.  The grid is assembled and solved in slices of at most
    `_CHUNK_BYTES` of momenta and Hamiltonians.  A grid whose coefficient
    arrays would exceed `_MAX_ARRAY_BYTES` is refused with ValueError before any
    sampling.  Coefficients at or below 1e-13 of the largest are zeroed.  A
    held-out random sample (reproducible via `seed`) must match direct
    determinant evaluation to `tol` relative, else NumericalCheckFailure is
    raised; an undercounted rank fails it too.  A NaN, infinite or negative
    `tol` is refused with ValueError.
    """
    check_tolerance(tol)
    d = model.dim
    g = model.genus
    ranks = [int(np.linalg.matrix_rank(h)) for h in model.hops]
    shape = tuple(2 * r + 1 for r in ranks)
    n_points = math.prod(shape)
    _refuse_oversized(
        3 * n_points * (d + 1) * 16, "Bloch variety",
        f"coefficient arrays for a {'x'.join(map(str, shape))} sampling grid "
        f"(hop ranks {ranks}, dim {d})",
    )
    axes = [np.exp(2j * np.pi * np.arange(m) / m) for m in shape]
    F = np.empty((n_points, d + 1), dtype=complex)
    lam_scale = 0.0
    # a slice holds its momenta, their reciprocals and its Hamiltonians
    for part in _slices(n_points, 16 * (4 * g + d**2)):
        # row-major grid index of each point, peeled off from the last axis
        rest = np.arange(part.start, part.stop)
        chis = np.empty((rest.size, 2 * g), dtype=complex)
        for i in reversed(range(2 * g)):
            rest, k = np.divmod(rest, shape[i])
            chis[:, i] = axes[i][k]
        stack = _assemble(model, chis, 1.0 / chis)
        try:
            # unsorted: sorting would reorder the products in the char-poly coefficients
            lams = np.linalg.eigvals(stack)
        except np.linalg.LinAlgError as exc:
            raise NumericalCheckFailure(
                f"eigensolver failed on the sampling grid: {exc}"
            ) from exc
        F[part] = _char_coeffs_from_eigenvalues(lams)
        lam_scale = max(lam_scale, float(np.max(np.abs(lams))))
    coeffs = np.fft.fftn(F.reshape(shape + (d + 1,)), axes=tuple(range(2 * g)))
    del F  # freed before the pruning temporaries, as the size estimate assumes
    coeffs /= n_points
    mags = np.abs(coeffs)
    peak = float(np.max(mags))
    if peak > 0:
        coeffs[mags <= 1e-13 * peak] = 0.0
    bound = max(ranks)
    variety = BlochVariety(genus=g, dim=d, bound=bound, coeffs=coeffs, holdout_residual=0.0)

    rng = np.random.default_rng(seed)
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
    return replace(variety, holdout_residual=worst)


def write_bands_csv(bands: BandStructure, fh) -> None:
    """CSV with '#' header comments; one row per (grid point, band index).

    Columns: one integer grid index per momentum axis, the band index, then
    Re and Im of the eigenvalue.  Rows iterate grid points in row-major order
    and bands in ascending (Re, Im) order; decimal separator '.', field
    separator ','.
    """
    grid = bands.grid
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
    cols = [f"i{k}" for k in range(len(grid.shape))] + ["band", "re", "im"]
    fh.write(",".join(cols) + "\n")
    # one block per run of the last grid axis: its row heads "i0,...,ik,b,"
    # are built once, its values are repr'd in C (repr of the builtin float is
    # the shortest round-tripping form), and it is joined and written once
    *outer_shape, n_last = grid.shape
    heads = [""]
    for n in outer_shape:
        heads = [f"{head}{i}," for head in heads for i in range(n)]
    tails = [f"{i},{b}," for i in range(n_last) for b in range(bands.n_bands)]
    blocks = bands.bands.reshape(len(heads), len(tails))
    # every eigvalsh sweep has only +0.0 imaginary parts; a block of those
    # writes them as a constant, any other bit pattern (-0.0 too) by repr
    real = ~blocks.imag.view(np.int64).any(axis=1)
    real_parts = [None, None, ",0.0\n"] * len(tails)
    parts = [None, None, ",", None, "\n"] * len(tails)
    for head, block, is_real in zip(heads, blocks, real.tolist()):
        row_heads = [head + tail for tail in tails]
        if is_real:
            real_parts[0::3] = row_heads
            real_parts[1::3] = map(repr, block.real.tolist())
            fh.write("".join(real_parts))
        else:
            parts[0::5] = row_heads
            parts[1::5] = map(repr, block.real.tolist())
            parts[3::5] = map(repr, block.imag.tolist())
            fh.write("".join(parts))
