"""Spectra over momentum grids, degeneracy detection, and Bloch varieties.

Eigenvalues are always reported sorted lexicographically by (Re, Im).  A
momentum grid is the product of its 2g axes.  Sweeps sample their grids
through `_sampled_spectra`: it grows each cache-sized sub-box's Hamiltonians
from the axes by broadcast adds (`tight_binding._assemble`), so each hop term
chi_i J_i + chi_i^{-1} J_i^dagger is formed once per axis value, with the
bits of assembling each point alone, and solves each box as one stack.  The
output is independent of the box size, and identical inputs produce
identical outputs.  `write_bands_csv` writes the bands in the same
sub-boxes, each float as repr writes it, from repr's shortest digits formed
exactly in numpy (`_shortest_digits`); a sweep is sized once, by the 16 d
bytes of bands a point it holds.  `write_sweep_csv`, which the `bands`
command runs, solves and writes on two threads: the calling thread solves
the grid box by box while a worker writes each CSV box once its rows are
done, in order, so its bytes are those of `write_bands_csv(sweep(...))`.
A failure on either thread stops both, and the rows written before it stay
in the handle: the command writes a --out file through a new file that
replaces it only when whole, so a failed run leaves no partial CSV there,
while stdout (or a --out device or pipe) keeps those rows.  Band crossings are
single-linkage clusters per grid point, from `_clustering.single_linkage`,
which the branch points of `spectral_curve` share.

The Bloch variety of a model is the polynomial det(H(chi) - E) viewed as a
Laurent polynomial in the momentum entries chi_1..chi_2g and an ordinary
polynomial in E.  Variable chi_i appears with exponents in [-r_i, r_i], r_i the
rank of its hop J_i (at most d): write chi_i J_i + chi_i^{-1} J_i^dagger as
[U V] diag(chi_i I_r, chi_i^{-1} I_r) [V U]^dagger with J_i = U V^dagger, and
by Cauchy-Binet the determinant is a sum over index sets I of minors of the
diagonal factor, chi_i^(a - b) with a, b <= r_i, times terms free of chi_i.
Each Leibniz term takes at most one chi^{+-1} per row, so the exponents k
also satisfy sum_i |k_i| <= d: they lie in the support S = {k : |k_i| <= r_i,
sum |k_i| <= d}, far smaller than the (2r_i+1)-point box at g >= 2.  The
coefficients are recovered exactly from N ~ |S| samples on a rank-1 lattice
of the unitary torus, chi_i(j) = w_N^(z_i j) with k -> k.z mod N injective on
S (`_rank1_lattice`; N is the box where a search would cost more than it
saves), and one FFT of length N.  There H(chi) is Hermitian,
and the E-coefficients are elementary symmetric functions of its `eigvalsh`
eigenvalues.  The N - |S| bins no exponent maps to check for aliasing, and a
held-out check off the torus, its determinants taken in one batch and the
expansion evaluated at all its points in stacked passes with `evaluate`'s
bits, guards the reconstruction; non-finite coefficients or residuals fail
it.  `BlochVariety.json_text` writes the terms one column at a time.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from ._clustering import single_linkage
from ._serialize import Rows, check_tolerance, indented_dumps, integer, refuse_oversized
from .errors import NumericalCheckFailure
from .momenta import TOL_UNITARY
from .tight_binding import BlochHamiltonian, TightBindingModel, _assemble


def _roots_of_unity(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class MomentumGrid:
    """The product grid of 2g momentum axes: one abelian momentum per point.

    `axes` holds 2g non-empty 1-d complex arrays; grid point (j_1, ..., j_2g),
    in row-major order, is the momentum (axes[0][j_1], ..., axes[-1][j_2g]).
    `shape`, `n_points` and `genus` are read off the axes.  `unitary` is
    derived: every |chi| is within TOL_UNITARY of 1, so a sweep may solve
    with `eigvalsh`.
    """

    axes: tuple
    unitary: bool = field(init=False)

    def __post_init__(self):
        axes = tuple(np.array(a, dtype=complex) for a in self.axes)
        if any(a.ndim != 1 for a in axes):
            raise ValueError("grid axes must be 1-d arrays")
        if any(a.size == 0 for a in axes):
            raise ValueError("grid must contain at least one momentum")
        # finiteness is tested on the entries, since |chi| overflows near
        # 1e308; one |chi| pass per axis decides both "nonzero" (smallest
        # modulus > 0) and, below, max | |chi| - 1 | <= TOL_UNITARY: near 1
        # the subtraction is exact, so the extremes of |chi| decide it
        mods = [np.abs(a) for a in axes]
        if not all(np.all(np.isfinite(a)) and m.min() > 0 for a, m in zip(axes, mods)):
            raise ValueError("grid momenta must be finite and nonzero")
        if not axes or len(axes) % 2:
            raise ValueError(f"grid needs an even, nonzero number of axes (2g), got {len(axes)}")
        for a in axes:
            a.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        unitary = all(max(m.max() - 1.0, 1.0 - m.min()) <= TOL_UNITARY for m in mods)
        object.__setattr__(self, "unitary", unitary)

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def n_points(self) -> int:
        return math.prod(self.shape)

    @property
    def genus(self) -> int:
        return len(self.axes) // 2


def _axis_counts(genus: int, counts, n_moduli: int = 1) -> list:
    """The 2g phase counts (one broadcasts), refused before any axis is built
    if building the axes' entries, n_moduli moduli per phase, passes the size
    rule at 48 bytes an entry: an axis keeps 16, but its phase and modulus
    temporaries, the grid's copy and its |chi| pass peak at 41 to 45.  The
    grid's points are sized by `sweep`, by the bands it holds."""
    n_axes = 2 * genus
    counts = [integer(c, "axis count") for c in ([counts] if np.isscalar(counts) else counts)]
    if len(counts) == 1:
        counts = counts * n_axes
    if len(counts) != n_axes:
        raise ValueError(f"need {n_axes} axis counts (or one to broadcast), got {len(counts)}")
    if any(c < 1 for c in counts):
        raise ValueError("grid is empty: all axis counts must be >= 1")
    if n_moduli < 1:
        raise ValueError("grid is empty: n_moduli must be >= 1")
    entries = sum(counts) * n_moduli
    refuse_oversized(48 * entries, "bands grid", "axes of {} entries", entries)
    return counts


def unitary_grid(genus: int, counts) -> MomentumGrid:
    """Uniform phase grid on the unitary torus: chi_i = exp(2 pi i j / n_i)."""
    return MomentumGrid([_roots_of_unity(n) for n in _axis_counts(genus, counts)])


def complex_region_grid(genus: int, counts, log_modulus, n_moduli: int) -> MomentumGrid:
    """Grid over a rectangle in (log-modulus) x (phase) per chi variable.

    Each variable runs over n_moduli moduli exp(mu), mu uniform in
    [log_modulus[0], log_modulus[1]] (endpoints included), times `counts[i]`
    phases uniform on [0, 2 pi) -- modulus-major within the axis.  A modulus
    that overflows or is zero is refused before any axis is built.
    """
    n_moduli = integer(n_moduli, "n_moduli")
    counts = _axis_counts(genus, counts, n_moduli)
    lo, hi = float(log_modulus[0]), float(log_modulus[1])
    with np.errstate(over="ignore", invalid="ignore"):
        moduli = np.exp(np.linspace(lo, hi, n_moduli) if n_moduli > 1 else np.array([(lo + hi) / 2.0]))
    if not 0 < moduli.min() <= moduli.max() < np.inf:  # false for any NaN
        raise ValueError(f"region moduli exp({lo}) to exp({hi}) must be finite and nonzero")
    return MomentumGrid([(moduli[:, None] * _roots_of_unity(n)[None, :]).reshape(-1) for n in counts])


@dataclass(frozen=True)
class BandStructure:
    """Eigenvalues over a momentum grid, one sorted row per grid point."""

    grid: MomentumGrid
    bands: np.ndarray  # (P, N) complex, each row sorted by (Re, Im)
    model_hash: str = ""

    def __post_init__(self):
        bands = np.asarray(self.bands, dtype=complex)
        bands.setflags(write=False)
        object.__setattr__(self, "bands", bands)

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

    The last slice may hold one item.  Where that matters to the bits, the
    caller passes a one-item range as 0-d values (see `_assemble`).
    """
    step = max(1, _CHUNK_BYTES // max(item_bytes, 1))
    return [slice(a, min(a + step, count)) for a in range(0, count, step)]


def _sub_boxes(shape: tuple, point_bytes: int) -> list:
    """The grid `shape` as row-major sub-boxes (a slice per axis) of at most
    `_CHUNK_BYTES` at `point_bytes` a point, or of one point: the first axis
    whose trailing box fits is cut by `_slices`, every axis before it one
    index at a time, every axis after it kept whole.  Each box is contiguous
    in the flattened grid, and the boxes come in its order; `_sampled_spectra`
    assembles and solves, and `write_bands_csv` writes, one box at a time."""
    trailing = math.prod(shape)
    for k, m in enumerate(shape):
        trailing //= m
        if trailing * point_bytes <= _CHUNK_BYTES:
            break
    whole = (slice(None),) * (len(shape) - k - 1)
    return [
        (*(slice(j, j + 1) for j in lead), part, *whole)
        for lead in np.ndindex(shape[:k])
        for part in _slices(shape[k], trailing * point_bytes)
    ]


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


def _sampled_spectra(model: TightBindingModel, grid: MomentumGrid, point_bytes: int = 0):
    """Sorted spectra of `model` over `grid`, yielded per sub-box in row-major
    order as (slice of the flattened grid, its (n, d) spectra).

    The boxes are `_sub_boxes` at 32 d^2 bytes a point, a box's Hamiltonians
    and the partial sum its last add reads, or at `point_bytes` where that
    is more (`write_sweep_csv` cuts them no larger than its CSV boxes, so
    that a CSV box can be written once it is solved).  Each is assembled by
    `_assemble` from the grid's axes and their reciprocals, each shaped to
    broadcast along its grid axis, so a hop term is formed once per axis
    value; an axis range of one index enters as its 0-d value (see
    `_assemble`).  Each box is solved through `_solve_stack` with
    `grid.unitary`, and a failing point is named by its grid index.
    """
    d, n = model.dim, len(grid.shape)
    axes = [a.reshape((-1,) + (1,) * (n + 1 - i)) for i, a in enumerate(grid.axes)]
    inverses = [1.0 / a for a in axes]

    def cut(axis, s):  # a range of one index as its 0-d value
        part = axis[s]
        return part.reshape(()) if len(part) == 1 else part

    offset = 0
    for box in _sub_boxes(grid.shape, max(point_bytes, 32 * d * d)):
        chi = [cut(a, s) for a, s in zip(axes, box)]
        chi_inv = [cut(a, s) for a, s in zip(inverses, box)]
        H = _assemble(model, chi, chi_inv).reshape(-1, d, d)
        name = lambda k: f"grid index {tuple(map(int, np.unravel_index(offset + k, grid.shape)))}"
        yield slice(offset, offset + len(H)), _solve_stack(H, grid.unitary, name)
        offset += len(H)


def _sweep_bands(model: TightBindingModel, grid: MomentumGrid) -> np.ndarray:
    """The unfilled (P, d) bands of a sweep of `model` over `grid`, after its
    checks: a genus mismatch, or bands (16 d bytes a point) that pass the
    size rule, raise ValueError before any assembly."""
    if grid.genus != model.genus:
        raise ValueError(f"genus mismatch: model {model.genus}, grid {grid.genus}")
    n_points = grid.n_points
    refuse_oversized(16 * model.dim * n_points, "bands grid", "bands for {} points", n_points)
    return np.empty((n_points, model.dim), dtype=complex)


def sweep(model: TightBindingModel, grid: MomentumGrid) -> BandStructure:
    """Spectra over all grid points (row-major), from `_sampled_spectra`.

    Assembly is elementwise and LAPACK solves each matrix on its own, so the
    bands do not depend on the box size.  The run is refused (ValueError)
    before any assembly if its bands, 16 d bytes a point, pass the size rule.
    """
    bands = _sweep_bands(model, grid)
    for part, values in _sampled_spectra(model, grid):
        bands[part] = values
    return BandStructure(grid, bands, model.content_hash)


def write_sweep_csv(model: TightBindingModel, grid: MomentumGrid, fh) -> None:
    """Write `write_bands_csv(sweep(model, grid), fh)`, the same bytes, on two
    threads, refused as `sweep` refuses a run.

    This thread assembles and solves the boxes of `_sampled_spectra`, cut
    no larger than the CSV boxes, and counts the points done.  A worker
    thread runs the CSV writer `_write_csv` on the bands so far, writing
    each CSV box once its points are done, so the text is formatted and
    written while later boxes are solved: the CSV kernel's numpy passes
    release the GIL.  (The solves stay on this thread: OpenBLAS runs two
    threads' eigensolves one at a time.)  A failure on either thread stops
    both.  The worker is joined before this returns or raises,
    KeyboardInterrupt included, and its error is raised here.  Whatever
    reached `fh` before a failure stays there.
    """
    bands = _sweep_bands(model, grid)
    turn = threading.Condition()
    done, final, failed = 0, False, []

    def ready(stop: int) -> bool:  # wait for the first `stop` points; False: never
        with turn:
            while done < stop and not final:
                turn.wait()
            return done >= stop

    def write() -> None:
        try:
            _write_csv(grid, bands, model.content_hash, fh, ready)
        except BaseException as exc:
            with turn:
                failed.append(exc)

    worker = threading.Thread(target=write, name="hyperband-bands-csv")
    worker.start()
    try:
        for part, values in _sampled_spectra(model, grid, _CSV_ROW_BYTES * model.dim):
            bands[part] = values
            with turn:
                if failed:
                    break
                done = part.stop
                turn.notify()
    finally:
        with turn:
            final = True
            turn.notify()
        worker.join()
    if failed:
        raise failed[0]


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


def detect_crossings(bands: BandStructure, gap_tol: float = None) -> tuple:
    """Single-linkage clusters (`_clustering.single_linkage`) of >= 2 eigenvalues per grid point.

    Default gap_tol is 1e-6 times the spectral radius of the sweep, which must
    be finite; a given one that is NaN, infinite or negative raises ValueError.
    """
    if gap_tol is None:
        radius = spectral_radius(bands)
        if not math.isfinite(radius):
            raise ValueError(f"spectral radius is {radius}: give gap_tol explicitly")
        gap_tol = 1e-6 * radius if radius > 0 else 1e-12
    else:
        check_tolerance(gap_tol, "gap_tol")
    p, start, size, members, means = single_linkage(bands.bands, float(gap_tol))
    if not p.size:
        return ()
    # one band_indices tuple per distinct member set: per cluster size, the
    # sets are ranked one member at a time (the codes stay below clusters x bands)
    width = bands.bands.shape[1]
    spans = np.empty(p.size, dtype=object)
    for m in np.flatnonzero(np.bincount(size)).tolist():
        k = np.flatnonzero(size == m)
        sets = members[start[k, None] + np.arange(m)]
        which = sets[:, 0]
        for column in sets.T[1:]:
            _, first, which = np.unique(which * width + column, return_index=True, return_inverse=True)
        spans[k] = np.fromiter(map(tuple, sets[first].tolist()), dtype=object, count=first.size)[which]
    # one grid_index tuple per degenerate grid point
    new = np.ones(p.size, dtype=bool)
    new[1:] = p[1:] != p[:-1]
    points = list(zip(*(i.tolist() for i in np.unravel_index(p[new], bands.grid.shape))))
    points = [points[k] for k in (np.cumsum(new) - 1).tolist()]
    # fields in order (grid_index, flat_index, eigenvalue, multiplicity,
    # band_indices): positional arguments build each group faster than keywords
    return tuple(map(DegeneracyGroup, points, p.tolist(), means.tolist(), size.tolist(), spans.tolist()))


@dataclass(frozen=True)
class BlochVariety:
    """det(H(chi) - E) as a Laurent polynomial in chi and polynomial in E.

    `coeffs` has one axis per chi variable plus a final axis of length dim+1
    for powers of E.  Chi axis i has odd length 2*r_i+1 in FFT exponent
    layout: index m means exponent m for m <= r_i, m - (2*r_i+1) above.
    `genus`, `dim` and `bound`, the largest r_i and so a bound on every
    exponent, are read off the shape.
    """

    coeffs: np.ndarray
    holdout_residual: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        *axes, n_powers = c.shape
        if not axes or len(axes) % 2 or any(n % 2 == 0 for n in axes) or n_powers < 2:
            raise ValueError(f"coeffs shape {c.shape} is not 2g odd chi axes and an E axis of length >= 2")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def genus(self) -> int:
        return (self.coeffs.ndim - 1) // 2

    @property
    def dim(self) -> int:
        return self.coeffs.shape[-1] - 1

    @property
    def bound(self) -> int:
        return max(self.coeffs.shape[:-1]) // 2

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

    def evaluate(self, chi, E, with_scale: bool = False):
        """Value at one momentum vector and energy; optionally the |term|-sum scale."""
        chi = np.asarray(chi, dtype=complex).reshape(1, -1)
        if chi.shape[1] != 2 * self.genus:
            raise ValueError(f"need {2 * self.genus} momentum entries, got {chi.shape[1]}")
        values, scales = self._evaluate_points(chi, np.array([complex(E)]))
        value = complex(values[0])
        if with_scale:
            return value, float(scales[0])
        return value

    def _evaluate_points(self, chis: np.ndarray, energies: np.ndarray) -> tuple:
        """Values and |term|-sum scales at P points: chis (P, 2g), energies (P,).

        Contracts one chi axis per step for all points at once, as the stacked
        product (P, 1, m) @ (1 or P, m, rest), then takes the E powers as
        (P, 1, d+1) @ (P, d+1, 1).  matmul hands each stacked item to BLAS
        gemv (or dot), as np.tensordot does with one point's powers, so each
        point gets the bits of evaluating it alone, in any slice; a
        (P, m) @ (m, rest) product would go through gemm and round otherwise.
        """
        acc, acc_abs = self.coeffs[None], self._abs_coeffs[None]
        for x, exps in zip(chis.T, self._exponents):
            powers = (x[:, None] ** exps)[:, None, :]
            acc = np.matmul(powers, acc.reshape(len(acc), exps.size, -1))
            acc_abs = np.matmul(np.abs(powers), acc_abs.reshape(len(acc_abs), exps.size, -1))
        e_powers = (energies[:, None] ** np.arange(self.dim + 1))[..., None]
        values = np.matmul(acc, e_powers).reshape(-1)
        scales = np.matmul(acc_abs, np.abs(e_powers)).reshape(-1)
        return values, scales

    def json_text(self) -> str:
        """The JSON document: genus, dim, exponent_bound, holdout_residual and
        one {alpha, coeff: [re, im], power} object per term, in `_sorted_terms`
        order, written column by column (`_serialize.Rows`).  A non-finite
        coefficient or residual raises ValueError."""
        alphas, powers, values = self._sorted_terms()
        residual = float(self.holdout_residual)
        if not math.isfinite(residual):
            raise ValueError("a Bloch variety with a non-finite residual has no JSON text")
        terms = Rows(alpha=list(alphas.T), coeff=[values.real, values.imag], power=powers)
        return indented_dumps({
            "dim": self.dim, "exponent_bound": self.bound, "genus": self.genus,
            "holdout_residual": residual, "hyperband_bloch_variety": 1, "terms": terms,
        })


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


#: off-torus points the held-out check of `bloch_variety` draws
_HOLDOUT_POINTS = 20


def _exponent_support(ranks: list, d: int) -> np.ndarray:
    """S = {k : |k_i| <= r_i, sum_i |k_i| <= d} as an (|S|, 2g) integer array.

    Built one axis at a time, each prefix extended only by the values its
    remaining l1 budget allows, so the (2r_i+1)-point box is never formed.
    """
    support = np.zeros((1, 0), dtype=np.int64)
    for r in ranks:
        values = np.arange(-r, r + 1)
        budget = d - np.abs(support).sum(axis=1)
        keep = np.abs(values) <= budget[:, None]
        rows, cols = np.nonzero(keep)
        support = np.concatenate([support[rows], values[cols, None]], axis=1)
    return support


#: Korobov multipliers a the lattice search tries, z = (1, a, a^2, ...) mod N
_KOROBOV = np.arange(2, 18)

#: points times dim a lattice search must be able to save before it runs: a
#: stacked `eigvalsh` costs about 0.65 dim microseconds a point on an x86
#: core, a search some 10 to 15 microseconds for each size it tries
_SEARCH_MIN_WORK = 128


def _rank1_lattice(support: np.ndarray, shape: tuple, dim: int) -> tuple:
    """(N, z) with k -> k.z mod N injective on `support`, N at most the box.

    N grows from |S| by steps of 1/20 (rounded up); at each N every Korobov
    generator z = (1, a, a^2, ...) mod N, a in `_KOROBOV`, on the axes that
    vary in S (0 on the others), is tried at once, and the first injective
    one (smallest N, then smallest a) is taken.  The last candidate is the
    box itself, N = prod(shape) with the mixed-radix z of its row-major
    layout, which is injective on every support in it.  It is taken at once
    when the points a search could save, box - |S|, times `dim` fall short
    of `_SEARCH_MIN_WORK` (S filling the box among them).
    """
    box = math.prod(shape)
    radix = np.array([math.prod(shape[i + 1:]) for i in range(len(shape))], dtype=np.int64)
    n = len(support)
    if (box - n) * dim < _SEARCH_MIN_WORK:
        return box, radix
    varying = np.flatnonzero(support.any(axis=0))
    powers = np.zeros((_KOROBOV.size, support.shape[1]), dtype=np.int64)
    powers[:, varying] = _KOROBOV[:, None] ** np.arange(varying.size)
    # k.(1, a, a^2, ...) once, exact while d 17^(m - 1) < 2^63 for m varying
    # axes (the size rule of `bloch_variety` allows m <= 14): mod N it is k.z
    values = powers @ support.T
    while n < box:
        bins = values % n
        bins.sort(axis=1)
        injective = np.flatnonzero((bins[:, 1:] != bins[:, :-1]).all(axis=1))
        if injective.size:
            return n, powers[injective[0]] % n
        n += -(-n // 20)
    return box, radix


def _lattice_coefficients(model: TightBindingModel, ranks: list) -> tuple:
    """The pruned coefficients of det(H(chi) - E) in the box layout of
    `BlochVariety`, and the largest |eigenvalue| sampled.

    The rank-1 lattice of `_rank1_lattice` on the support S of the ranks is
    sampled at chi_i(j) = w_N^(z_i j): its Hamiltonians are assembled from
    (P, 1, 1) columns (a one-point slice from 0-d values) in `_slices` of at
    most `_CHUNK_BYTES`, and, on the unitary torus and so Hermitian, solved by
    `eigvalsh` through `_solve_stack`; a failed solve names its lattice point.
    Their characteristic-polynomial coefficients go through one FFT of length
    N, which puts c_k in bin k.z mod N.  A non-finite bin, or a bin no
    exponent maps to above the pruning threshold, 1e-13 of the largest bin
    (an undercounted rank aliases there), raises NumericalCheckFailure; bins
    at or below it are zeroed.  The samples and bins are freed on return.
    """
    d = model.dim
    shape = tuple(2 * r + 1 for r in ranks)
    support = _exponent_support(ranks, d)
    n, z = _rank1_lattice(support, shape, d)
    chis = _roots_of_unity(n)[np.outer(np.arange(n), z) % n]
    inverses = 1.0 / chis

    def columns(a):  # a one-point slice as 0-d values (see `_assemble`)
        return a[0] if len(a) == 1 else a.T[..., None, None]

    F = np.empty((n, d + 1), dtype=complex)
    lam_scale = 0.0
    # an overflowing characteristic polynomial is refused below, by its peak
    with np.errstate(over="ignore", invalid="ignore"):
        for part in _slices(n, 32 * d * d):
            H = _assemble(model, columns(chis[part]), columns(inverses[part])).reshape(-1, d, d)
            lams = _solve_stack(H, True, lambda k: f"lattice point {part.start + k}")
            F[part] = _char_coeffs_from_eigenvalues(lams)
            lam_scale = max(lam_scale, float(np.max(np.abs(lams))))
        bins = np.fft.fftn(F, axes=(0,))
        bins /= n
    mags = np.abs(bins)
    peak = float(np.max(mags))
    if not math.isfinite(peak):
        raise NumericalCheckFailure(
            f"Bloch-variety coefficients are not finite (largest magnitude {peak}): "
            "the characteristic polynomial overflows"
        )
    used = support @ z % n
    off = np.ones(n, dtype=bool)
    off[used] = False
    alias = float(np.max(mags[off], initial=0.0))
    if alias > 1e-13 * peak:
        raise NumericalCheckFailure(
            f"Bloch-variety samples alias: a bin off the exponent support holds "
            f"{alias / peak:.3e} of the peak (> 1e-13), so a hop rank is undercounted"
        )
    bins[mags <= 1e-13 * peak] = 0.0
    coeffs = np.zeros(shape + (d + 1,), dtype=complex)
    coeffs[tuple(support.T)] = bins[used]
    return coeffs, lam_scale


def bloch_variety(model: TightBindingModel, tol: float = 1e-8, seed: int = 0) -> BlochVariety:
    """Recover det(H(chi) - E) as an exact finite Laurent/polynomial expansion.

    Each Leibniz term of the determinant takes at most one chi_i^{+-1} per
    row, so every exponent k lies in S = {k : |k_i| <= r_i, sum |k_i| <= d},
    r_i the numeric rank of hop J_i (numpy's default tolerance).  The
    coefficients are recovered on a rank-1 lattice of N ~ |S| points (the
    box's where that saves too little) and one FFT (`_lattice_coefficients`),
    with its aliasing check, and returned in
    the (2r_i+1)-per-axis box layout of `BlochVariety`.  A box whose
    coefficient arrays would exceed the size rule's limit is refused with
    ValueError before any sampling.  `_HOLDOUT_POINTS` random points off the
    torus (reproducible via `seed`) must match their direct determinants, one
    batched `det`, to `tol` relative, else NumericalCheckFailure is raised;
    the expansion is evaluated at all of them in stacked passes, in point
    slices held to `_CHUNK_BYTES`, each point with the bits `evaluate` gives;
    an undercounted rank fails it too, and so do non-finite coefficients (an
    overflowing characteristic polynomial) and a NaN or overflowing residual.
    A NaN, infinite or negative `tol` is refused with ValueError.
    """
    check_tolerance(tol)
    d = model.dim
    g = model.genus
    ranks = np.linalg.matrix_rank(np.stack(model.hops)).tolist()
    shape = tuple(2 * r + 1 for r in ranks)
    n_points = math.prod(shape)
    # the samples, their FFT and the coefficient box, none larger than the box
    refuse_oversized(
        3 * n_points * (d + 1) * 16, "Bloch variety",
        f"coefficient arrays for a {'x'.join(map(str, shape))} exponent box "
        f"(hop ranks {ranks}, dim {d})",
    )
    coeffs, lam_scale = _lattice_coefficients(model, ranks)
    variety = BlochVariety(coeffs, holdout_residual=0.0)

    # drawn point by point, in the order `seed` fixes, then solved as one
    # stack and evaluated in point slices
    rng = np.random.default_rng(seed)
    chis = np.empty((_HOLDOUT_POINTS, 2 * g), dtype=complex)
    energies = np.empty(_HOLDOUT_POINTS, dtype=complex)
    for p in range(_HOLDOUT_POINTS):
        mod = np.exp(rng.uniform(-0.3, 0.3, size=2 * g))
        chis[p] = mod * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=2 * g))
        energies[p] = (rng.normal() + 1j * rng.normal()) * max(lam_scale, 1.0)
    H = _assemble(model, chis.T[..., None, None], (1.0 / chis).T[..., None, None])
    H[:, np.arange(d), np.arange(d)] -= energies[:, None]
    direct = np.linalg.det(H).tolist()
    # a point's largest intermediates are the partial sums of the first two
    # contractions, complex and |.| (24 bytes an entry), held at once
    rest = coeffs.size // shape[0]
    values = np.empty(_HOLDOUT_POINTS, dtype=complex)
    scales = np.empty(_HOLDOUT_POINTS)
    for part in _slices(_HOLDOUT_POINTS, 24 * (rest + rest // shape[1])):
        values[part], scales[part] = variety._evaluate_points(chis[part], energies[part])
    residuals = []
    for value, scale, det in zip(values.tolist(), scales.tolist(), direct):
        try:
            residuals.append(abs(value - det) / max(scale, 1e-300))
        except OverflowError:  # |value - det| beyond the float range
            residuals.append(math.inf)
    worst = float(np.max(residuals))  # a NaN residual is the worst
    if not worst <= tol:
        raise NumericalCheckFailure(
            f"Bloch-variety reconstruction failed its held-out check "
            f"(relative residual {worst:.3e} > {tol:.0e})"
        )
    return replace(variety, holdout_residual=worst)


def _text_tables() -> tuple:
    """The CSV writer's ASCII words: entry n is text as one uint32, its four
    bytes in text order, with a NUL wherever no text shows.

    `_FRACTION[n]`, n < 10^4: the four digits of n, and at n + 10^4 the same
    with their trailing zeros NUL.  `_SMALL_INTEGER[n]`, n < 100: [sign
    slot, n with a leading zero NUL, '.'].  `_ZEROS_FIRST[10 z + d]`, z < 4:
    z zeros, NUL padding, digit d.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row n: n's digits
    place, text = np.arange(4, dtype=np.int8), digits + np.uint8(48)
    last = np.where(digits != 0, place, -1).max(axis=1, keepdims=True)  # of a nonzero digit
    fraction = np.concatenate([text, np.where(place <= last, text, np.uint8(0))])
    small = np.zeros((100, 4), np.uint8)
    small[10:, 1] = text[10:100, 2]
    small[:, 2] = text[:100, 3]
    small[:, 3] = 46
    zeros_first = np.zeros((4, 10, 4), np.uint8)
    zeros_first[..., :3] = np.where(place[:3] < np.arange(4)[:, None, None], np.uint8(48), np.uint8(0))
    zeros_first[..., 3] = text[:10, 3]
    return tuple(table.view(np.uint32).ravel() for table in (fraction, small, zeros_first))


_FRACTION, _SMALL_INTEGER, _ZEROS_FIRST = _text_tables()
#: 10^j as int64; as float64, exact to 10^22, with its Dekker split
_POW10 = 10 ** np.arange(19)
_POW10F = 10.0 ** np.arange(23)
_POW10F_HI = _POW10F * 134217729.0 - (_POW10F * 134217729.0 - _POW10F)
_POW10F_LO = _POW10F - _POW10F_HI


def _words(text: bytes) -> np.ndarray:
    """The words of a constant text, NUL-padded, as (n, 1, 1) uint32."""
    return np.frombuffer(text.ljust(-(-len(text) // 4) * 4, b"\0"), np.uint32)[:, None, None]


_COMMA, _NEWLINE, _REAL_TAIL = (_words(t) for t in (b",", b"\n", b",0.0\n"))
#: '-' in a word's first byte, the sign slot
_MINUS = _words(b"-")[0, 0, 0]


def _integer_text(n: np.ndarray, width: int) -> np.ndarray:
    """n.shape + (width,) uint8: each integer 0 <= n < 10^width in decimal,
    right-aligned, its leading zeros NUL."""
    text = np.empty(n.shape + (width,), np.uint8)
    for j, place in enumerate(_POW10[width - 1::-1]):
        digit = n // place
        digit -= digit // 10 * 10
        text[..., j] = np.where((n >= place) | (place == 1), digit + 48, 0)
    return text


def _shortest_digits(x: np.ndarray) -> tuple:
    """(c, k, exact): repr's digits of each |x|, x 1-d, as the integer c of
    17 digits, zero-padded, with |x| = c 10^(k - 17), on the lanes where
    `exact`; on the others, those of 1.0.

    With p = 16 - floor(log10 |x|), M = |x| 10^p lies in [10^16, 10^17) and
    is formed exactly as N + f, N an integer and 0 <= f < 1, by Dekker's
    product (10^p is exact).  Writing |x| = m 2^q (m of 53 bits), the values
    that read back as x lie within h = 10^p 2^(q-1) > 1/2 of M (within h / 2
    below it if m is a power of two, but for none of the 65 powers of two
    in range does that cut off a candidate; the kernel's tests check each).
    repr writes the fewest digits that land there, nearest to M: the
    multiple of 10^j nearest M (17 - j digits), for the largest j at which
    it lies inside.  Inside holds at j = 0, and once it fails it fails for
    every larger j, so levels 1 and 2 are tested on every lane and each
    larger one only on the lanes still inside.  All of it is exact: f, h
    and the distances below 100 are multiples of 2^(q+p-1) that doubles
    hold.

    A lane is left to repr (`exact` false) outside 1e-4 <= |x| < 2^52,
    repr's fixed notation without [2^52, 1e16): below 2^52, q + p <= 0,
    so M +- h is an odd multiple of 2^(q+p-1), never an integer, and no
    candidate lies on a bound, whose inclusion repr decides by the parity
    of m.  So are the lanes where log10 misses the decade (N outside
    [10^16, 10^17 - 16), the top also keeping 10^17 out of reach) and the
    ties between two candidates inside, f = 1/2 at 17 digits and
    N mod 10 + f = 5 at 16 (any other tie lies farther than h).
    """
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 2.0**52)
    a[~exact] = 1.0  # c and k of 1.0 on those lanes
    p = 16 - np.floor(np.log10(a)).astype(np.int64)
    ten_p = _POW10F[p]
    hi = a * ten_p
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p_hi, p_lo = _POW10F_HI[p], _POW10F_LO[p]
    lo = a_hi * p_hi - hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    # each temporary goes once used: `_CSV_ROW_BYTES` counts those held
    del a_hi, a_lo, p_hi, p_lo
    whole = np.floor(lo)
    N = hi.astype(np.int64) + whole.astype(np.int64)
    f = lo - whole
    del hi, lo, whole
    # half an ulp of a, 2^(q-1), from its exponent bits, times 10^p (exact)
    h = ((a.view(np.int64) >> 52) - 53 << 52).view(np.float64) * ten_p
    del a, ten_p
    # remainders as n - (n // t) t: numpy divides by a scalar far faster
    # than it takes a remainder
    r100 = N - N // 100 * 100
    r10 = r100 - r100 // 10 * 10
    low1 = r10 + f
    high1 = 10.0 - low1
    exact &= ((N - 10**16).view(np.uint64) < 9 * 10**16 - 16) & (f != 0.5) & (low1 != 5.0)
    # the nearest candidate of 16 digits if it is inside, else of 17
    c = np.where(np.minimum(low1, high1) < h, N - r10 + 10 * (high1 < low1), N + (f > 0.5))
    low2 = r100 + f
    deep = np.flatnonzero(exact & (np.minimum(low2, 100.0 - low2) < h))
    del r10, low1, high1, r100, low2
    for t in _POW10[2:17]:
        n, g, u = N[deep], f[deep], h[deep]
        r = n - n // t * t
        low, high = r + g, (t - r) - g
        inside = np.flatnonzero(np.minimum(low, high) < u)
        if not inside.size:
            break
        deep = deep[inside]
        c[deep] = (n - r + t * (high < low))[inside]
    return c, 17 - p, exact


def _float_words(x: np.ndarray) -> np.ndarray:
    """(width, x.size) uint32: repr(v) of each float v of the 1-d x as
    `width` words, NUL-padded, one column a float.

    The digits of `_shortest_digits` are laid out in fixed notation: words
    of sign, integer part and '.' (one word below 100), the zeros after
    '.' (up to three) with the first fraction digit, and the 16 fraction
    digits after it with their trailing zeros NUL.  The other lanes but
    zeros are written by repr, whose text never passes the 24 bytes these
    hold.
    """
    fraction, k, exact = _shortest_digits(x)
    missed = np.flatnonzero(~exact)
    # below 2^52 the integer part is floor(|x|): repr's digits round to x,
    # never across an integer, which is a double there
    integer = np.floor(np.abs(x), where=exact, out=np.zeros(x.shape)).astype(np.int64)
    whole = np.maximum(k, 0)
    fraction -= integer * _POW10[17 - whole]
    fraction *= _POW10[whole]  # the fraction's digits from the first on
    fraction[missed] = 0
    # a zero's words, those of 0 with 1.0's k, read "0.0" after its sign
    missed = missed[x[missed] != 0]
    top = int(integer.max(initial=0))
    n_head = 1 if top < 100 else (len(str(top)) + 5) // 4
    words = np.empty((n_head + 5, x.size), np.uint32)
    if n_head == 1:
        words[0] = _SMALL_INTEGER[integer]
    else:
        text = np.zeros((x.size, 4 * n_head), np.uint8)
        text[:, 1:-1] = _integer_text(integer, 4 * n_head - 2)
        text[:, -1] = 46
        words[:n_head] = text.view(np.uint32).T
    words[0] += np.signbit(x) * _MINUS
    first = fraction // 10**16
    words[n_head] = _ZEROS_FIRST[(whole - k) * 10 + first]  # below 1, -k zeros
    fraction -= first * 10**16
    upper = fraction // 10**8
    lower = fraction - upper * 10**8
    # a word with only zeros after it takes its trailing-zero-free form
    last = lower - lower // 10000 * 10000
    words[-1] = _FRACTION[last + 10000]
    words[-2] = _FRACTION[lower // 10000 + 10000 * (last == 0)]
    last = upper - upper // 10000 * 10000
    words[-3] = _FRACTION[last + 10000 * (lower == 0)]
    words[-4] = _FRACTION[upper // 10000 + 10000 * ((lower == 0) & (last == 0))]
    if missed.size:
        del integer, whole, fraction, first, upper, lower, last
        text = np.fromiter(map(repr, x[missed].tolist()), f"S{4 * len(words)}", missed.size)
        words[:, missed] = text.view(np.uint32).reshape(missed.size, -1).T
    return words


#: a CSV row's bytes while its box is written, as traced: its block of words
#: (12 to 18 for sweep rows, up to 25 with 16-digit integer parts) held
#: twice while it is transposed into a byte buffer, or the float kernel's
#: eight-byte temporaries, about 14 a float, next to the real part's words;
#: the traced peaks run from 130 to 230 bytes a row over those cases
_CSV_ROW_BYTES = 256


def write_bands_csv(bands: BandStructure, fh) -> None:
    """CSV with '#' header comments; one row per (grid point, band index).

    Columns: one integer grid index per momentum axis, the band index, then
    Re and Im of the eigenvalue.  Rows iterate grid points in row-major order
    and bands in ascending (Re, Im) order; decimal separator '.', field
    separator ','.  Every float is written as repr writes it, by the kernel
    `_float_words`, exact, with repr itself on the values it does not
    certify.  The rows are written one `_sub_boxes` box at a time, at
    `_CSV_ROW_BYTES` a row, so the text held at once stays within the box
    budget whatever the grid's shape.
    """
    _write_csv(bands.grid, bands.bands, bands.model_hash, fh)


def _write_csv(grid: MomentumGrid, bands: np.ndarray, model_hash: str, fh, ready=None) -> None:
    """The CSV writer of `write_bands_csv`, on the (P, d) `bands` over `grid`.

    `ready(stop)`, if given, is called before each box's rows are read: it
    returns True once the first `stop` grid points' bands are in place, or
    False when they never will be, which ends the CSV there.
    """
    d = bands.shape[1]
    cols = [f"i{k}" for k in range(len(grid.shape))] + ["band", "re", "im"]
    fh.write(
        f"# hyperband bands v1\n# model_hash={model_hash} "
        f"grid_shape={'x'.join(map(str, grid.shape))} hermitian={grid.unitary}\n"
        "# rows: grid points in row-major order, bands sorted by (Re, Im); "
        f"columns: grid indices, band, eigenvalue\n{','.join(cols)}\n"
    )
    if not d:
        return
    # every box holds the axes after its cut axis whole: their row tails
    # "j,...,b," are built once, and a box's rows are its heads (lead and
    # cut-axis indices) times them, then its values.  The box's text is one
    # block of NUL-padded words, a row a column while it is built; it is
    # transposed, stripped of its NULs and written once
    boxes = _sub_boxes(grid.shape, _CSV_ROW_BYTES * d)
    n_cut = len(grid.shape) - boxes[0].count(slice(None))
    tails = [""]
    for n in (*grid.shape[n_cut:], d):
        tails = [f"{tail}{i}," for tail in tails for i in range(n)]
    width = -(-max(map(len, tails)) // 4) * 4
    points = len(tails) // d  # grid points a cut-axis index holds
    tails = np.array(tails, dtype=f"S{width}").view(np.uint32).reshape(len(tails), -1).T[:, None, :]
    values = bands.reshape(grid.shape + (d,))
    stop = 0  # the boxes are contiguous in the flattened grid, in its order
    for box in boxes:
        *lead, cut = box[:n_cut]
        prefix = np.frombuffer("".join(f"{s.start}," for s in lead).encode(), np.uint8)
        index = np.arange(cut.start, cut.stop)
        digits = len(str(cut.stop - 1))
        heads = np.zeros((index.size, -(-(prefix.size + digits + 1) // 4) * 4), np.uint8)
        heads[:, :prefix.size] = prefix
        heads[:, prefix.size:prefix.size + digits] = _integer_text(index, digits)
        heads[:, prefix.size + digits] = 44
        heads = heads.view(np.uint32).T[:, :, None]
        stop += index.size * points
        if ready is not None and not ready(stop):
            return
        fh.write(_rows_text(heads, tails, values[box].reshape(index.size, -1)))


def _rows_text(heads: np.ndarray, tails: np.ndarray, part: np.ndarray) -> str:
    """The CSV rows of one box: `heads` (words, H, 1) times `tails` (words,
    1, T), then the complex values `part` (H, T).

    The rows are one block of NUL-padded words, a row a column while it is
    built, then transposed into a byte buffer, which drops its NULs.
    """
    # every eigvalsh sweep has only +0.0 imaginary parts; a box of those
    # writes them as a constant, any other bit pattern (-0.0 too) by kernel
    pieces = [heads, tails, _float_words(part.real.ravel()).reshape(-1, *part.shape)]
    if part.imag.view(np.int64).any():
        pieces += [_COMMA, _float_words(part.imag.ravel()).reshape(-1, *part.shape), _NEWLINE]
    else:
        pieces.append(_REAL_TAIL)
    block = np.empty((sum(map(len, pieces)),) + part.shape, np.uint32)
    start = 0
    for piece in pieces:
        block[start:start + len(piece)] = piece
        start += len(piece)
    del pieces
    text = bytearray(block.nbytes)
    np.frombuffer(text, np.uint32).reshape(part.size, -1)[...] = block.reshape(len(block), -1).T
    del block
    text = text.translate(None, b"\0")
    return text.decode("ascii")
