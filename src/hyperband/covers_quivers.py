"""Finite unbranched covers, supercells, induced momenta, and hopping quivers.

A degree-N cover of the genus-g group is a tuple of 2g permutations of the
sheets {1..N} (one per generator, acting on the right: words walk sheets left
to right) whose relator permutation is the identity.  Two pushforward routes
turn base models + cover data into spectra:

  * `supercell(model, cover)`: one tight-binding model on the cover group,
    with N-fold larger cells, built by Reidemeister-Schreier rewriting;
  * `induce(chi, cover)`: the induced monomial nonabelian momentum on the
    base group, fed to `bloch_nonabelian`.  It is stored as permutations
    and phases (per generator the sheet targets and the rho and rho^-1
    entries), so its checks and its Hamiltonian never form a dense N x N
    matrix or a Kronecker product; see `momenta.NonabelianMomentum`.

Both produce the same Hamiltonian matrix in the same state ordering
(cell index major, sheet index minor), so their spectra agree; see
`pushforward_check`.

The Reidemeister-Schreier data, whose (2g, N) class codes the induced
momenta are read from, is derived once per cover and cached on it.  The
supercell routes read one per-(model, cover) table, `CoverPushforward`,
built once: the cover's genus and connectivity and d x d blocks keyed by
sheet pair.  It holds nothing of size (dN)^2, so a genus-2, d = 4,
N = 4096 cover builds within 40 MB.  `CoverPushforward.check_batch`, the one
check, compares the routes at many characters and yields one report per
trial: per slice of trials it checks the induced phases, fills both
Hamiltonian stacks from the blocks and solves each stack with one eigensolver
call, so `cover-check` pays its Python overhead per slice, not per character,
and holds one slice's figures at a time.

The rewriting pipeline reads one form of the cover, its (2g, N) arrays of
sheet targets and sources.  One BFS, cached on the cover like the Schreier
data built from it, yields the components and the spanning forest, a (2g, N)
mask of tree edges: the parent links of a Schreier transversal.  Each of the
2gN directed edges (sheet s, generator gamma) carries the Schreier element
t_s gamma t_{s.gamma}^{-1}, trivial on tree edges.  One walk of the relator from every sheet at once
(`surface_group._walk`, which also serves the cover's relator check and the
monomial relator residual) gives the N rewritten relators, abelianized over
the non-tree edges into sparse rows.  One exact sparse integer eliminator,
`_eliminate`, diagonalizes those rows and records the column transform.
The surviving free quotient has rank 2 * genus(cover), and each edge class
-- read from the transform's free columns, sparse -- must be zero or +- a
basis direction; its code goes straight into the (2g, N) code array every
later step reads.  A cover whose classes cannot be straightened this way
(they exist!) gets an UnsupportedCoverError rather than a silently wrong
supercell.  The last test, that the directions form a unimodular basis,
runs the same eliminator on the direction matrix and asks for a +-1
diagonal.  Every step is near linear in N on the covers tried: 0.1 s at
N = 2048.

A quiver presents one model's Hamiltonian as nodes (atoms = groups of cell
states) and block arrows (label: which generator the hop crosses, or none for
on-site blocks).  `torus_action` scales arrows by character values.  Each
quiver sums its arrows once into a dense layout (the on-site matrix and a
forward and a reverse matrix per generator), and `reassemble` runs
`bloch_abelian`'s own kernel, `tight_binding._assemble`, on it, so the round
trip is bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._serialize import check_tolerance, document, integer, read_json, refuse_oversized
from .errors import UnsupportedCoverError
from .momenta import (
    TOL_UNITARY,
    AbelianMomentum,
    NonabelianMomentum,
    _monomial_checks,
    _monomial_unitarity,
)
from .spectra import _slices, _solve_stack
from .surface_group import _walk, make_surface_group
from .tight_binding import TightBindingModel, _assemble, _assemble_monomial, _place_blocks


@dataclass(frozen=True)
class UnbranchedCover:
    """sheets N and one sheet permutation per generator (one-indexed images).

    perms[i][s-1] is the sheet reached from sheet s along generator i+1.  The
    relator permutation must be the identity (that is what makes the data a
    genuine cover of the surface group, not just of the free group).  Every
    sheet walk reads the same data as read-only zero-indexed (2g, N) arrays:
    targets[i, s] = perms[i][s] - 1 and its inverse, sources.
    """

    sheets: int
    perms: tuple
    targets: np.ndarray = field(init=False, repr=False, compare=False)
    sources: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = integer(self.sheets, "sheets")
        if n < 1:
            raise ValueError("a cover needs at least one sheet")
        perms = tuple(tuple(integer(v, "a sheet in perms") for v in p) for p in self.perms)
        if len(perms) == 0 or len(perms) % 2 != 0:
            raise ValueError("need 2g permutations for some g >= 1")
        for idx, p in enumerate(perms):
            if len(p) != n or min(p) < 1 or max(p) > n:
                raise ValueError(f"entry {idx + 1} is not a permutation of 1..{n}: {p}")
        targets = np.array(perms, dtype=np.intp) - 1
        bad = (np.sort(targets, axis=1) != np.arange(n)).any(axis=1)
        if bad.any():
            idx = int(np.argmax(bad))
            raise ValueError(f"entry {idx + 1} is not a permutation of 1..{n}: {perms[idx]}")
        sources = np.argsort(targets, axis=1)
        for a in (targets, sources):
            a.setflags(write=False)
        object.__setattr__(self, "sheets", n)
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "sources", sources)
        _, end = _walk(make_surface_group(len(perms) // 2).relator(), targets, sources)
        if (end != np.arange(n)).any():
            raise ValueError(
                "the relator permutation is not the identity; "
                "this is a free-group cover but not a surface-group cover"
            )

    @property
    def genus(self) -> int:
        """Genus of the base group."""
        return len(self.perms) // 2

    @functools.cached_property
    def _forest(self) -> tuple:
        """(tree, components) from one BFS over the sheets.

        Roots are taken least unvisited sheet first; a visited sheet looks
        along the generators in order, forward before backward.  That order
        fixes the tree, hence the relator columns, the eliminator's V and the
        CLI bytes, so it must stay.  tree (2g, N) marks at [gen - 1, s] each
        edge s -> s.gen that reached a new sheet: the parent links of a
        Schreier transversal, so exactly the edges whose Schreier element is
        trivial by construction.  components are sorted tuples of sheets.
        """
        targets, sources = self.targets.tolist(), self.sources.tolist()
        tree = np.zeros(self.targets.shape, dtype=bool)
        seen, components = [False] * self.sheets, []
        for root in range(self.sheets):
            if seen[root]:
                continue
            seen[root], queue = True, [root]
            for s in queue:  # the queue grows while it is read
                for i, (forward, backward) in enumerate(zip(targets, sources)):
                    for reached, edge in ((forward[s], s), (backward[s], backward[s])):
                        if not seen[reached]:
                            seen[reached] = tree[i, edge] = True
                            queue.append(reached)
            components.append(tuple(sorted(queue)))
        tree.setflags(write=False)
        return tree, tuple(components)

    @functools.cached_property
    def _schreier(self) -> _SchreierData:
        """`_schreier_data(self)`, derived on first use and kept.

        A refused cover keeps nothing: each access raises
        UnsupportedCoverError again.
        """
        return _schreier_data(self)

    def components(self) -> tuple:
        """Connected components as sorted tuples of 0-indexed sheets."""
        return self._forest[1]

    @property
    def transitive(self) -> bool:
        return len(self.components()) == 1


def cover_genus(cover: UnbranchedCover) -> int:
    """Genus of the covering surface group: sum over components of N_j(g-1)+1."""
    return sum(len(c) * (cover.genus - 1) + 1 for c in cover.components())


# ---------------------------------------------------------------------------
# Reidemeister-Schreier data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SchreierData:
    codes: np.ndarray  # (2g, N) class code of edge s -> s.gen at [gen - 1, s]: 0 for
    # the trivial class, 1 + i for +d_i, 1 + G + i for -d_i, G = 2 * genus_cover;
    # the entry of [1, chi, chi^-1] that rho reads there ([1, chi^-1, chi] for rho^-1)
    directions: tuple  # deduplicated sign-normalized nonzero classes, basis order,
    # each as its sorted nonzero (coordinate, value) pairs
    genus_cover: int


def _eliminate(rows: list, width: int):
    """Exact integer diagonalization by unimodular row and column operations.

    `rows` are sparse, {column: value} mappings over columns 0..width-1.
    Returns (diagonal, transform): the diagonal entries of
    (unimodular) @ rows @ V, min(len(rows), width) of them, and a function
    giving the unimodular width x width column transform V: transform(first)
    is the list of V's rows restricted to column positions first..width-1,
    each a sparse {position: value} dict with no zeros, so transform(0) is
    all of V.  Rank = #nonzero diagonal entries, torsion-freeness = all
    nonzero entries are +-1, |det| of a square input = |product of the
    diagonal|, and the class of basis vector e_j in the quotient by the row
    lattice is row j of transform(rank).

    Stage t takes the first nonzero entry at or past (t, t) in row-major
    order as its pivot and moves it to (t, t).  Then, until row t and column
    t are clear past the pivot, it reduces row t's later entries by column
    operations and column t's lower entries by row operations, each time
    swapping a nonzero remainder in as the new pivot.  This rule fixes V,
    hence the hop classes, the supercells and the CLI bytes, so it must stay.
    Its one condition: on general integer matrices it lets entries grow
    without bound (one random 7 x 7 matrix with entries in [-3, 3] passed
    4,000 digits within 2 s).  The matrices reduced here stay small: relator
    rows are face-edge incidences, every column e_f - e_f' or zero, and
    their entries have stayed within +-1 at every sheet count tried; the
    hop-direction matrices are nearly signed permutations.

    Storage is sparse: {column: value} rows and a column -> rows index.
    Swaps only relabel positions.  V = E_1 ... E_m is kept as its column
    operations E_k, and `transform` multiplies them out backwards onto the
    requested columns only, so the free columns cost about their own size.
    All of V can be far larger: on the chain-shaped relator rows of a cyclic
    cover each column operation carries the pivot column's entries on to the
    next column, so at N = 1024 sheets (width 3,073) V holds 526,849
    entries, all but 3,073 of them in pivot columns that no class reads.
    """
    n = len(rows)
    R = [{j: int(v) for j, v in row.items() if v} for row in rows]
    holders = [set() for _ in range(width)]  # column -> rows nonzero there
    for i, row in enumerate(R):
        for j in row:
            holders[j].add(i)
    row_at, row_pos = list(range(n)), list(range(n))  # position <-> row
    col_at, col_pos = list(range(width)), list(range(width))  # position <-> column
    steps = []  # (j, pivot, q): column j -= q * column pivot, in order

    def put(i, j, value):
        if value:
            R[i][j] = value
            holders[j].add(i)
        elif R[i].pop(j, 0):
            holders[j].discard(i)

    def swap_rows(a, b):
        row_at[a], row_at[b] = row_at[b], row_at[a]
        row_pos[row_at[a]], row_pos[row_at[b]] = a, b

    def swap_cols(a, b):
        col_at[a], col_at[b] = col_at[b], col_at[a]
        col_pos[col_at[a]], col_pos[col_at[b]] = a, b

    def below(t):  # positions of rows past t that are nonzero in column t
        return sorted(row_pos[i] for i in holders[col_at[t]] if row_pos[i] > t)

    for t in range(min(n, width)):
        start = next((p for p in range(t, n) if R[row_at[p]]), None)
        if start is None:
            break
        swap_rows(t, start)
        swap_cols(t, min(col_pos[j] for j in R[row_at[t]]))
        while True:
            # shrink the pivot by column operations along its row ...
            pivot_row = R[row_at[t]]
            for p in sorted(col_pos[j] for j in pivot_row if col_pos[j] > t):
                j, pivot = col_at[p], col_at[t]
                q = pivot_row[j] // pivot_row[pivot]
                for i in holders[pivot]:
                    put(i, j, R[i].get(j, 0) - q * R[i][pivot])
                steps.append((j, pivot, q))
                if j in pivot_row:
                    swap_cols(t, p)
            # ... and by row operations along its column
            for p in below(t):
                row, pivot_row, pivot = R[row_at[p]], R[row_at[t]], col_at[t]
                q = row[pivot] // pivot_row[pivot]
                for j, v in pivot_row.items():
                    put(row_at[p], j, row.get(j, 0) - q * v)
                if pivot in row:
                    swap_rows(t, p)
            if len(R[row_at[t]]) == 1 and not below(t):
                break
    diagonal = [R[row_at[t]].get(col_at[t], 0) for t in range(min(n, width))]

    def transform(first: int) -> list:
        # rows of E_1 (E_2 (... (E_m P))), P the identity's columns at
        # positions first..; E_k (column j -= q column pivot) acting from
        # the left is: row pivot -= q row j
        V = {col_at[p]: {p: 1} for p in range(first, width)}
        for j, pivot, q in reversed(steps):
            source = V.get(j)
            if source and q:
                target = V.setdefault(pivot, {})
                for c, v in source.items():
                    value = target.get(c, 0) - q * v
                    if value:
                        target[c] = value
                    else:
                        del target[c]
        return [V.get(i, {}) for i in range(width)]

    return diagonal, transform


def _schreier_data(cover: UnbranchedCover) -> _SchreierData:
    g, n = cover.genus, cover.sheets
    tree = cover._forest[0]
    # the non-tree edges, sheet major, are the columns of the relator rows
    k = int(tree.size - np.count_nonzero(tree))
    column = np.full(tree.shape, -1)
    column.T[~tree.T] = np.arange(k)

    # abelianized rewritten relators: one sparse row per starting sheet
    rows = [{} for _ in range(n)]
    steps, _ = _walk(make_surface_group(g).relator(), cover.targets, cover.sources)
    for gen, exp, crossed in steps:
        for row, j in zip(rows, column[gen - 1][crossed].tolist()):
            if j >= 0:
                row[j] = row.get(j, 0) + exp

    g_cover = cover_genus(cover)
    diagonal, transform = _eliminate(rows, k)
    rank = sum(1 for d in diagonal if d != 0)
    if any(d != 0 and abs(d) != 1 for d in diagonal):
        raise UnsupportedCoverError(
            "the rewritten relators leave torsion in the hop-class lattice; "
            "this cover cannot carry a single-generator-hop supercell"
        )
    free = k - rank
    if free != 2 * g_cover:
        raise UnsupportedCoverError(
            f"free hop-class rank {free} does not match 2 * genus(cover) = {2 * g_cover}"
        )

    # an edge's class is its row of V at the free columns; sign-normalized,
    # its first nonzero coordinate is positive
    directions = {}  # class -> direction index, in first-seen order
    classes = []  # the code of each non-tree edge, in column order
    for row in transform(rank):
        cls = sorted((c - rank, v) for c, v in row.items())
        if not cls:
            classes.append(0)
            continue
        sign = 1 if cls[0][1] > 0 else -1
        base = tuple((c, sign * v) for c, v in cls)
        classes.append(1 + directions.setdefault(base, len(directions)) + (free if sign < 0 else 0))
    if len(directions) != free:
        raise UnsupportedCoverError(
            f"found {len(directions)} distinct hop directions but the free rank "
            f"is {free}; the classes cannot be straightened to single generators"
        )
    if any(abs(x) != 1 for x in _eliminate([dict(c) for c in directions], free)[0]):
        raise UnsupportedCoverError(
            "hop directions do not form a unimodular basis of the class lattice"
        )
    codes = np.zeros(tree.shape, dtype=int)
    codes.T[~tree.T] = classes
    return _SchreierData(codes=codes, directions=tuple(directions), genus_cover=g_cover)


def _induced_phases(chi: np.ndarray, chi_inv: np.ndarray, edges: tuple) -> tuple:
    """(forward, backward) phases, lead + (2g, N), of characters lead + (2G,)."""
    one = np.ones(chi.shape[:-1] + (1,))
    forward = np.concatenate((one, chi, chi_inv), axis=-1)[..., edges[1]]
    return forward, np.concatenate((one, chi_inv, chi), axis=-1)[..., edges[1]]


@dataclass(frozen=True)
class PushforwardReport:
    """Outcome of comparing the two pushforward routes at one character."""

    n_states: int
    connected: bool
    genus_cover: int
    matrix_distance: float
    spectral_distance: float
    spectral_radius: float
    tolerance: float
    passed: bool


class CoverPushforward:
    """Both pushforward routes for one (model, cover) pair, built once.

    Construction does all the per-(model, cover) work: `edges` (the cover's
    targets and its cached class codes, the induced momenta are read from
    them), the cover's genus and connectivity, and d x d blocks keyed by sheet
    pair, each kind in one stacked pass over all edges.  `onsite` is (zero,
    rows, cols, blocks): the symmetrized on-site block blocks[k] at sheet pair
    (rows[k], cols[k]) and the pattern of signed zeros, `zero`, at every other
    pair.  `hop_blocks` is (directions, rows, cols, A, B), sorted by cover
    generator, then pair: A[k] is the block of cover generator
    directions[k] + 1 from cell states (., cols[k]) to (., rows[k]), B[k]
    that of its dagger.
    States are ordered (cell state) major, (sheet) minor, as in
    `bloch_nonabelian`; an edge of trivial class lands in the on-site blocks,
    one of class +-d_i in cover generator i+1 (forward or dagger side).
    """

    def __init__(self, model: TightBindingModel, cover: UnbranchedCover):
        data = cover._schreier
        if cover.genus != model.genus:
            raise ValueError(f"genus mismatch: model {model.genus}, cover {cover.genus}")
        n, d = cover.sheets, model.dim
        n_gens, n_dirs = 2 * model.genus, 2 * data.genus_cover
        self.model = model
        self.sheets = n
        self.genus_cover = data.genus_cover
        self.connected = cover.transitive
        self.edges = (cover.targets, data.codes)
        # each edge (s -> t along gen) in edge order, s major, its class
        # code (0 trivial, 1 + i for +d_i, 1 + n_dirs + i for -d_i) and the
        # keys of its sheet pairs (s, t) and (t, s); blocks several edges
        # share sum them in this order
        s, t = np.repeat(np.arange(n), n_gens), self.edges[0].T.ravel()
        gen, code = np.tile(np.arange(n_gens), n), self.edges[1].T.ravel()
        st, ts, trivial = s * n + t, t * n + s, code == 0
        hops, daggers = np.array(model.hops), np.array(model.hops_dagger)

        # A dense build adds every trivial-class edge's hop over the whole
        # matrix, so entries off its block collect the signed zero J * 0,
        # and eigensolvers branch on the sign of a zero.  Seeding the
        # diagonal blocks with M * 1 and the other blocks, and the pattern
        # every sheet pair without a block holds, with M * 0, each summed
        # with those zeros, then adding the blocks in edge order, gives the
        # dense on-site matrix bit for bit.
        zero = np.zeros((d, d), dtype=complex)
        seeds = [model.onsite * (zero + 1.0), model.onsite * zero]
        for i in sorted(set(gen[trivial].tolist())):
            for J in (hops[i], daggers[i]):
                seeds = [seed + J * zero for seed in seeds]
        # a trivial edge adds J at (s, t), then J^dagger at (t, s)
        i, keys = gen[trivial], np.stack([st[trivial], ts[trivial]], 1).ravel()
        keys = np.concatenate([np.arange(n) * (n + 1), keys])
        pairs, where = np.unique(keys, return_inverse=True)
        rows, cols = np.divmod(pairs, n)
        blocks = np.where((rows == cols)[:, None, None], seeds[0], seeds[1])
        np.add.at(blocks, where[n:], np.stack([hops[i], daggers[i]], 1).reshape(-1, d, d))
        # symmetrized exactly as TightBindingModel does it; the pairs come
        # in transposed pairs, so each block meets its mirror's dagger
        mirrors = blocks[np.searchsorted(pairs, cols * n + rows)].conj().transpose(0, 2, 1)
        self.onsite = ((seeds[1] + seeds[1].conj().T) / 2.0, rows, cols, (blocks + mirrors) / 2.0)

        # class +d_i adds J at (s, t) to cover generator i + 1, class -d_i
        # adds J^dagger at (t, s); keys (generator, row, col) sort as stored
        def mirror(keys):
            direction, pair = np.divmod(keys, n * n)
            return direction * n * n + (pair % n) * n + pair // n

        i, code, st, ts = gen[~trivial], code[~trivial], st[~trivial], ts[~trivial]
        positive = code <= n_dirs
        keys = (np.where(positive, code, code - n_dirs) - 1) * n * n + np.where(positive, st, ts)
        keys, where = np.unique(keys, return_inverse=True)
        summed = np.zeros((keys.size, d, d), dtype=complex)
        np.add.at(summed, where, np.where(positive[:, None, None], hops[i], daggers[i]))
        # A is zero where only the dagger has a block, and B[(s, t)] is
        # A[(t, s)]^dagger, entry for entry what the dense J.conj().T holds
        # np.unique without return_inverse (or np.union1d) imports numpy.ma
        stored = np.unique(np.concatenate([keys, mirror(keys)]), return_inverse=True)[0]
        A = np.zeros((stored.size, d, d), dtype=complex)
        A[np.searchsorted(stored, keys)] = summed
        B = A[np.searchsorted(stored, mirror(stored))].conj().transpose(0, 2, 1).copy()
        directions, pairs = np.divmod(stored, n * n)
        self.hop_blocks = (directions, *np.divmod(pairs, n), A, B)

    def _supercell_stack(self, chi: np.ndarray, chi_inv: np.ndarray) -> np.ndarray:
        """(T, dN, dN) supercell Hamiltonians at (T, 2G) characters.

        In `bloch_abelian`'s order on the dense supercell: on-site, then a
        chi_i A_i + chi_i^-1 B_i step per cover generator on its pairs only.
        """
        d, n = self.model.dim, self.sheets
        # Off its blocks a dense step adds chi_i * (0 + 0j) + chi_i^-1 * (0 - 0j),
        # whose imaginary part is -0 only if Re chi_i <= -0 <= Re chi_i^-1 and
        # both imaginary parts are <= -0.  Then Re(chi_i chi_i^-1) <= 0, which
        # the reciprocal checks refuse (`AbelianMomentum`'s, and in
        # `check_batch` `_monomial_checks`, run before any stack is built).
        # So the steps turn every imaginary -0 into +0, and no on-site entry
        # has real part -0 (the products with seeds 1 + 0j and 0 + 0j,
        # symmetrized, leave none): adding +0 once, up front, does the same.
        plus = np.zeros((len(chi), 1, 1))
        zero, rows, cols, blocks = self.onsite
        H = _place_blocks(zero + plus, rows, cols, blocks + plus[:, None], n)
        directions, rows, cols, A, B = self.hop_blocks
        steps = chi[:, directions, None, None] * A + chi_inv[:, directions, None, None] * B
        # unbuffered, in stored order: a pair's steps add in generator order
        view = H.reshape(len(chi), d, n, d, n)
        np.add.at(view, (slice(None), slice(None), rows, slice(None), cols), np.moveaxis(steps, 1, 0))
        return H

    def check_batch(self, chi, chi_inv, tol: float = 1e-9):
        """Compare the two routes at (T, 2G) characters and reciprocals.

        A generator of one `PushforwardReport` per trial, in trial order; it
        runs nothing, its argument checks included, until its first report is
        read.  In slices of at most `spectra._CHUNK_BYTES` of Hamiltonians,
        the induced phases are checked as `NonabelianMomentum` checks them (a
        failure names its trial), and both stacks are assembled and solved,
        one solver call each per Hermitian flag, each route by its own flags;
        a slice's reports are yielded before the next slice is built.
        """
        check_tolerance(tol)
        chi, chi_inv = np.asarray(chi, dtype=complex), np.asarray(chi_inv, dtype=complex)
        if chi.ndim != 2 or chi.shape[1] != 2 * self.genus_cover or chi_inv.shape != chi.shape:
            raise ValueError(
                f"need (T, {2 * self.genus_cover}) characters, got {chi.shape} and {chi_inv.shape}"
            )
        d, n = self.model.dim, self.sheets
        # a trial's two stacks, their difference and its moduli: 3.5 (dN)^2 complexes
        refuse_oversized(56 * (d * n) ** 2, "cover check", "Hamiltonians of {} states per trial", d * n)
        for part in _slices(len(chi), 2 * 16 * (d * n) ** 2):
            forward, backward = _induced_phases(chi[part], chi_inv[part], self.edges)
            _monomial_checks(self.edges[0], forward, backward, first=part.start)
            induced = _assemble_monomial(self.model, self.edges[0], forward, backward)
            supercell = self._supercell_stack(chi[part], chi_inv[part])
            unitary = np.max(np.abs(np.abs(chi[part]) - 1.0), axis=-1) <= TOL_UNITARY
            name = lambda k, start=part.start: f"trial {start + k}"
            spec_a = _solve_stack(induced, _monomial_unitarity(forward) <= TOL_UNITARY, name)
            spec_b = _solve_stack(supercell, unitary, name)
            columns = zip(
                np.max(np.abs(induced - supercell), axis=(-2, -1)).tolist(),
                np.max(np.abs(spec_a - spec_b), axis=-1).tolist(),
                np.max(np.abs(spec_a), axis=-1).tolist(),
                np.max(np.abs(spec_b), axis=-1).tolist(),
            )
            del induced, supercell  # freed before the next slice builds its stacks
            for matrix_distance, distance, radius_a, radius_b in columns:
                radius = max(radius_a, radius_b)
                passed = distance <= tol * max(radius, 1e-12)
                facts = (d * n, self.connected, self.genus_cover, matrix_distance, distance, radius)
                yield PushforwardReport(*facts, tol, passed)


def supercell(model: TightBindingModel, cover: UnbranchedCover) -> TightBindingModel:
    """The cover-group tight-binding model with N-fold cells.

    Dense matrices placed from the blocks of `CoverPushforward`; see there
    for the state ordering and which edge goes where.
    """
    table = CoverPushforward(model, cover)
    # the placed matrices, the model's copies of them and its hop daggers
    n_matrices, n = 6 * table.genus_cover + 2, model.dim * cover.sheets
    refuse_oversized(16 * n_matrices * n**2, "supercell", "{} dense matrices of {} states", n_matrices, n)
    directions, rows, cols, A, _ = table.hop_blocks
    bounds = np.searchsorted(directions, np.arange(2 * table.genus_cover + 1))
    # each hop block is added to +0, as a dense sum would, turning -0 into +0
    zero = np.zeros((model.dim, model.dim), dtype=complex)
    hops = [
        _place_blocks(zero, rows[a:b], cols[a:b], zero + A[a:b], cover.sheets)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    onsite = _place_blocks(*table.onsite, cover.sheets)
    return TightBindingModel(make_surface_group(table.genus_cover), onsite, hops)


def induce(chi: AbelianMomentum, cover: UnbranchedCover) -> NonabelianMomentum:
    """Monomial momentum on the base group induced from a cover-group character.

    rho(gamma)[s, s.gamma] is the character evaluated on the edge's Schreier
    element, read through the same direction assignment the supercell uses
    (class +-d_i means the i-th cover generator, so the two pushforward
    routes sample identical character values edge by edge); inverses are
    exact monomial transposes built from the character's stored reciprocals.
    """
    if not isinstance(chi, AbelianMomentum):
        raise TypeError("induce expects an AbelianMomentum on the cover group")
    data = cover._schreier
    if chi.genus != data.genus_cover:
        raise ValueError(
            f"character has genus {chi.genus}, cover group has genus {data.genus_cover}"
        )
    phases = _induced_phases(chi.chi, chi.chi_inv, (cover.targets, data.codes))
    return NonabelianMomentum(monomial=(cover.targets, *phases))


def pushforward_check(
    model: TightBindingModel,
    cover: UnbranchedCover,
    chi: AbelianMomentum,
    tol: float = 1e-9,
) -> PushforwardReport:
    """Compare supercell and induced-momentum spectra at one character.

    The report of a one-off `CoverPushforward(model, cover).check_batch` on
    the one character and its stored reciprocals; checking many characters
    on one cover should build the table once and batch them.
    """
    return next(CoverPushforward(model, cover).check_batch(chi.chi[None], chi.chi_inv[None], tol))


def cover_to_json(cover: UnbranchedCover) -> dict:
    return {
        "hyperband_cover": 1,
        "sheets": cover.sheets,
        "perms": [list(p) for p in cover.perms],
    }


def cover_from_json(data: dict) -> UnbranchedCover:
    document(data, "cover", "sheets", "perms")
    return UnbranchedCover(data["sheets"], data["perms"])


def read_cover(path) -> UnbranchedCover:
    return cover_from_json(read_json(path))


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuiverArrow:
    """One block of the Hamiltonian: rows(target) x columns(source).

    label is the generator the hop crosses (1..2g) or None for on-site blocks;
    reverse marks the dagger side of a crossing.
    """

    source: int
    target: int
    block: np.ndarray
    label: object = None
    reverse: bool = False

    def __post_init__(self):
        b = np.array(self.block, dtype=complex)
        b.setflags(write=False)
        object.__setattr__(self, "block", b)
        object.__setattr__(self, "reverse", bool(self.reverse))


class _QuiverLayout(NamedTuple):
    """A quiver's dense matrices, as the fields `tight_binding._assemble` reads."""

    genus: int
    onsite: np.ndarray
    hops: np.ndarray
    hops_dagger: np.ndarray


@dataclass(frozen=True)
class Quiver:
    """Nodes (atoms = tuples of state indices) and block arrows.

    The atoms must partition the cell states, and each arrow must join two
    atoms with a label None or in 1..2g and a (|target|, |source|) block;
    anything else is a ValueError at construction.
    """

    genus: int
    dim: int
    nodes: tuple  # tuple of tuples of 0-indexed states
    arrows: tuple = field(default_factory=tuple)

    def __post_init__(self):
        nodes = _check_partition(self.dim, self.nodes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arrows", tuple(self.arrows))
        for a in self.arrows:
            if a.label is not None and not (_is_index(a.label, 2 * self.genus + 1) and a.label > 0):
                raise ValueError(f"arrow label {a.label!r} is neither None nor in 1..{2 * self.genus}")
            if not (_is_index(a.source, len(nodes)) and _is_index(a.target, len(nodes))):
                raise ValueError(f"arrow {a.source} -> {a.target} names an atom outside 0..{len(nodes) - 1}")
            if a.block.shape != (len(nodes[a.target]), len(nodes[a.source])):
                raise ValueError(f"arrow {a.source} -> {a.target} has a {a.block.shape} block")

    @functools.cached_property
    def _layout(self) -> _QuiverLayout:
        """`_quiver_layout(self)`, built on first use and kept."""
        return _quiver_layout(self)


def _check_partition(dim: int, nodes) -> tuple:
    nodes = tuple(tuple(integer(s, "a state in nodes") for s in atom) for atom in nodes)
    flat = sorted(s for atom in nodes for s in atom)
    if flat != list(range(dim)):
        raise ValueError(f"atoms must partition the {dim} cell states, got {nodes}")
    if any(len(atom) == 0 for atom in nodes):
        raise ValueError("empty atoms are not allowed")
    return nodes


def _is_index(value, n: int) -> bool:
    return isinstance(value, (int, np.integer)) and 0 <= value < n


def _atom_order(nodes: tuple) -> tuple:
    """The states run atom by atom, and each atom's slice of that run."""
    order = np.array([s for atom in nodes for s in atom], dtype=np.intp)
    ends = np.cumsum([len(atom) for atom in nodes]).tolist()
    return order, [slice(end - len(atom), end) for atom, end in zip(nodes, ends)]


def _quiver_layout(quiver: Quiver) -> _QuiverLayout:
    """The on-site matrix and per generator its forward and reverse matrices.

    Each arrow's block is added, in arrow order, to +0 at its atoms' rows and
    columns of one stack whose states run atom by atom; the stack is put back
    in state order once.
    """
    order, spans = _atom_order(quiver.nodes)
    stack = np.zeros((1 + 4 * quiver.genus, quiver.dim, quiver.dim), dtype=complex)
    for a in quiver.arrows:
        slot = 0 if a.label is None else 2 * a.label - 1 + a.reverse
        stack[slot, spans[a.target], spans[a.source]] += a.block
    back = np.argsort(order)
    stack = stack[:, back[:, None], back]
    stack.setflags(write=False)
    return _QuiverLayout(quiver.genus, stack[0], stack[1::2], stack[2::2])


def quiver_from_model(model: TightBindingModel, nodes=None) -> Quiver:
    """Decompose the model into per-atom blocks.

    `nodes` partitions the cell states into atoms (default: one atom per
    state).  Every nonzero block of the on-site matrix becomes an internal
    arrow; every nonzero block of hop J_gamma becomes a label-gamma arrow, and
    every nonzero block of J_gamma^dagger its reverse-side arrow.  The blocks
    are cut from one copy of the matrices with their states run atom by atom.
    """
    if nodes is None:
        nodes = tuple((s,) for s in range(model.dim))
    nodes = _check_partition(model.dim, nodes)
    order, spans = _atom_order(nodes)
    # matrix k > 0 is hop (k + 1) // 2, or its dagger for even k
    stack = np.stack([model.onsite, *(m for pair in zip(model.hops, model.hops_dagger) for m in pair)])
    stack = stack[:, order[:, None], order]
    # nonzero[k, b, a]: block (atom b, atom a) of matrix k has a nonzero entry
    starts = [span.start for span in spans]
    nonzero = np.logical_or.reduceat(np.logical_or.reduceat(stack != 0, starts, axis=1), starts, axis=2)
    arrows = tuple(
        QuiverArrow(a, b, stack[k, spans[b], spans[a]], (k + 1) // 2 or None, k > 0 and k % 2 == 0)
        for k, b, a in zip(*(index.tolist() for index in np.nonzero(nonzero)))
    )
    return Quiver(genus=model.genus, dim=model.dim, nodes=nodes, arrows=arrows)


def torus_action(quiver: Quiver, chi: AbelianMomentum) -> Quiver:
    """Scale label-gamma arrows by chi_gamma (forward) / chi_gamma^{-1} (reverse)."""
    if chi.genus != quiver.genus:
        raise ValueError(f"genus mismatch: quiver {quiver.genus}, momentum {chi.genus}")
    factors = (chi.chi, chi.chi_inv)
    arrows = tuple(
        a if a.label is None else dataclasses.replace(a, block=factors[a.reverse][a.label - 1] * a.block)
        for a in quiver.arrows
    )
    return dataclasses.replace(quiver, arrows=arrows)


def reassemble(quiver: Quiver, chi: AbelianMomentum = None) -> np.ndarray:
    """Rebuild the Hamiltonian from the arrows: `_assemble` on the quiver's layout.

    With `chi` given, forward arrows are weighted chi_gamma and reverse ones
    its stored reciprocal; without it every arrow enters with weight one
    (useful after torus_action, which bakes the weights into the blocks).
    The layout is built once per quiver, and the arithmetic is
    `bloch_abelian`'s own, so the round trip from `quiver_from_model` is
    bit-for-bit.
    """
    if chi is None:
        chi = AbelianMomentum(np.ones(2 * quiver.genus, dtype=complex))
    if chi.genus != quiver.genus:
        raise ValueError(f"genus mismatch: quiver {quiver.genus}, momentum {chi.genus}")
    return _assemble(quiver._layout, chi.chi, chi.chi_inv)
