"""The one Bloch assembly kernel, the shared clusterer and the derived grid state.

The pre-change routes are kept here as oracles: the scalar assembly loop of
`bloch_abelian`, the batched stack of `sweep`, and the union-find that
`detect_crossings` and `spectral_curve` each carried.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband.momenta import AbelianMomentum
from hyperband.spectra import (
    _single_linkage,
    complex_region_grid,
    detect_crossings,
    eigenvalues,
    sweep,
    unitary_grid,
)
from hyperband.tight_binding import (
    BlochHamiltonian,
    TightBindingModel,
    _assemble,
    adjoint_momentum,
    bloch_abelian,
)

from test_tight_binding import random_model


def scalar_loop_oracle(model, momentum):
    chi, chi_inv = momentum.chi, momentum.chi_inv
    H = np.array(model.onsite, dtype=complex)
    for i in range(2 * model.genus):
        H += chi[i] * model.hops[i] + chi_inv[i] * model.hops_dagger[i]
    return H


def stack_oracle(model, chis):
    chi_inv = 1.0 / chis
    P = chis.shape[0]
    H = np.broadcast_to(model.onsite, (P, model.dim, model.dim)).astype(complex)
    H = H.copy()
    for i in range(2 * model.genus):
        H += (
            chis[:, i, None, None] * model.hops[i]
            + chi_inv[:, i, None, None] * model.hops_dagger[i]
        )
    return H


def union_find_oracle(rows, radius):
    out = []
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
        out.extend((p, members) for members in clusters.values())
    return out


def random_chi(rng, genus, size=()):
    shape = tuple(size) + (2 * genus,)
    return np.exp(rng.uniform(-2.0, 2.0, shape) + 1j * rng.uniform(0.0, 2 * np.pi, shape))


seeds = st.integers(0, 2**32 - 1)


@st.composite
def grids(draw, genus):
    counts = draw(st.lists(st.integers(1, 3), min_size=2 * genus, max_size=2 * genus))
    if draw(st.booleans()):
        return unitary_grid(genus, counts)
    lo = draw(st.floats(-1.0, 1.0))
    hi = draw(st.floats(-1.0, 1.0))
    return complex_region_grid(genus, counts, (lo, hi), draw(st.integers(1, 2)))


@settings(max_examples=60)
@given(data=st.data(), genus=st.integers(1, 2), dim=st.integers(1, 4), seed=seeds)
def test_property_sweep_rows_are_pointwise_spectra(data, genus, dim, seed):
    model = random_model(np.random.default_rng(seed), genus, dim)
    grid = data.draw(grids(genus))
    bands = sweep(model, grid)
    assert bands.hermitian == grid.unitary
    for p in range(grid.n_points):
        ham = bloch_abelian(model, grid.momentum(p))
        if ham.hermitian != grid.unitary:
            # a unit-modulus point of an off-torus grid, or moduli within
            # 1e-9 but not 1e-12 of one: the sweep keeps the grid's solver
            ham = BlochHamiltonian(ham.matrix, ham.momentum, grid.unitary)
        assert bands.bands[p].tobytes() == eigenvalues(ham).tobytes(), p


@settings(max_examples=100)
@given(genus=st.integers(1, 3), dim=st.integers(1, 5), seed=seeds)
def test_property_bloch_abelian_matches_scalar_loop(genus, dim, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, genus, dim)
    chi = AbelianMomentum(random_chi(rng, genus))
    H = bloch_abelian(model, chi).matrix
    assert H.tobytes() == scalar_loop_oracle(model, chi).tobytes()


@settings(max_examples=100)
@given(genus=st.integers(1, 3), dim=st.integers(1, 5), seed=seeds)
def test_property_adjoint_identity_is_bitwise(genus, dim, seed):
    # equal up to the sign of zeros, which array_equal ignores
    rng = np.random.default_rng(seed)
    model = random_model(rng, genus, dim)
    chi = AbelianMomentum(random_chi(rng, genus))
    H = bloch_abelian(model, chi).matrix
    assert np.array_equal(bloch_abelian(model, adjoint_momentum(chi)).matrix, H.conj().T)


@settings(max_examples=60)
@given(genus=st.integers(1, 2), dim=st.integers(1, 4), P=st.integers(1, 9), seed=seeds)
def test_property_batched_kernel_matches_stack_oracle(genus, dim, P, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, genus, dim)
    chis = random_chi(rng, genus, (P,))
    stack = _assemble(model, chis, 1.0 / chis)
    assert stack.flags.c_contiguous
    assert stack.tobytes() == stack_oracle(model, chis).tobytes()


def linkage_clusters(rows, radius):
    """`_single_linkage`'s runs and union-find clusters as one (row, members) list."""
    p, first, size, others = _single_linkage(rows, radius)
    runs = [(r, list(range(a, a + m))) for r, a, m in zip(p.tolist(), first.tolist(), size.tolist())]
    return sorted(runs + others, key=lambda cluster: cluster[0])


def planted_rows(rng, n_rows, radius):
    """Complex rows with chains whose ends lie beyond `radius` of each other."""
    rows = []
    for _ in range(n_rows):
        n = int(rng.integers(1, 12))
        row = 10 * radius * (rng.normal(size=n) + 1j * rng.normal(size=n))
        # a chain: steps of 0.6 radius along a random direction
        start = int(rng.integers(0, n))
        direction = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        for k in range(start + 1, min(n, start + 4)):
            row[k] = row[k - 1] + 0.6 * radius * direction
        rows.append(rng.permutation(row))
    return rows


@settings(max_examples=80)
@given(n_rows=st.integers(1, 6), seed=seeds)
def test_property_single_linkage_matches_union_find(n_rows, seed):
    rng = np.random.default_rng(seed)
    radius = float(np.exp(rng.uniform(-5.0, 2.0)))
    rows = planted_rows(rng, n_rows, radius)
    for row in rows:  # ragged: one row at a time
        expected = [(0, m) for _, m in union_find_oracle([row], radius) if len(m) >= 2]
        assert linkage_clusters(row[None], radius) == expected


def test_single_linkage_joins_chains_transitively():
    # 0 -- 0.6 -- 1.2 -- 1.8: the ends are 1.8 apart, one cluster at radius 1
    row = np.array([1.8, 5.0, 0.0, 1.2, 0.6, -4.0], dtype=complex)
    assert linkage_clusters(row[None], 1.0) == [(0, [0, 2, 3, 4])]


def test_grid_indices_are_row_major_unravel():
    for genus, counts in ((1, [3, 5]), (2, [2, 1, 3, 4]), (1, [1, 1])):
        grid = unitary_grid(genus, counts)
        indices = grid.indices
        assert indices.shape == (grid.n_points, 2 * genus)
        for p in range(grid.n_points):
            assert tuple(indices[p]) == np.unravel_index(p, grid.shape)


def test_band_structure_hermitian_follows_grid():
    model = random_model(np.random.default_rng(5), 1, 2)
    assert sweep(model, unitary_grid(1, [3, 3])).hermitian
    assert not sweep(model, complex_region_grid(1, [3, 3], (-0.2, 0.2), 2)).hermitian
    # a zero-width region sits on the unitary torus
    assert sweep(model, complex_region_grid(1, [3, 3], (0.0, 0.0), 2)).hermitian


def test_detect_crossings_reads_derived_indices():
    # M (+) M is degenerate at every grid point
    base = random_model(np.random.default_rng(6), 1, 1)
    model = TightBindingModel(
        1, np.kron(np.eye(2), base.onsite), [np.kron(np.eye(2), h) for h in base.hops]
    )
    grid = unitary_grid(1, [2, 3])
    groups = detect_crossings(sweep(model, grid))
    assert [g.flat_index for g in groups] == list(range(grid.n_points))
    assert [g.grid_index for g in groups] == [tuple(map(int, i)) for i in grid.indices]
