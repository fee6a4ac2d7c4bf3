"""The bands pipeline: batched sweep, vectorized clusterer, box-joined CSV rows.

Each step is checked byte for byte against the route it replaced, kept here
as an oracle: the one-shot stack solve of `sweep`, the all-pairs union-find
(`test_bloch_kernel.union_find_oracle`) with one `np.mean` per group, the
per-float CSV writer, which also checks the CLI's bytes, and the CSV writer
of one block per last-axis run.
"""

import io
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperband import cli, spectra, spectral_curve
from hyperband._clustering import single_linkage
from hyperband.errors import NumericalCheckFailure
from hyperband.higgs_toy import ToyModelPoint
from hyperband.momenta import AbelianMomentum
from hyperband.spectra import (
    BandStructure,
    MomentumGrid,
    DegeneracyGroup,
    _sorted_eigenvalues,
    complex_region_grid,
    detect_crossings,
    eigenvalues,
    spectral_radius,
    sweep,
    unitary_grid,
    write_bands_csv,
    write_sweep_csv,
)
from hyperband.tight_binding import (
    BlochHamiltonian,
    TightBindingModel,
    _assemble,
    bloch_abelian,
    read_model,
    write_model,
)

from test_bloch_kernel import grid_momenta, grids, linkage_clusters, seeds, union_find_oracle
from test_tight_binding import random_model


def one_shot_oracle(model, grid):
    chis = grid_momenta(grid)
    stack = _assemble(model, chis.T[..., None, None], (1.0 / chis).T[..., None, None])
    return _sorted_eigenvalues(stack, grid.unitary)


def detect_crossings_oracle(bands, gap_tol=None):
    if gap_tol is None:
        radius = spectral_radius(bands)
        gap_tol = 1e-6 * radius if radius > 0 else 1e-12
    return tuple(
        DegeneracyGroup(
            grid_index=tuple(int(v) for v in np.unravel_index(p, bands.grid.shape)),
            flat_index=p,
            eigenvalue=complex(np.mean(bands.bands[p, members])),
            multiplicity=len(members),
            band_indices=tuple(members),
        )
        for p, members in union_find_oracle(bands.bands, float(gap_tol))
        if len(members) >= 2
    )


def per_float_writer_oracle(bands, fh):
    grid = bands.grid
    n_axes = len(grid.shape)
    fh.write("# hyperband bands v1\n")
    fh.write(
        f"# model_hash={bands.model_hash} "
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
        prefix = ",".join(str(int(v)) for v in np.unravel_index(p, grid.shape))
        for b in range(bands.bands.shape[1]):
            lam = bands.bands[p, b]
            fh.write(f"{prefix},{b},{float(lam.real)!r},{float(lam.imag)!r}\n")


def block_writer_oracle(bands, fh):
    """The writer before it wrote `_sub_boxes` boxes: one block per run of the
    last grid axis, under one head string per outer grid point."""
    grid = bands.grid
    fh.write("# hyperband bands v1\n")
    fh.write(
        f"# model_hash={bands.model_hash} "
        f"grid_shape={'x'.join(str(s) for s in grid.shape)} "
        f"hermitian={bands.hermitian}\n"
    )
    fh.write(
        "# rows: grid points in row-major order, bands sorted by (Re, Im); "
        "columns: grid indices, band, eigenvalue\n"
    )
    cols = [f"i{k}" for k in range(len(grid.shape))] + ["band", "re", "im"]
    fh.write(",".join(cols) + "\n")
    *outer_shape, n_last = grid.shape
    heads = [""]
    for n in outer_shape:
        heads = [f"{head}{i}," for head in heads for i in range(n)]
    tails = [f"{i},{b}," for i in range(n_last) for b in range(bands.bands.shape[1])]
    blocks = bands.bands.reshape(len(heads), len(tails))
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


def csv_text(writer, bands):
    buf = io.StringIO()
    writer(bands, buf)
    return buf.getvalue()


def doubled(model):
    """M (+) M: every eigenvalue at least doubly degenerate."""
    return TightBindingModel(
        model.genus,
        np.kron(np.eye(2), model.onsite),
        [np.kron(np.eye(2), h) for h in model.hops],
    )


def signed_zeros(rng, bands):
    """`bands` with about a third of the real and imaginary parts set to +-0.0."""
    values = np.array(bands.bands)
    for part in (values.real, values.imag):
        hit = rng.random(values.shape) < 1 / 3
        part[hit] = np.where(rng.random(int(hit.sum())) < 0.5, -0.0, 0.0)
    return BandStructure(bands.grid, values, bands.model_hash)


# -- sweep in batches --------------------------------------------------------

@pytest.mark.parametrize("region", [False, True], ids=["unitary", "region"])
@pytest.mark.parametrize("counts", [(20, 40), (16, 48)], ids=["remainder", "whole-slices"])
def test_sweep_slices_match_one_shot_solve(region, counts):
    # d = 16: a box holds 128 points of 8 KiB, so the (20, 40) grid is cut
    # into six boxes of three rows and one of two, the (16, 48) grid into
    # eight boxes of two rows exactly
    model = random_model(np.random.default_rng(8), 1, 16)
    assert spectra._CHUNK_BYTES // (32 * 16**2) == 128
    if region:
        grid = complex_region_grid(1, [c // 2 for c in counts], (-0.3, 0.2), 2)
        assert not grid.unitary
    else:
        grid = unitary_grid(1, list(counts))
    assert grid.n_points == counts[0] * counts[1]
    assert sweep(model, grid).bands.tobytes() == one_shot_oracle(model, grid).tobytes()


@settings(max_examples=60)
@given(
    data=st.data(),
    genus=st.integers(1, 2),
    dim=st.integers(1, 4),
    rows=st.integers(1, 12),
    seed=seeds,
)
def test_property_sweep_is_independent_of_batch_size(chunk_budget, data, genus, dim, rows, seed):
    model = random_model(np.random.default_rng(seed), genus, dim)
    grid = data.draw(grids(genus))
    with chunk_budget(rows * 32 * dim**2):
        bands = sweep(model, grid)
    assert bands.bands.tobytes() == one_shot_oracle(model, grid).tobytes()


@st.composite
def product_grids(draw):
    """Genus 1-2 grids of axes of 1-4 non-real points each, on or off the unit torus."""
    genus = draw(st.integers(1, 2))
    lengths = draw(st.lists(st.integers(1, 4), min_size=2 * genus, max_size=2 * genus))
    rng = np.random.default_rng(draw(seeds))
    spread = draw(st.sampled_from([0.0, 0.5]))
    return MomentumGrid([np.exp(rng.uniform(-spread, spread, m) + 1j * rng.uniform(0.1, 3.0, m)) for m in lengths])


def pointwise_oracle(model, grid):
    """Each point's `bloch_abelian`, solved and sorted on its own by the grid's solver."""
    return np.array([
        eigenvalues(BlochHamiltonian(bloch_abelian(model, AbelianMomentum(chi)).matrix, grid.unitary))
        for chi in grid_momenta(grid)
    ])


@settings(max_examples=60)
@given(grid=product_grids(), dim=st.integers(1, 4), seed=seeds)
@example(grid=MomentumGrid([np.exp([0.1j, 2.0j, 3.0j]), [0.3 + 0.4j]]), dim=1, seed=0)
def test_property_sampler_equals_pointwise_assembly(chunk_budget, grid, dim, seed):
    # the smaller budgets cut the grid down to one point per box; ranges of
    # one index enter `_assemble` as 0-d values, so each rounds as alone
    model = random_model(np.random.default_rng(seed), grid.genus, dim)
    expected = pointwise_oracle(model, grid).tobytes()
    for chunk in (1 << 20, 4096, 600, 1):
        with chunk_budget(chunk):
            parts = list(spectra._sampled_spectra(model, grid))
        assert [part.start for part, _ in parts] == [0] + [part.stop for part, _ in parts[:-1]]
        assert np.concatenate([values for _, values in parts]).tobytes() == expected, chunk


def test_slices_cut_at_the_budget_and_keep_a_trailing_single_item(chunk_budget):
    with chunk_budget(4 * 16):
        assert spectra._slices(9, 16) == [slice(0, 4), slice(4, 8), slice(8, 9)]
        assert spectra._slices(8, 16) == [slice(0, 4), slice(4, 8)]
        assert spectra._slices(1, 16) == [slice(0, 1)]
        assert spectra._slices(0, 16) == []
    with chunk_budget(16):  # one item per slice
        assert spectra._slices(3, 16) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_sweep_last_point_solves_as_in_the_one_shot_stack():
    # d = 1: 65,537 points of 32 B are two full 1 MiB boxes and a box of
    # one point, whose one-entry axes enter `_assemble` as 0-d values
    grid = complex_region_grid(1, [65537, 1], (0.2, 0.2), 1)
    for seed in range(10):
        model = random_model(np.random.default_rng(seed), 1, 1)
        assert sweep(model, grid).bands[-1].tobytes() == one_shot_oracle(model, grid)[-1].tobytes()


@pytest.mark.parametrize("budget", [16, 2 * 16, 3 * 16])
def test_sweep_at_small_budgets_solves_as_in_the_one_shot_stack(chunk_budget, budget):
    # `budget` / 16 points per box (32 B a point): at one point per box every
    # range of the box enters `_assemble` as a 0-d value, which rounds as the
    # one-shot stack's vector loops do, so a lone point gets no other bits
    grid = complex_region_grid(1, [7, 1], (0.2, 0.2), 1)
    for seed in range(10):
        model = random_model(np.random.default_rng(seed), 1, 1)
        with chunk_budget(2 * budget):
            bands = sweep(model, grid).bands
        assert bands.tobytes() == one_shot_oracle(model, grid).tobytes()


@pytest.mark.parametrize("solver", ["eigvalsh", "eigvals"])
def test_sweep_names_the_failing_point_in_a_later_slice(monkeypatch, solver):
    model = random_model(np.random.default_rng(9), 1, 16)
    if solver == "eigvalsh":
        grid = unitary_grid(1, [20, 40])
    else:
        grid = complex_region_grid(1, [10, 20], (-0.3, 0.2), 2)
    bad = 700  # in the sixth box of three 40-point rows
    chi = grid_momenta(grid)[bad]
    target = _assemble(model, chi[:, None, None], (1.0 / chi)[:, None, None])
    solve = getattr(np.linalg, solver)
    batches = []

    def flaky(a):
        batches.append(a.shape)
        if np.any(np.all(a == target, axis=(-2, -1))):
            raise np.linalg.LinAlgError("forced")
        return solve(a)

    monkeypatch.setattr(np.linalg, solver, flaky)
    with pytest.raises(NumericalCheckFailure) as err:
        sweep(model, grid)
    # row 700 of the (20, 40) grid, printed as plain integers
    assert str(err.value) == "eigensolver failed at grid index (17, 20): eigensolver did not converge: forced"
    # five whole boxes and the failing one, then single matrices of the
    # failing box up to the bad point
    assert batches[:6] == [(120, 16, 16)] * 6
    assert batches[6:] == [(16, 16)] * (bad - 600 + 1)


def test_near_unit_region_grid_solves_like_its_momenta():
    # moduli within 1e-9 of one: unitary under momenta.TOL_UNITARY, like each momentum
    model = random_model(np.random.default_rng(10), 1, 3)
    grid = complex_region_grid(1, [3, 3], (-1e-10, 1e-10), 2)
    assert grid.unitary
    bands = sweep(model, grid)
    for p, chi in enumerate(grid_momenta(grid)):
        ham = bloch_abelian(model, AbelianMomentum(chi))
        assert ham.hermitian
        assert bands.bands[p].tobytes() == eigenvalues(ham).tobytes(), p
    assert "hermitian=True" in csv_text(write_bands_csv, bands).splitlines()[1]


# -- the clusterer -----------------------------------------------------------

def expected_clusters(rows, radius):
    return [(p, m) for p, m in union_find_oracle(rows, radius) if len(m) >= 2]


batches = dict(n_rows=st.integers(1, 8), n=st.integers(1, 12), seed=seeds)


@settings(max_examples=80)
@given(as_complex=st.booleans(), **batches)
def test_property_sorted_real_rows_with_ties(as_complex, n_rows, n, seed):
    # values on a lattice of radius / 2: exact ties, gaps at the radius, +-0.0
    rng = np.random.default_rng(seed)
    radius = float(rng.choice([1e-6, 0.5, 1.0, 3.0]))
    rows = np.sort(rng.integers(-4, 5, (n_rows, n)) * (radius / 2), axis=1)
    zero = rows == 0
    rows[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    if as_complex:
        values = np.empty(rows.shape, dtype=complex)
        values.real = rows
        values.imag = np.where(rng.random(rows.shape) < 0.5, -0.0, 0.0)
        rows = values
    assert linkage_clusters(rows, radius) == expected_clusters(rows, radius)


@settings(max_examples=80)
@given(**batches)
def test_property_chains_not_adjacent_in_re_order(n_rows, n, seed):
    rng = np.random.default_rng(seed)
    radius = float(np.exp(rng.uniform(-5.0, 2.0)))
    rows = 10 * radius * (rng.normal(size=(n_rows, n)) + 1j * rng.normal(size=(n_rows, n)))
    for row in rows:
        # a near-vertical chain in steps of 0.6 radius, its ends beyond the
        # radius, and far-off entries whose Re falls between its members'
        length = int(rng.integers(0, n + 1))
        direction = np.exp(1j * rng.uniform(np.pi / 2 - 0.4, np.pi / 2 + 0.4))
        row[:length] = row[0] + 0.6 * radius * direction * np.arange(length)
        span = row[:length].real if length else row[:1].real
        for k in range(length, n):
            if rng.random() < 0.5:
                row[k] = rng.uniform(span.min(), span.max() + 1e-300) + 1j * (
                    row[0].imag + rng.choice([-1, 1]) * radius * rng.uniform(2.0, 5.0)
                )
        row[:] = rng.permutation(row)
    assert linkage_clusters(rows, radius) == expected_clusters(rows, radius)


@settings(max_examples=80)
@given(**batches)
def test_property_ties_in_re_but_not_in_im(n_rows, n, seed):
    rng = np.random.default_rng(seed)
    radius = float(rng.choice([1e-3, 1.0]))
    rows = np.empty((n_rows, n), dtype=complex)
    rows.real = rng.integers(-2, 3, (n_rows, n)) * radius * rng.choice([0.25, 1.0])
    rows.imag = rng.normal(size=(n_rows, n)) * 2 * radius
    assert linkage_clusters(rows, radius) == expected_clusters(rows, radius)


def test_single_linkage_decides_with_scalar_abs():
    # unit-length differences: numpy's vectorized abs rounds some of them to the
    # other side of the radius than the scalar abs does
    rng = np.random.default_rng(12)
    z = rng.normal(size=400) + 1j * rng.normal(size=400)
    z /= np.array([abs(v) for v in z.tolist()])
    rows = np.stack([np.zeros_like(z), z], axis=1)
    assert linkage_clusters(rows, 1.0) == expected_clusters(rows, 1.0)


@settings(max_examples=80)
@given(real=st.booleans(), **batches)
def test_property_permuting_a_row_permutes_its_clusters(real, n_rows, n, seed):
    # values on a lattice of radius / 2: ties and distances at the radius;
    # sorted real rows skip the argsort that their permutations take
    rng = np.random.default_rng(seed)
    radius = float(rng.choice([1e-3, 0.5, 1.0]))
    rows = rng.integers(-4, 5, (n_rows, n)) * (radius / 2) + 0j
    if real:
        rows = np.sort(rows.real, axis=1) + 0j
    else:
        rows.imag = rng.integers(-2, 3, (n_rows, n)) * (radius / 2)
    perm = np.argsort(rng.random((n_rows, n)), axis=1)
    permuted = np.take_along_axis(rows, perm, axis=1)

    def member_sets(values, relabel):
        row, start, size, members, _ = single_linkage(values, radius)
        return sorted(
            (r, sorted(relabel[r][members[a:a + m]].tolist()))
            for r, a, m in zip(row.tolist(), start.tolist(), size.tolist())
        )

    identity = np.broadcast_to(np.arange(n), (n_rows, n))
    assert member_sets(permuted, perm) == member_sets(rows, identity)
    assert member_sets(rows, identity) == sorted(expected_clusters(rows, radius))

def assert_groups_equal(new, old):
    assert new == old
    # == ignores the sign of zero; the bytes do not
    assert np.array([g.eigenvalue for g in new], dtype=complex).tobytes() == (
        np.array([g.eigenvalue for g in old], dtype=complex).tobytes()
    )
    assert all(type(v) is int for g in new for v in g.grid_index + g.band_indices)


@settings(max_examples=40)
@given(
    data=st.data(),
    genus=st.integers(1, 2),
    dim=st.integers(1, 4),
    degenerate=st.booleans(),
    scale=st.sampled_from([None, 1e-9, 0.05, 0.5, 100.0]),
    seed=seeds,
)
def test_property_detect_crossings_matches_old_route(data, genus, dim, degenerate, scale, seed):
    model = random_model(np.random.default_rng(seed), genus, dim)
    if degenerate:
        model = doubled(model)
    bands = sweep(model, data.draw(grids(genus)))
    gap_tol = None if scale is None else scale * spectral_radius(bands)
    assert_groups_equal(detect_crossings(bands, gap_tol), detect_crossings_oracle(bands, gap_tol))


def test_detect_crossings_means_of_signed_zeros():
    # groups of +-0.0 entries: the sign of a zero mean depends on how it is summed
    rng = np.random.default_rng(13)
    grid = unitary_grid(1, [4, 5])
    values = np.zeros((grid.n_points, 6), dtype=complex)
    for part in (values.real, values.imag):
        part[:] = np.where(rng.random(values.shape) < 0.5, -0.0, 0.0)
    values[:, 3:] += rng.choice([-1.0, 1.0], (grid.n_points, 3))
    bands = BandStructure(grid, values)
    for gap_tol in (1e-12, 0.5):
        new = detect_crossings(bands, gap_tol)
        assert_groups_equal(new, detect_crossings_oracle(bands, gap_tol))


@pytest.mark.parametrize("dim", [8, 9, 12, 16])
def test_detect_crossings_means_of_large_groups(dim):
    # one group of every band: np.mean sums eight or more terms pairwise
    model = random_model(np.random.default_rng(dim), 1, dim)
    bands = sweep(model, complex_region_grid(1, [2, 3], (-0.2, 0.3), 2))
    gap_tol = 10 * spectral_radius(bands)
    groups = detect_crossings(bands, gap_tol)
    assert [g.multiplicity for g in groups] == [dim] * bands.grid.n_points
    assert_groups_equal(groups, detect_crossings_oracle(bands, gap_tol))


@settings(max_examples=80)
@given(
    genus=st.integers(1, 2),
    n=st.integers(1, 9),
    gap_tol=st.sampled_from([0.0, 1e-6, 0.5, 3.0]),
    unsorted_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=seeds,
)
def test_property_detect_crossings_on_real_rows(genus, n, gap_tol, unsorted_share, seed):
    # values on a lattice of gap_tol / 2: exact ties, gaps at the tolerance,
    # +-0.0 next to each other, imaginary parts +0.0 or -0.0
    rng = np.random.default_rng(seed)
    grid = unitary_grid(genus, rng.integers(1, 4, 2 * genus).tolist())
    shape = (grid.n_points, n)
    step = gap_tol / 2 if gap_tol > 0 else 0.25
    real = np.sort(rng.integers(-4, 5, shape) * step, axis=1)
    zero = real == 0
    real[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    for row in real:
        if rng.random() < unsorted_share:
            row[:] = rng.permutation(row)
    values = real + 0j
    values.imag = np.where(rng.random(shape) < 0.2, -0.0, 0.0)
    bands = BandStructure(grid, values)
    assert_groups_equal(detect_crossings(bands, gap_tol), detect_crossings_oracle(bands, gap_tol))


@pytest.mark.parametrize("gap_tol", [float("nan"), -1.0, float("inf"), float("-inf")])
def test_detect_crossings_refuses_a_nan_infinite_or_negative_gap_tol(gap_tol):
    model = doubled(random_model(np.random.default_rng(3), 1, 2))
    bands = sweep(model, unitary_grid(1, [3, 3]))
    assert len(detect_crossings(bands)) == 2 * bands.grid.n_points
    with pytest.raises(ValueError, match=r"^gap_tol must be a finite number >= 0, got"):
        detect_crossings(bands, gap_tol)

def assert_materialised(groups):
    assert type(groups) is tuple
    assert all(type(g) is DegeneracyGroup for g in groups)
    assert all(type(g.flat_index) is int and type(g.multiplicity) is int for g in groups)
    assert all(type(g.eigenvalue) is complex for g in groups)
    assert all(type(g.grid_index) is tuple and type(g.band_indices) is tuple for g in groups)


@settings(max_examples=80)
@given(
    genus=st.integers(1, 2),
    n=st.integers(1, 10),
    gap_tol=st.sampled_from([1e-6, 0.5, 3.0]),
    seed=seeds,
)
def test_property_detect_crossings_on_mixed_rows(genus, n, gap_tol, seed):
    # sorted real rows, unsorted real rows and complex rows interleaved in one
    # structure: the groups come in row order whatever each row's kind
    rng = np.random.default_rng(seed)
    grid = unitary_grid(genus, rng.integers(1, 4, 2 * genus).tolist())
    shape = (grid.n_points, n)
    step = gap_tol / 2
    values = np.sort(rng.integers(-4, 5, shape) * step, axis=1) + 0j
    zero = values.real == 0
    values.real[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    values.imag = np.where(rng.random(shape) < 0.3, -0.0, 0.0)
    kinds = rng.integers(0, 3, grid.n_points)  # 0 sorted real, 1 unsorted real, 2 complex
    for row, kind in zip(values, kinds):
        if kind == 1:
            row[:] = rng.permutation(row)
        elif kind == 2:
            row.imag = rng.integers(-2, 3, n) * step
    bands = BandStructure(grid, values)
    groups = detect_crossings(bands, gap_tol)
    assert_materialised(groups)
    assert_groups_equal(groups, detect_crossings_oracle(bands, gap_tol))


@pytest.mark.parametrize("n", [9, 12, 17, 24])
def test_detect_crossings_signed_zero_means_of_large_groups(n):
    # sorted real rows that are one cluster of n >= 9 entries, past the eight
    # accumulators np.add.reduce sums in: +-0 and the smallest subnormals
    # +-d, whose exact sum over n underflows to a zero that keeps its sign
    d = 5e-324
    rng = np.random.default_rng(n)
    grid = unitary_grid(1, [3, 4])
    values = np.zeros((grid.n_points, n), dtype=complex)
    negative = np.zeros(grid.n_points, dtype=bool)
    for p, row in enumerate(values):
        k_neg, k_pos = rng.integers(0, (n - 1) // 2, 2)
        negative[p] = k_neg > k_pos
        zeros = np.where(rng.random(n - k_neg - k_pos) < 0.5, -0.0, 0.0)
        row.real = np.concatenate([np.full(k_neg, -d), zeros, np.full(k_pos, d)])
        row.imag = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    bands = BandStructure(grid, values)
    groups = detect_crossings(bands, 0.5)
    assert_materialised(groups)
    assert [g.multiplicity for g in groups] == [n] * grid.n_points
    means = np.array([g.eigenvalue for g in groups])
    assert np.all(means == 0) and negative.any() and not negative.all()
    assert np.signbit(means.real).tolist() == negative.tolist()
    assert_groups_equal(groups, detect_crossings_oracle(bands, 0.5))


@pytest.mark.parametrize("radius", [0.5, np.inf])
def test_single_linkage_rows_with_infinities(radius):
    # equal infinities differ by nan, so such rows are not labelled as runs
    inf = np.inf
    rows = np.array(
        [[1.0, inf, inf], [-inf, -inf, 0.0], [-inf, 0.0, inf], [0.0, 0.25, inf]]
    ) + 0j
    with np.errstate(invalid="ignore"):
        assert linkage_clusters(rows, radius) == expected_clusters(rows, radius)


def union_find_linkage(rows, radius):
    """`single_linkage`'s arrays from `union_find_oracle`, each mean by np.mean."""
    clusters = [(p, m) for p, m in union_find_oracle(rows, radius) if len(m) >= 2]
    size = np.array([len(m) for _, m in clusters], dtype=int)
    start = np.cumsum(size) - size
    members = np.array([i for _, m in clusters for i in m], dtype=int)
    means = np.array([complex(np.mean(rows[p, m])) for p, m in clusters], dtype=complex)
    return np.array([p for p, _ in clusters], dtype=int), start, size, members, means


@pytest.mark.parametrize(
    "m, u",
    [(1 + 1e-7, -1.0), (1 + 1e-7, 2 + 1j), (1e-8 + 1e-8j, -1.0), (0.999999998, 2 + 1j)],
)
def test_curve_info_double_root_branch_points_unchanged(monkeypatch, m, u):
    phi = spectral_curve.toy_to_twisted(ToyModelPoint(m=m, u=u))
    new = spectral_curve.curve_info(phi).branch_points
    assert any(bp.multiplicity == 2 for bp in new)
    # the old route: the all-pairs union-find, each mean by np.mean
    monkeypatch.setattr(spectral_curve, "single_linkage", union_find_linkage)
    old = spectral_curve.curve_info(phi).branch_points
    assert [(repr(bp.point), bp.multiplicity) for bp in new] == [
        (repr(bp.point), bp.multiplicity) for bp in old
    ]


# -- the CSV writer ----------------------------------------------------------

def with_imag(bands, imag):
    values = np.array(bands.bands)
    values.imag = imag
    return BandStructure(bands.grid, values, bands.model_hash)


@pytest.mark.parametrize(
    "genus, dim, grid",
    [
        (1, 1, lambda: unitary_grid(1, [5, 7])),
        (2, 3, lambda: unitary_grid(2, [2, 3, 1, 2])),
        (1, 2, lambda: complex_region_grid(1, [3, 4], (-0.5, 0.4), 2)),
        (2, 2, lambda: complex_region_grid(2, [2, 1, 1, 2], (-0.1, 0.3), 3)),
        (1, 17, lambda: unitary_grid(1, [3, 2])),
        (1, 17, lambda: complex_region_grid(1, [2, 1], (-0.2, 0.2), 2)),
        (2, 2, lambda: unitary_grid(2, [2, 3, 2, 1])),
        (1, 3, lambda: complex_region_grid(1, [3, 1], (-0.3, 0.1), 1)),
    ],
    ids=[
        "d1", "genus2", "region", "genus2-region",
        "d17", "d17-region", "last-axis-1", "region-last-axis-1",
    ],
)
def test_csv_matches_per_float_writer(genus, dim, grid):
    rng = np.random.default_rng(11)
    bands = sweep(random_model(rng, genus, dim), grid())
    assert csv_text(write_bands_csv, bands) == csv_text(per_float_writer_oracle, bands)
    zeros = signed_zeros(rng, bands)
    text = csv_text(write_bands_csv, zeros)
    assert text == csv_text(per_float_writer_oracle, zeros)
    assert ",-0.0," in text and ",0.0," in text and text.count("-0.0\n") > 0
    # the writer picks its path per box from the imaginary parts' bits, not
    # from the grid: all +0.0 on either grid, one -0.0, and nonzero parts
    shape = bands.bands.shape
    negative = np.zeros(shape)
    negative.flat[rng.integers(negative.size)] = -0.0
    for imag in (np.zeros(shape), negative, rng.normal(size=shape)):
        changed = with_imag(bands, imag)
        text = csv_text(write_bands_csv, changed)
        assert text == csv_text(per_float_writer_oracle, changed)
    assert csv_text(write_bands_csv, with_imag(bands, negative)).count(",-0.0\n") == 1


@pytest.mark.parametrize(
    "genus, dim, counts, region, double",
    [
        (1, 3, "6,5", None, False),
        (1, 2, "4,3", "-0.3:0.2:2", False),
        (2, 2, "3,2,2,3", None, True),
    ],
    ids=["on-torus", "off-torus", "doubled"],
)
def test_cli_bands_writes_the_per_float_bytes(tmp_path, genus, dim, counts, region, double):
    model = random_model(np.random.default_rng(14), genus, dim)
    if double:
        model = doubled(model)
    path = tmp_path / "model.json"
    write_model(model, path)
    out = tmp_path / "bands.csv"
    argv = ["bands", "--model", str(path), "--grid", counts, "--out", str(out)]
    shape = [int(c) for c in counts.split(",")]
    if region is None:
        grid = unitary_grid(genus, shape)
    else:
        argv.append(f"--region={region}")
        lo, hi, n_moduli = region.split(":")
        grid = complex_region_grid(genus, shape, (float(lo), float(hi)), int(n_moduli))
    assert cli.main(argv) == 0
    bands = sweep(read_model(path), grid)
    assert out.read_bytes() == csv_text(per_float_writer_oracle, bands).encode()


@settings(max_examples=40)
@given(
    data=st.data(),
    genus=st.integers(1, 2),
    dim=st.integers(1, 4),
    n_moduli=st.sampled_from([None, 1, 2]),
    budget=st.sampled_from([1, 600, 4096, 1 << 20]),
    seed=seeds,
)
def test_property_cli_bands_writes_the_bytes_of_sweep_then_write(
    chunk_budget, data, genus, dim, n_moduli, budget, seed
):
    # at 1 B every sweep and CSV box is one grid point, so the worker writes
    # while most of the grid is still to be solved; at 1 MiB one box each
    counts = data.draw(st.lists(st.integers(1, 9 if genus == 1 else 3), min_size=2 * genus, max_size=2 * genus))
    with tempfile.TemporaryDirectory() as root:
        path, out = Path(root) / "model.json", Path(root) / "bands.csv"
        write_model(random_model(np.random.default_rng(seed), genus, dim), path)
        argv = ["bands", "--model", str(path), "--grid", ",".join(map(str, counts)), "--out", str(out)]
        if n_moduli is None:
            grid = unitary_grid(genus, counts)
        else:
            argv.append(f"--region=-0.4:0.3:{n_moduli}")
            grid = complex_region_grid(genus, counts, (-0.4, 0.3), n_moduli)
        with chunk_budget(budget):
            assert cli.main(argv) == 0
            expected = csv_text(write_bands_csv, sweep(read_model(path), grid))
        assert out.read_bytes() == expected.encode()


def test_concurrent_sweep_csv_writers_keep_their_bytes(chunk_budget):
    # four callers at once, eight threads on two cores, switching every
    # microsecond: a row read before it is solved, or a box written twice
    # or out of order, would change some caller's bytes
    models = [random_model(np.random.default_rng(seed), 1 + seed % 2, 1 + seed % 3) for seed in range(4)]
    grids = [
        unitary_grid(1, 9), complex_region_grid(2, 2, (-0.2, 0.3), 2),
        complex_region_grid(1, 5, (-0.2, 0.3), 2), unitary_grid(2, 3),
    ]
    outs = [io.StringIO() for _ in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with chunk_budget(600):
            callers = [threading.Thread(target=write_sweep_csv, args=job) for job in zip(models, grids, outs)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for model, grid, out in zip(models, grids, outs):
        assert out.getvalue() == csv_text(write_bands_csv, sweep(model, grid))


@settings(max_examples=40)
@given(
    data=st.data(),
    genus=st.integers(1, 2),
    dim=st.integers(1, 4),
    zeros=st.booleans(),
    seed=seeds,
)
def test_property_bands_csv_parses_back_exactly(data, genus, dim, zeros, seed):
    rng = np.random.default_rng(seed)
    bands = sweep(random_model(rng, genus, dim), data.draw(grids(genus)))
    if zeros:
        bands = signed_zeros(rng, bands)
    grid = bands.grid
    lines = [line for line in csv_text(write_bands_csv, bands).splitlines() if line[0] != "#"]
    assert lines[0].split(",") == [f"i{k}" for k in range(2 * genus)] + ["band", "re", "im"]
    assert len(lines) == 1 + grid.n_points * dim
    parsed = np.empty((grid.n_points, dim), dtype=complex)
    for r, line in enumerate(lines[1:]):
        *index, band, re, im = line.split(",")
        p, b = divmod(r, dim)
        assert tuple(int(i) for i in index) == np.unravel_index(p, grid.shape)
        assert int(band) == b
        parsed[p, b] = complex(float(re), float(im))
    assert parsed.tobytes() == bands.bands.tobytes()


@st.composite
def csv_grids(draw, genus):
    """Unitary or region grids of 1-7 points an axis."""
    lengths = draw(st.lists(st.integers(1, 7), min_size=2 * genus, max_size=2 * genus))
    if draw(st.booleans()):
        return unitary_grid(genus, lengths)
    n_moduli = draw(st.integers(1, 2))
    counts = [max(1, m // n_moduli) for m in lengths]
    return complex_region_grid(genus, counts, (draw(st.floats(-1.0, 1.0)), 0.5), n_moduli)


@settings(max_examples=60)
@given(data=st.data(), genus=st.integers(1, 2), dim=st.integers(1, 4), zeros=st.booleans(), seed=seeds)
def test_property_box_writer_equals_the_block_writer(chunk_budget, data, genus, dim, zeros, seed):
    # at 1 B every box is one grid point; at 600 and 4096 the cut falls on
    # different axes; at 1 MiB these grids are one box
    rng = np.random.default_rng(seed)
    bands = sweep(random_model(rng, genus, dim), data.draw(csv_grids(genus)))
    if zeros:
        bands = signed_zeros(rng, bands)
    expected = csv_text(block_writer_oracle, bands)
    for chunk in (1 << 20, 4096, 600, 1):
        with chunk_budget(chunk):
            assert csv_text(write_bands_csv, bands) == expected, chunk


@pytest.mark.parametrize(
    "genus, grid",
    [
        (1, lambda: unitary_grid(1, [1, 70001])),
        (1, lambda: unitary_grid(1, [70001, 1])),
        (1, lambda: complex_region_grid(1, [3, 10001], (-0.2, 0.3), 2)),
        (2, lambda: unitary_grid(2, [1, 1, 1, 70001])),
    ],
    ids=["1x70001", "70001x1", "region-6x20002", "genus2-long-last-axis"],
)
def test_box_writer_equals_the_block_writer_on_long_axes(chunk_budget, genus, grid):
    bands = sweep(random_model(np.random.default_rng(15), genus, 1), grid())
    expected = csv_text(block_writer_oracle, bands)
    for chunk in (1 << 20, 4096):
        with chunk_budget(chunk):
            assert csv_text(write_bands_csv, bands) == expected, chunk


def test_box_writer_on_signed_zero_and_mixed_boxes(chunk_budget):
    # a hand-built structure: one row of -0.0 imaginary parts, rows of +0.0
    # and a complex row, so one box mixes real and complex rows
    grid = unitary_grid(1, [3, 2])
    values = np.arange(12, dtype=float).reshape(6, 2) - 5.5 + 0j
    values[1].imag = -0.0
    values[4] = [1e-300 - 2.5j, 3.0 + 1e300j]
    bands = BandStructure(grid, values, "abc")
    text = csv_text(write_bands_csv, bands)
    assert text == csv_text(block_writer_oracle, bands) == csv_text(per_float_writer_oracle, bands)
    assert "# model_hash=abc grid_shape=3x2 hermitian=True\n" in text
    assert "0,1,0,-3.5,-0.0\n" in text and "2,0,1,3.0,1e+300\n" in text
    for chunk in (4096, 600, 1):
        with chunk_budget(chunk):
            assert csv_text(write_bands_csv, bands) == text, chunk
    # no bands: the header lines alone, as before
    empty = BandStructure(grid, np.zeros((6, 0)))
    assert csv_text(write_bands_csv, empty) == csv_text(block_writer_oracle, empty)
    assert csv_text(write_bands_csv, empty).endswith("\ni0,i1,band,re,im\n")


class _LineCounter:
    """A text file that keeps only the number of lines written to it."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")


@pytest.mark.parametrize("counts", [[1, 200000], [200000, 1]])
def test_box_writer_memory_is_bounded_by_the_box_budget(counts):
    # the block writer held a head string per row of the long axis: 66 MB
    # for 1x200000 and 14.5 MB for 200000x1 of traced peak
    bands = sweep(random_model(np.random.default_rng(16), 1, 1), unitary_grid(1, counts))
    sink = _LineCounter()
    tracemalloc.start()
    try:
        write_bands_csv(bands, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.lines == 4 + 200000
    assert peak < 4_000_000, peak


def test_box_writer_memory_is_bounded_on_a_genus_2_d8_sweep():
    # the float kernel's temporaries and the block of words a box's rows
    # are built in stay within the box budget, as the strings did
    bands = sweep(random_model(np.random.default_rng(17), 2, 8), unitary_grid(2, 12))
    sink = _LineCounter()
    tracemalloc.start()
    try:
        write_bands_csv(bands, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.lines == 4 + 12**4 * 8
    assert peak < 4_000_000, peak
