"""The bands pipeline: batched sweep, vectorized clusterer, block-joined CSV rows.

Each step is checked byte for byte against the route it replaced, kept here
as an oracle: the one-shot stack solve of `sweep`, the all-pairs union-find
(`test_bloch_kernel.union_find_oracle`) with one `np.mean` per group, and the
per-float CSV writer, which also checks the CLI's bytes.
"""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband import cli, spectra, spectral_curve
from hyperband.errors import NumericalCheckFailure
from hyperband.higgs_toy import ToyModelPoint
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
)
from hyperband.tight_binding import (
    TightBindingModel,
    _assemble,
    bloch_abelian,
    read_model,
    write_model,
)

from test_bloch_kernel import grids, linkage_clusters, seeds, union_find_oracle
from test_tight_binding import random_model


def one_shot_oracle(model, grid):
    stack = _assemble(model, grid.chis, 1.0 / grid.chis)
    return _sorted_eigenvalues(stack, grid.unitary)


def detect_crossings_oracle(bands, gap_tol=None):
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
        for p, members in union_find_oracle(bands.bands, float(gap_tol))
        if len(members) >= 2
    )


def per_float_writer_oracle(bands, fh):
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
            fh.write(f"{prefix},{b},{float(lam.real)!r},{float(lam.imag)!r}\n")


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
    return BandStructure(bands.grid, values, bands.meta)


# -- sweep in batches --------------------------------------------------------

@pytest.mark.parametrize("region", [False, True], ids=["unitary", "region"])
@pytest.mark.parametrize("counts", [(20, 40), (16, 48)], ids=["remainder", "whole-slices"])
def test_sweep_slices_match_one_shot_solve(region, counts):
    # d = 16: a slice is 256 rows; 800 rows are three slices and 32 more,
    # 768 rows are three slices exactly
    model = random_model(np.random.default_rng(8), 1, 16)
    assert spectra._CHUNK_BYTES // (16 * 16**2) == 256
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
    with chunk_budget(rows * 16 * dim**2):
        bands = sweep(model, grid)
    assert bands.bands.tobytes() == one_shot_oracle(model, grid).tobytes()


def test_slices_join_a_trailing_single_item(chunk_budget):
    with chunk_budget(4 * 16):
        assert spectra._slices(9, 16) == [slice(0, 4), slice(4, 9)]
        assert spectra._slices(8, 16) == [slice(0, 4), slice(4, 8)]
        assert spectra._slices(1, 16) == [slice(0, 1)]
        assert spectra._slices(0, 16) == []
    with chunk_budget(16):  # one item per slice: nothing to join
        assert spectra._slices(3, 16) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_sweep_last_point_solves_as_in_the_one_shot_stack():
    # d = 1: 65,537 points are one full 1 MiB slice and one point more,
    # which joins that slice instead of being solved alone
    grid = complex_region_grid(1, [65537, 1], (0.2, 0.2), 1)
    for seed in range(10):
        model = random_model(np.random.default_rng(seed), 1, 1)
        assert sweep(model, grid).bands[-1].tobytes() == one_shot_oracle(model, grid)[-1].tobytes()


@pytest.mark.parametrize("budget", [16, 2 * 16, 3 * 16])
def test_sweep_at_small_budgets_solves_as_in_the_one_shot_stack(chunk_budget, budget):
    # at 16 B every slice holds one point, and each is solved as a lone
    # one-row stack; at 32 and 48 B no slice is a lone trailing point
    grid = complex_region_grid(1, [7, 1], (0.2, 0.2), 1)
    for seed in range(10):
        model = random_model(np.random.default_rng(seed), 1, 1)
        with chunk_budget(budget):
            bands = sweep(model, grid).bands
        if budget == 16:
            rows = [one_shot_oracle(model, MomentumGrid(grid.chis[p : p + 1], (1,) * 2, False)) for p in range(7)]
            assert bands.tobytes() == np.concatenate(rows).tobytes()
        else:
            assert bands.tobytes() == one_shot_oracle(model, grid).tobytes()


@pytest.mark.parametrize("solver", ["eigvalsh", "eigvals"])
def test_sweep_names_the_failing_point_in_a_later_slice(monkeypatch, solver):
    model = random_model(np.random.default_rng(9), 1, 16)
    if solver == "eigvalsh":
        grid = unitary_grid(1, [20, 40])
    else:
        grid = complex_region_grid(1, [10, 20], (-0.3, 0.2), 2)
    bad = 700  # in the third slice of 256 rows
    target = _assemble(model, grid.chis[bad : bad + 1], 1.0 / grid.chis[bad : bad + 1])[0]
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
    index = np.unravel_index(bad, grid.shape)
    assert str(err.value) == (
        f"eigensolver failed at grid index {index}: eigensolver did not converge: forced"
    )
    # three batches, then single matrices of the failing slice up to the bad point
    assert batches[:3] == [(256, 16, 16)] * 3
    assert batches[3:] == [(16, 16)] * (bad - 512 + 1)


def test_near_unit_region_grid_solves_like_its_momenta():
    # moduli within 1e-9 of one: unitary under momenta.TOL_UNITARY, like each momentum
    model = random_model(np.random.default_rng(10), 1, 3)
    grid = complex_region_grid(1, [3, 3], (-1e-10, 1e-10), 2)
    assert grid.unitary
    bands = sweep(model, grid)
    for p in range(grid.n_points):
        ham = bloch_abelian(model, grid.momentum(p))
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
    with mock.patch.object(spectra, "_union_find", wraps=spectra._union_find) as union_find:
        groups = detect_crossings(bands, gap_tol)
    assert_groups_equal(groups, detect_crossings_oracle(bands, gap_tol))
    # rows that are not sorted, and only those, take the union-find
    unsorted = np.flatnonzero(np.any(real[:, 1:] < real[:, :-1], axis=1))
    if unsorted.size:
        assert union_find.call_args.args[0].tobytes() == values[unsorted].tobytes()
    else:
        union_find.assert_not_called()


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
    # sorted real rows (labelled as runs), unsorted real rows and complex rows
    # interleaved in one structure: the two routes' groups merge in row order
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
    with mock.patch.object(spectra, "_union_find", wraps=spectra._union_find) as union_find:
        groups = detect_crossings(bands, gap_tol)
    assert_materialised(groups)
    assert_groups_equal(groups, detect_crossings_oracle(bands, gap_tol))
    # the rows that are not sorted and real, and only those, take the union-find
    real = ~values.imag.any(axis=1)
    runs = real & np.all(values.real[:, 1:] >= values.real[:, :-1], axis=1)
    if runs.all():
        union_find.assert_not_called()
    else:
        assert union_find.call_args.args[0].tobytes() == values[~runs].tobytes()


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


@pytest.mark.parametrize(
    "m, u",
    [(1 + 1e-7, -1.0), (1 + 1e-7, 2 + 1j), (1e-8 + 1e-8j, -1.0), (0.999999998, 2 + 1j)],
)
def test_curve_info_double_root_branch_points_unchanged(monkeypatch, m, u):
    phi = spectral_curve.toy_to_twisted(ToyModelPoint(m=m, u=u))
    new = spectral_curve.curve_info(phi).branch_points
    assert any(bp.multiplicity == 2 for bp in new)
    # the old route: every cluster, singletons included, each mean by np.mean
    monkeypatch.setattr(spectral_curve, "_union_find", union_find_oracle)
    monkeypatch.setattr(
        spectral_curve,
        "_cluster_means",
        lambda rows, clusters: [complex(np.mean(rows[p, m])) for p, m in clusters],
    )
    old = spectral_curve.curve_info(phi).branch_points
    assert [(repr(bp.point), bp.multiplicity) for bp in new] == [
        (repr(bp.point), bp.multiplicity) for bp in old
    ]


# -- the CSV writer ----------------------------------------------------------

def with_imag(bands, imag):
    values = np.array(bands.bands)
    values.imag = imag
    return BandStructure(bands.grid, values, bands.meta)


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
    # the writer picks its path per block from the imaginary parts' bits, not
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
