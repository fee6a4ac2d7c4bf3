"""Momentum grids, sweeps, crossings, and the determinant expansion."""

import io
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hyperband import _serialize, spectra
from hyperband.errors import NumericalCheckFailure
from hyperband.momenta import AbelianMomentum
from hyperband.spectra import (
    BandStructure,
    BlochVariety,
    MomentumGrid,
    bloch_variety,
    complex_region_grid,
    detect_crossings,
    eigenvalues,
    spectral_radius,
    sweep,
    unitary_grid,
    write_bands_csv,
    write_sweep_csv,
)
from hyperband.tight_binding import TightBindingModel, bloch_abelian

from test_bloch_kernel import grid_momenta
from test_tight_binding import random_model, random_unitary_character


def test_unitary_grid_roots_of_unity():
    grid = unitary_grid(1, [4, 2])
    assert grid.shape == (4, 2)
    assert grid.n_points == 8
    assert grid.unitary
    assert np.allclose(grid.axes[0], [1.0, 1j, -1.0, -1j])
    assert np.allclose(grid.axes[1], [1.0, -1.0])
    # first axis cycles slowest (row-major)
    chis = grid_momenta(grid)
    assert np.allclose(chis[0], [1.0, 1.0])
    assert np.allclose(chis[1], [1.0, -1.0])
    assert np.allclose(chis[2], [1j, 1.0])
    # every entry is on the unit circle
    assert np.max(np.abs(np.abs(chis) - 1.0)) < 1e-14


def test_unitary_grid_broadcasts_single_count():
    grid = unitary_grid(2, [3])
    assert grid.shape == (3, 3, 3, 3)


def test_complex_region_grid_moduli():
    grid = complex_region_grid(1, [4], log_modulus=(-0.5, 0.5), n_moduli=3)
    assert not grid.unitary
    mods = np.unique(np.round(np.abs(np.concatenate(grid.axes)), 12))
    assert np.allclose(mods, [np.exp(-0.5), 1.0, np.exp(0.5)])


def test_grid_rejects_empty_axes():
    with pytest.raises(ValueError):
        unitary_grid(1, [0, 4])


def test_grid_derives_unitary_from_its_momenta():
    # J_a = 1, J_b = 0 at chi = (2i, 1): H = 2i + 1/(2i) = 1.5i, which an
    # eigvalsh solve (reading a non-Hermitian matrix as Hermitian) gives as 0
    model = TightBindingModel(1, [[0.0]], [[[1.0]], [[0.0]]])
    grid = MomentumGrid([[2j], [1]])
    assert not grid.unitary
    bands = sweep(model, grid)
    assert not bands.hermitian and bands.bands.tolist() == [[1.5j]]
    assert MomentumGrid([[1j, 1], [-1]]).unitary
    with pytest.raises(TypeError):
        MomentumGrid([[1j], [-1]], unitary=True)


def test_grid_is_read_off_its_axes():
    axes = [[1, 2j, 3], [0.5j], [1, -1], [4j, 1]]
    grid = MomentumGrid(axes)
    assert (grid.shape, grid.n_points, grid.genus) == ((3, 1, 2, 2), 12, 2)
    assert [a.tolist() for a in grid.axes] == [[complex(x) for x in a] for a in axes]
    assert all(a.dtype == complex and not a.flags.writeable for a in grid.axes)


@pytest.mark.parametrize("bad", [0.0, -0j, np.nan, np.inf, complex(1.0, -np.inf)])
def test_grid_refuses_zero_and_non_finite_momenta_before_its_shape(bad):
    # one axis is an odd count; the entries are refused first
    with pytest.raises(ValueError, match="grid momenta must be finite and nonzero"):
        MomentumGrid([[1.0, bad]])


def test_grid_reads_huge_and_tiny_finite_momenta():
    # |chi| overflows to inf for the first and is subnormal for the second
    grid = MomentumGrid([[1.7e308 + 1.7e308j], [5e-324]])
    assert not grid.unitary


@pytest.mark.parametrize(
    "axes, error",
    [
        ([], "grid needs an even, nonzero number of axes (2g), got 0"),
        ([[1j]], "grid needs an even, nonzero number of axes (2g), got 1"),
        ([[1], [1j, 2], [3]], "grid needs an even, nonzero number of axes (2g), got 3"),
        ([[1], []], "grid must contain at least one momentum"),
        ([[np.nan], [], [1]], "grid must contain at least one momentum"),  # before the entries
        ([[1], [[1, 2]]], "grid axes must be 1-d arrays"),
        ([[1], 1j], "grid axes must be 1-d arrays"),
    ],
)
def test_grid_refuses_an_odd_or_zero_axis_count_and_empty_or_non_flat_axes(axes, error):
    with pytest.raises(ValueError) as info:
        MomentumGrid(axes)
    assert str(info.value) == error


@pytest.mark.parametrize("counts", [2.7, [2, 2.5], [True, 2], [2, False]])
def test_grid_builders_refuse_fractional_and_boolean_counts(counts):
    with pytest.raises(ValueError, match="axis count must be an integer"):
        unitary_grid(1, counts)
    with pytest.raises(ValueError, match="axis count must be an integer"):
        complex_region_grid(1, counts, (-0.1, 0.1), 2)


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: unitary_grid(1, 10**400), "about 10^402 bytes of axes of about 10^400 entries"),
        # 2 phases times 10^400 moduli on each of the 2 axes
        (
            lambda: complex_region_grid(1, 2, (0, 1), 10**400),
            "about 10^402 bytes of axes of about 10^401 entries",
        ),
    ],
)
def test_grid_builders_refuse_oversized_grids_before_any_axis(monkeypatch, build, shown):
    def unreachable(*args):
        raise AssertionError("an axis was built")

    monkeypatch.setattr(np, "exp", unreachable)
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == f"bands grid too large: {shown}; the limit is 1.1 GB"


def test_grid_axes_are_priced_at_48_bytes_an_entry():
    # a genus-1 grid of 4 x 4 points has 8 axis entries: 384 B pass, 383 B do not
    with mock.patch.object(_serialize, "_MAX_ARRAY_BYTES", 48 * 8):
        assert unitary_grid(1, 4).shape == (4, 4)
    with mock.patch.object(_serialize, "_MAX_ARRAY_BYTES", 48 * 8 - 1):
        with pytest.raises(ValueError, match=r"about 0\.0 GB of axes of 8 entries"):
            unitary_grid(1, 4)


@pytest.mark.parametrize(
    "build, entries",
    [
        (lambda: unitary_grid(1, [2, 200_000]), 200_002),
        (lambda: unitary_grid(2, [2, 2, 2, 200_000]), 200_006),
        (lambda: complex_region_grid(1, [2, 20_000], (-0.1, 0.1), 10), 200_020),
        # one phase an axis: the moduli weigh most against the entries
        (lambda: complex_region_grid(1, 1, (-0.1, 0.1), 100_000), 200_000),
    ],
    ids=["unitary-g1", "unitary-g2", "region", "region-moduli-only"],
)
def test_grid_build_peaks_within_its_size_estimate(build, entries):
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 * entries < peak <= 48 * entries


def test_sweep_refuses_a_built_grid_before_any_hamiltonian(monkeypatch):
    # 182^4 points: 11,648 B of axes, 17.6 GB of bands at d = 1; refused
    # before any Hamiltonian is assembled
    grid = unitary_grid(2, 182)
    assert grid.n_points == 1097199376
    model = random_model(np.random.default_rng(5), 2, 1)

    def unreachable(*args):
        raise AssertionError("a Hamiltonian was assembled")

    monkeypatch.setattr(spectra, "_assemble", unreachable)
    with pytest.raises(ValueError) as info:
        sweep(model, grid)
    assert str(info.value) == (
        "bands grid too large: about 17.6 GB of bands for 1097199376 points; the limit is 1.1 GB"
    )


def test_sweep_refuses_a_grid_whose_bands_pass_the_size_rule():
    # 16 points of 3 bands pass a 768 B limit and do not pass 767 B: the
    # grid's axes are not counted
    model = random_model(np.random.default_rng(5), 1, 3)
    grid = unitary_grid(1, 4)
    with mock.patch.object(_serialize, "_MAX_ARRAY_BYTES", 16 * 3 * 16):
        assert sweep(model, grid).bands.shape == (16, 3)
    with mock.patch.object(_serialize, "_MAX_ARRAY_BYTES", 16 * 3 * 16 - 1):
        with pytest.raises(ValueError) as info:
            sweep(model, grid)
        # the bands command's writer shares the refusal, before it writes
        out = io.StringIO()
        with pytest.raises(ValueError) as written:
            write_sweep_csv(model, grid, out)
    assert str(info.value) == str(written.value) == (
        "bands grid too large: about 0.0 GB of bands for 16 points; the limit is 0.0 GB"
    )
    assert out.getvalue() == ""


def test_grid_builders_accept_integral_numbers_only():
    assert unitary_grid(1, 2.0).shape == (2, 2)
    assert unitary_grid(1, [np.int64(3), 2]).shape == (3, 2)
    assert complex_region_grid(1, 2, (-0.1, 0.1), 3.0).shape == (6, 6)
    with pytest.raises(ValueError, match="n_moduli must be an integer"):
        complex_region_grid(1, 2, (-0.1, 0.1), 1.5)


def test_eigenvalues_sorted_by_real_then_imag():
    h = np.diag([3.0, -1.0, 3.0 - 2.0j])
    ev = eigenvalues(h)
    assert np.allclose(ev, [-1.0, 3.0 - 2.0j, 3.0])


def test_eigenvalues_hermitian_path_is_real():
    rng = np.random.default_rng(0)
    model = random_model(rng, 1, 4)
    chi = random_unitary_character(rng, 1)
    ev = eigenvalues(bloch_abelian(model, chi))
    assert np.max(np.abs(ev.imag)) == 0.0


def test_sweep_shapes_and_meta():
    rng = np.random.default_rng(1)
    model = random_model(rng, 1, 2)
    grid = unitary_grid(1, [4, 4])
    bands = sweep(model, grid)
    assert bands.bands.shape == (16, 2)
    assert bands.hermitian
    assert bands.model_hash == model.content_hash
    assert bands.grid is grid and bands.grid.shape == (4, 4)


def test_sweep_matches_pointwise_assembly():
    rng = np.random.default_rng(2)
    model = random_model(rng, 2, 2)
    grid = unitary_grid(2, [2, 2, 2, 2])
    bands = sweep(model, grid)
    chis = grid_momenta(grid)
    for p in (0, 3, 7, 15):
        chi = AbelianMomentum(chis[p])
        direct = eigenvalues(bloch_abelian(model, chi))
        assert np.allclose(bands.bands[p], direct, atol=1e-12)


def test_sweep_off_torus_complex_bands():
    rng = np.random.default_rng(3)
    model = random_model(rng, 1, 2)
    grid = complex_region_grid(1, [4], log_modulus=(-0.3, 0.3), n_moduli=2)
    bands = sweep(model, grid)
    assert not bands.hermitian
    assert np.max(np.abs(bands.bands.imag)) > 1e-6  # genuinely complex somewhere


def test_spectral_radius():
    rng = np.random.default_rng(4)
    model = random_model(rng, 1, 2)
    bands = sweep(model, unitary_grid(1, [3, 3]))
    assert spectral_radius(bands) == np.max(np.abs(bands.bands))


def test_detect_crossings_flat_doubled_model():
    # two uncoupled copies of the same single-band model cross everywhere
    model = TightBindingModel(
        1, np.zeros((2, 2)), [np.eye(2), np.eye(2)]
    )
    bands = sweep(model, unitary_grid(1, [3, 3]))
    crossings = detect_crossings(bands)
    assert len(crossings) == 9
    assert all(c.band_indices == (0, 1) for c in crossings)


def test_detect_crossings_gapped_model_has_none():
    model = TightBindingModel(
        1, np.diag([-10.0, 10.0]), [0.1 * np.eye(2), 0.1 * np.eye(2)]
    )
    bands = sweep(model, unitary_grid(1, [4, 4]))
    assert detect_crossings(bands) == ()


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_detect_crossings_default_tolerance_refuses_non_finite_bands(bad):
    # rows 0, 1, 2, 3: one non-finite entry would make the default gap_tol
    # non-finite and merge every point's eigenvalues into one group
    rows = np.tile(np.arange(4.0), (4, 1)).astype(complex)
    rows[2, 3] = bad
    bands = BandStructure(unitary_grid(1, [2, 2]), rows)
    with pytest.raises(ValueError, match=f"spectral radius is {bad}: give gap_tol explicitly"):
        detect_crossings(bands)
    assert detect_crossings(bands, gap_tol=0.5) == ()


# ---------------------------------------------------------------------------
# determinant expansion
# ---------------------------------------------------------------------------


def test_variety_single_site_exact_coefficients():
    # H = chi1 + 1/chi1 + chi2 + 1/chi2, det(H - E) = H - E:
    # five Laurent terms, each coefficient 1 (and -1 on E)
    model = TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]])
    var = bloch_variety(model)
    terms = {tuple(t["alpha"]) + (t["power"],): complex(*t["coeff"]) for t in json.loads(var.json_text())["terms"]}
    assert len(terms) == 5
    assert np.isclose(terms[(0, 0, 1)], -1.0)
    for alpha in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)):
        assert np.isclose(terms[alpha], 1.0)


def test_variety_vanishes_on_spectrum_everywhere():
    rng = np.random.default_rng(5)
    for genus, dim in ((1, 2), (1, 3), (2, 2)):
        model = random_model(rng, genus, dim)
        var = bloch_variety(model)
        for _ in range(5):
            # far off the sampling torus on purpose
            chi = AbelianMomentum(
                np.exp(rng.uniform(-0.5, 0.5, 2 * genus) + 1j * rng.uniform(0, 2 * np.pi, 2 * genus))
            )
            evs = eigenvalues(bloch_abelian(model, chi))
            for e in evs:
                value, scale = var.evaluate(chi.chi, e, with_scale=True)
                assert abs(value) <= 1e-9 * max(scale, 1e-300)


def test_variety_detects_tampered_model():
    # corrupting a coefficient after the fact must show up at held-out points
    rng = np.random.default_rng(6)
    model = random_model(rng, 1, 2)
    var = bloch_variety(model)
    coeffs = np.array(var.coeffs)
    coeffs[tuple([0] * coeffs.ndim)] += 0.1
    broken = BlochVariety(coeffs, holdout_residual=var.holdout_residual)
    chi = random_unitary_character(rng, 1)
    e = eigenvalues(bloch_abelian(model, chi))[0]
    value, scale = broken.evaluate(chi.chi, e, with_scale=True)
    assert abs(value) > 1e-8 * scale


def test_variety_holdout_failure_raises():
    rng = np.random.default_rng(7)
    model = random_model(rng, 1, 2)
    with pytest.raises(NumericalCheckFailure):
        bloch_variety(model, tol=1e-30)  # impossible tolerance


def test_variety_json_layout():
    model = TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]])
    doc = json.loads(bloch_variety(model).json_text())
    assert doc["hyperband_bloch_variety"] == 1
    assert doc["genus"] == 1 and doc["dim"] == 1
    assert len(doc["terms"]) == 5
    for term in doc["terms"]:
        assert len(term["alpha"]) == 2
        assert "power" in term and "coeff" in term


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_shape_and_round_trip_floats():
    rng = np.random.default_rng(8)
    model = random_model(rng, 1, 2)
    bands = sweep(model, unitary_grid(1, [3, 2]))
    buf = io.StringIO()
    write_bands_csv(bands, buf)
    lines = buf.getvalue().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(comments) == 3
    assert data[0] == "i0,i1,band,re,im"
    assert len(data) == 1 + 6 * 2
    # repr floats parse back to the exact doubles
    first = data[1].split(",")
    assert float(first[3]) == bands.bands[0, 0].real
    parsed = [int(first[0]), int(first[1]), int(first[2])]
    assert parsed == [0, 0, 0]


def test_csv_deterministic():
    rng = np.random.default_rng(9)
    model = random_model(rng, 1, 2)
    bands = sweep(model, unitary_grid(1, [3, 3]))
    a, b = io.StringIO(), io.StringIO()
    write_bands_csv(bands, a)
    write_bands_csv(bands, b)
    assert a.getvalue() == b.getvalue()


# ---------------------------------------------------------------------------
# input refusals: each row a call, its exception type and its whole message
# ---------------------------------------------------------------------------

ONE_STATE = TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]])

REFUSALS = [
    pytest.param(
        lambda: unitary_grid(1, [2, 2, 2]), ValueError,
        "need 2 axis counts (or one to broadcast), got 3", id="axis-count",
    ),
    pytest.param(
        lambda: complex_region_grid(1, 2, (-0.1, 0.1), 0), ValueError,
        "grid is empty: n_moduli must be >= 1", id="no-moduli",
    ),
    pytest.param(
        lambda: sweep(ONE_STATE, unitary_grid(2, 2)), ValueError, "genus mismatch: model 1, grid 2", id="sweep-genus",
    ),
    pytest.param(
        lambda: write_sweep_csv(ONE_STATE, unitary_grid(2, 2), io.StringIO()), ValueError,
        "genus mismatch: model 1, grid 2", id="sweep-csv-genus",
    ),
    pytest.param(
        lambda: BandStructure(unitary_grid(1, 3), np.zeros((9, 2, 1))), ValueError,
        "bands shape (9, 2, 1) is not (9, d): one row per grid point", id="bands-shape",
    ),
    pytest.param(
        lambda: BandStructure(unitary_grid(1, 3), np.zeros(9)), ValueError,
        "bands shape (9,) is not (9, d): one row per grid point", id="bands-1d",
    ),
    pytest.param(
        lambda: BandStructure(unitary_grid(1, 3), np.zeros((5, 2))), ValueError,
        "bands shape (5, 2) is not (9, d): one row per grid point", id="bands-points",
    ),
    pytest.param(
        lambda: bloch_variety(ONE_STATE).evaluate([1.0, 1.0, 1.0], 0.0), ValueError,
        "need 2 momentum entries, got 3", id="variety-entries",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_spectra_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
