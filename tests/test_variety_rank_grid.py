"""The Bloch variety's exponent bounds, sampled in bounded slices.

Three oracles, each a route `bloch_variety` once took.  The product grid on
the hop ranks, every (2r_i+1)^{2g} point solved by `eigvalsh` and inverted
by an FFT over the 2g axes, the route before the rank-1 lattice: the lattice
must give the same term support with every coefficient within 1e-13 of the
peak and a passing held-out check, over genus 1-3, d 1-5 and rank deficits.
The full (2d+1)^{2g} grid route, serialization included: with every hop at
full rank the same support within 1e-13 of the peak, and with rank-deficient
hops within 1e-12.  The rank grid solved with the general `eigvals` and a
per-point held-out loop, the route before the Hermitian solve: the same
support within 1e-12 of the peak.
"""

import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperband import cli, spectra
from hyperband._serialize import complex_to_json
from hyperband.spectra import (
    BlochVariety,
    MomentumGrid,
    _char_coeffs_from_eigenvalues,
    bloch_variety,
)
from hyperband.tight_binding import TightBindingModel, _assemble, read_model, write_model

from test_bloch_kernel import grid_momenta


def holdout_point(rng, genus, lam_scale):
    """One held-out momentum and energy, in `bloch_variety`'s draw order."""
    chi = np.exp(rng.uniform(-0.3, 0.3, size=2 * genus)) * np.exp(
        1j * rng.uniform(0.0, 2 * np.pi, size=2 * genus)
    )
    return chi, (rng.normal() + 1j * rng.normal()) * max(lam_scale, 1.0)


def prune(coeffs, prune_rel=1e-13):
    peak = float(np.max(np.abs(coeffs)))
    if peak > 0:
        coeffs = np.where(np.abs(coeffs) <= prune_rel * peak, 0.0, coeffs)
    return coeffs


def full_grid_oracle(model, holdout_points=20, seed=0):
    """The full-grid `bloch_variety`: (coeffs, holdout_residual, JSON document)."""
    d, g = model.dim, model.genus
    m = 2 * d + 1
    axis = np.exp(2j * np.pi * np.arange(m) / m)
    grid = MomentumGrid([axis] * (2 * g))
    chis, shape = grid_momenta(grid), grid.shape
    H = _assemble(model, chis.T[..., None, None], (1.0 / chis).T[..., None, None])
    lams = np.sort(np.linalg.eigvalsh(H).astype(complex), axis=-1)
    F = _char_coeffs_from_eigenvalues(lams).reshape(shape + (d + 1,))
    coeffs = prune(np.fft.fftn(F, axes=tuple(range(2 * g))) / (m ** (2 * g)))
    exps = np.arange(m)
    exps[exps > d] -= m
    rng = np.random.default_rng(seed)
    lam_scale = float(np.max(np.abs(lams)))
    points = [holdout_point(rng, g, lam_scale) for _ in range(holdout_points)]
    chis = np.array([chi for chi, _ in points])
    energies = np.array([E for _, E in points])
    H = _assemble(model, chis.T[..., None, None], (1.0 / chis).T[..., None, None])
    H[:, np.arange(d), np.arange(d)] -= energies[:, None]
    worst = 0.0
    for chi, E, direct in zip(chis, energies, np.linalg.det(H).tolist()):
        acc, acc_abs = coeffs, np.abs(coeffs)
        for i in range(2 * g):
            powers = chi[i] ** exps
            acc = np.tensordot(powers, acc, axes=(0, 0))
            acc_abs = np.tensordot(np.abs(powers), acc_abs, axes=(0, 0))
        e_powers = complex(E) ** np.arange(d + 1)
        value = complex(np.dot(acc, e_powers))
        scale = float(np.dot(acc_abs, np.abs(e_powers)))
        worst = max(worst, abs(value - direct) / max(scale, 1e-300))
    terms = []
    for idx in np.argwhere(coeffs != 0):
        *chi_idx, j = idx
        alpha = tuple(int(exps[i]) for i in chi_idx)
        terms.append((alpha, int(j), complex(coeffs[tuple(idx)])))
    terms.sort(key=lambda t: (t[0], t[1]))
    doc = {
        "hyperband_bloch_variety": 1,
        "genus": g,
        "dim": d,
        "exponent_bound": d,
        "holdout_residual": worst,
        "terms": [
            {"alpha": list(a), "power": j, "coeff": complex_to_json(c)} for a, j, c in terms
        ],
    }
    return coeffs, worst, doc


def product_grid_oracle(model):
    """The coefficients of the product-grid route on the hop ranks: every
    grid point solved by `eigvalsh`, one FFT over the 2g axes, pruned."""
    d, g = model.dim, model.genus
    ranks = [int(np.linalg.matrix_rank(h)) for h in model.hops]
    grid = MomentumGrid([np.exp(2j * np.pi * np.arange(2 * r + 1) / (2 * r + 1)) for r in ranks])
    chis = grid_momenta(grid)
    H = _assemble(model, chis.T[..., None, None], (1.0 / chis).T[..., None, None])
    lams = np.sort(np.linalg.eigvalsh(H).astype(complex), axis=-1)
    F = _char_coeffs_from_eigenvalues(lams).reshape(grid.shape + (d + 1,))
    return prune(np.fft.fftn(F, axes=tuple(range(2 * g))) / chis.shape[0])


def eigvals_route_oracle(model, holdout_points=20, seed=0):
    """The rank-grid `bloch_variety` on the general solver: each sample by
    unsorted `eigvals`, each held-out point by its own `det`; returns the
    variety with its holdout_residual."""
    d, g = model.dim, model.genus
    ranks = [int(np.linalg.matrix_rank(h)) for h in model.hops]
    grid = MomentumGrid([np.exp(2j * np.pi * np.arange(2 * r + 1) / (2 * r + 1)) for r in ranks])
    chis, shape = grid_momenta(grid), grid.shape
    lams = np.linalg.eigvals(_assemble(model, chis.T[..., None, None], (1.0 / chis).T[..., None, None]))
    F = _char_coeffs_from_eigenvalues(lams).reshape(shape + (d + 1,))
    coeffs = prune(np.fft.fftn(F, axes=tuple(range(2 * g))) / chis.shape[0])
    variety = BlochVariety(coeffs, holdout_residual=0.0)
    rng = np.random.default_rng(seed)
    lam_scale = float(np.max(np.abs(lams)))
    worst = 0.0
    for _ in range(holdout_points):
        chi, E = holdout_point(rng, g, lam_scale)
        H = _assemble(model, chi[:, None, None], (1.0 / chi)[:, None, None])
        direct = complex(np.linalg.det(H - E * np.eye(d)))
        value, scale = variety.evaluate(chi, E, with_scale=True)
        worst = max(worst, abs(value - direct) / max(scale, 1e-300))
    return replace(variety, holdout_residual=worst)


def hop_of_rank(rng, dim, rank, singular_values=None):
    u = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    v = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    if singular_values is not None:
        u, _ = np.linalg.qr(u)
        v = np.linalg.qr(v.conj().T)[0].conj().T
        return (u * singular_values) @ v
    return u @ v / np.sqrt(max(rank, 1))


def model_with_ranks(seed, genus, dim, ranks):
    rng = np.random.default_rng(seed)
    onsite = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    onsite = onsite + onsite.conj().T
    return TightBindingModel(genus, onsite, [hop_of_rank(rng, dim, r) for r in ranks])


def variety_terms(variety):
    """(alpha tuple, E power, coefficient) per term, read back from the JSON text."""
    doc = json.loads(variety.json_text())
    return [(tuple(t["alpha"]), t["power"], complex(*t["coeff"])) for t in doc["terms"]]


def assert_same_support(variety, oracle_doc, rel=1e-12):
    new = {(a, j): c for a, j, c in variety_terms(variety)}
    old = {
        (tuple(t["alpha"]), t["power"]): complex(*t["coeff"]) for t in oracle_doc["terms"]
    }
    assert set(new) == set(old)
    peak = max(abs(c) for c in old.values())
    assert max(abs(new[k] - old[k]) for k in old) <= rel * peak


def shapes(max_dim):
    return st.tuples(st.integers(1, 2), st.integers(1, max_dim)).filter(
        lambda s: s[0] == 1 or s[1] <= 3
    )


deficit_lists = st.lists(st.integers(0, 5), min_size=4, max_size=4)


@settings(max_examples=30)
@given(shape=shapes(5), seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([1 << 20, 512]))
def test_property_full_rank_equals_full_grid(chunk_budget, tmp_path_factory, shape, seed, chunk):
    # full-rank hops: the full-grid route's exponent bound, term support and
    # coefficients to 1e-13 of the peak, and the same bits for any slice size
    # (512 B cuts the lattice into slices of a few points or of one)
    genus, dim = shape
    model = model_with_ranks(seed, genus, dim, [dim] * 2 * genus)
    path = tmp_path_factory.mktemp("variety") / "model.json"
    write_model(model, path)
    model = read_model(path)
    coeffs, _, doc = full_grid_oracle(model, seed=seed % 1000)
    variety = bloch_variety(model, seed=seed % 1000)
    with chunk_budget(chunk):
        sliced = bloch_variety(model, seed=seed % 1000)
    assert variety.bound == dim
    assert variety.coeffs.shape == coeffs.shape
    assert sliced.coeffs.tobytes() == variety.coeffs.tobytes()
    assert sliced.holdout_residual == variety.holdout_residual <= 1e-8
    assert_same_support(variety, doc, rel=1e-13)
    out = path.with_name("variety.json")
    argv = ["bloch-variety", "--model", str(path), "--seed", str(seed % 1000), "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text() == variety.json_text()


@settings(max_examples=150)
@given(
    genus=st.integers(1, 3), dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
    deficits=st.lists(st.integers(0, 5), min_size=6, max_size=6),
)
@example(genus=3, dim=2, seed=1, deficits=[0] * 6)
@example(genus=2, dim=4, seed=2, deficits=[0] * 4 + [0, 0])
@example(genus=3, dim=5, seed=3, deficits=[3, 4, 3, 5, 3, 4])
def test_property_lattice_matches_product_grid_route(genus, dim, seed, deficits):
    # the product grid on the same ranks, kept to at most 5^6 points
    ranks = [max(0, dim - k) for k in deficits[: 2 * genus]]
    assume(math.prod(2 * r + 1 for r in ranks) <= 5**6)
    model = model_with_ranks(seed, genus, dim, ranks)
    variety = bloch_variety(model, seed=seed % 1000)
    oracle = product_grid_oracle(model)
    assert variety.coeffs.shape == oracle.shape
    assert np.array_equal(variety.coeffs != 0, oracle != 0)
    peak = np.max(np.abs(oracle))
    assert np.max(np.abs(variety.coeffs - oracle)) <= 1e-13 * peak
    assert variety.holdout_residual <= 1e-8


@settings(max_examples=40)
@given(shape=shapes(5), seed=st.integers(0, 2**32 - 1), deficits=deficit_lists)
@example(shape=(1, 4), seed=2, deficits=[0, 0, 0, 0])
@example(shape=(2, 3), seed=3, deficits=[0, 0, 0, 0])
@example(shape=(2, 3), seed=4, deficits=[1, 0, 2, 3])
def test_property_hermitian_route_matches_eigvals_route(shape, seed, deficits):
    # full and deficient ranks, genus 1-2, d 1-5: the Hermitian solve and the
    # batched held-out determinants agree with the general route to rounding
    genus, dim = shape
    ranks = [max(0, dim - k) for k in deficits[: 2 * genus]]
    model = model_with_ranks(seed, genus, dim, ranks)
    variety = bloch_variety(model, seed=seed % 1000)
    oracle = eigvals_route_oracle(model, seed=seed % 1000)
    assert variety.coeffs.shape == oracle.coeffs.shape
    assert_same_support(variety, json.loads(oracle.json_text()))
    assert variety.holdout_residual <= 1e-8


@settings(max_examples=40)
@given(shape=shapes(5), seed=st.integers(0, 2**32 - 1), deficits=deficit_lists)
def test_property_rank_deficient_keeps_support(shape, seed, deficits):
    genus, dim = shape
    ranks = [max(0, dim - k) for k in deficits[: 2 * genus]]
    model = model_with_ranks(seed, genus, dim, ranks)
    variety = bloch_variety(model)
    assert variety.coeffs.shape == tuple(2 * r + 1 for r in ranks) + (dim + 1,)
    assert variety.bound == max(ranks)
    _, _, doc = full_grid_oracle(model)
    assert_same_support(variety, doc)
    assert variety.holdout_residual <= 1e-8


def test_rank_zero_hop_has_axis_length_one():
    model = model_with_ranks(3, 2, 3, [3, 0, 1, 2])
    variety = bloch_variety(model)
    assert variety.coeffs.shape == (7, 1, 3, 5, 4)
    assert all(alpha[1] == 0 for alpha, _, _ in variety_terms(variety))
    assert_same_support(variety, full_grid_oracle(model)[2])


def test_near_singular_hop_keeps_full_degree():
    # a singular value at 1e-9 of the largest is a real one: the hop keeps
    # rank d, so the degree-d terms it carries are sampled exactly
    rng = np.random.default_rng(11)
    dim = 3
    onsite = np.diag([0.3, -0.2, 0.5]).astype(complex)
    hops = [hop_of_rank(rng, dim, dim, singular_values=[1.0, 0.7, 1e-9])]
    hops.append(hop_of_rank(rng, dim, dim))
    model = TightBindingModel(1, onsite, hops)
    variety = bloch_variety(model)
    coeffs, _, doc = full_grid_oracle(model)
    assert variety.coeffs.shape == coeffs.shape == (7, 7, 4)
    assert_same_support(variety, doc, rel=1e-13)
    assert variety.holdout_residual <= 1e-8
    assert any(abs(alpha[0]) == dim for alpha, _, _ in variety_terms(variety))


def test_mixed_axis_lengths_through_terms_evaluate_and_json():
    model = model_with_ranks(5, 2, 3, [1, 3, 0, 2])
    variety = bloch_variety(model)
    assert variety.coeffs.shape == (3, 7, 1, 5, 4)
    terms = variety_terms(variety)
    for axis, r in enumerate([1, 3, 0, 2]):
        assert max(abs(alpha[axis]) for alpha, _, _ in terms) == r
    rng = np.random.default_rng(6)
    for _ in range(5):
        chi = np.exp(rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(0, 2 * np.pi, 4))
        E = complex(rng.normal(), rng.normal())
        value, scale = variety.evaluate(chi, E, with_scale=True)
        from_terms = sum(c * np.prod(chi**np.array(a)) * E**j for a, j, c in terms)
        assert abs(value - from_terms) <= 1e-13 * scale
        H = _assemble(model, chi[:, None, None], (1.0 / chi)[:, None, None])
        assert abs(value - np.linalg.det(H - E * np.eye(3))) <= 1e-10 * scale
    doc = json.loads(variety.json_text())
    assert doc["hyperband_bloch_variety"] == 1
    assert doc["exponent_bound"] == 3
    assert [(tuple(t["alpha"]), t["power"]) for t in doc["terms"]] == [
        (a, j) for a, j, _ in terms
    ]
    assert_same_support(variety, full_grid_oracle(model)[2])


@pytest.mark.parametrize("coeffs_shape", [(3, 4, 4), (3, 5, 4, 1), (4,), (3, 3, 1)])
def test_variety_rejects_layout_that_does_not_fit(coeffs_shape):
    # an even chi axis; three chi axes; no chi axis; an E axis of length 1
    with pytest.raises(ValueError):
        BlochVariety(np.zeros(coeffs_shape), holdout_residual=0.0)


def test_oversized_variety_refused_before_sampling(tmp_path, capsys):
    # g = 3, d = 6 at full rank: a 13^6 grid, refused up front with exit 2
    model = model_with_ranks(1, 3, 6, [6] * 6)
    path = tmp_path / "big.json"
    write_model(model, path)
    sampled = AssertionError("the oversized grid was sampled")
    tracemalloc.start()
    try:
        with mock.patch.object(spectra, "_assemble", side_effect=sampled):
            code = cli.main(["bloch-variety", "--model", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "13x13x13x13x13x13" in err and "[6, 6, 6, 6, 6, 6]" in err and "GB" in err
    assert peak < 10 * 2**20


def test_low_rank_genus_three_runs_in_bounded_memory():
    # g = 3, d = 6 with rank-2 hops: 5^6 samples, well under 1 GB
    model = model_with_ranks(2, 3, 6, [2] * 6)
    tracemalloc.start()
    try:
        variety = bloch_variety(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert variety.coeffs.shape == (5,) * 6 + (7,)
    assert variety.holdout_residual <= 1e-8
    assert peak < 2**30
    assert json.loads(variety.json_text())["exponent_bound"] == 2
