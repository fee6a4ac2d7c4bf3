"""BlochVariety's readers against the per-call forms they replaced.

`_evaluate_points` reads the exponents and |coeffs| cached on the variety
and contracts each chi axis for all its points as one stacked matmul;
`evaluate` is its one-point case, and the held-out check of `bloch_variety`
calls it once per slice of points.  `json_text` reads its terms from one
np.nonzero.  The per-point tensordot evaluation and the argwhere loop are
kept here as oracles, and the new forms must match them bit for bit.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband._serialize import complex_to_json
from hyperband.spectra import BlochVariety, bloch_variety

from test_variety_rank_grid import model_with_ranks, variety_terms


def axis_exponents(variety):
    exps = []
    for m in variety.coeffs.shape[:-1]:
        e = np.arange(m)
        e[e > m // 2] -= m
        exps.append(e)
    return exps


def tensordot_evaluate(variety, chi, E):
    acc, acc_abs = variety.coeffs, np.abs(variety.coeffs)
    for x, exps in zip(np.asarray(chi, dtype=complex).reshape(-1), axis_exponents(variety)):
        powers = x**exps
        acc = np.tensordot(powers, acc, axes=(0, 0))
        acc_abs = np.tensordot(np.abs(powers), acc_abs, axes=(0, 0))
    e_powers = complex(E) ** np.arange(variety.dim + 1)
    return complex(np.dot(acc, e_powers)), float(np.dot(acc_abs, np.abs(e_powers)))


def argwhere_terms(variety):
    exps = axis_exponents(variety)
    out = []
    for flat_idx in np.argwhere(variety.coeffs != 0):
        *chi_idx, j = flat_idx
        alpha = tuple(int(e[i]) for e, i in zip(exps, chi_idx))
        out.append((alpha, int(j), complex(variety.coeffs[tuple(flat_idx)])))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def bits(value, scale):
    return np.array([value]).tobytes() + np.array([scale]).tobytes()


@st.composite
def varieties(draw):
    genus = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3 if genus < 3 else 2))
    ranks = draw(st.lists(st.integers(0, dim), min_size=2 * genus, max_size=2 * genus))
    seed = draw(st.integers(0, 2**32 - 1))
    return bloch_variety(model_with_ranks(seed, genus, dim, ranks))


@settings(max_examples=40)
@given(variety=varieties(), seed=st.integers(0, 2**32 - 1))
def test_property_evaluate_is_bit_equal_to_tensordot(variety, seed):
    rng = np.random.default_rng(seed)
    n = 2 * variety.genus
    for _ in range(5):
        chi = np.exp(rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(0.0, 2 * np.pi, n))
        E = complex(rng.normal(), rng.normal()) * 3.0
        value, scale = variety.evaluate(chi, E, with_scale=True)
        assert bits(value, scale) == bits(*tensordot_evaluate(variety, chi, E))
        assert variety.evaluate(chi, E) == value


@st.composite
def rank_models(draw, max_dim=4):
    """Genus 1-3, d 1-max_dim, each hop of rank 0..d, on grids of at most 6561 points."""
    genus = draw(st.integers(1, 3))
    dim = draw(st.integers(1, max_dim))
    ranks = draw(st.lists(st.integers(0, dim), min_size=2 * genus, max_size=2 * genus))
    while math.prod(2 * r + 1 for r in ranks) > 6561:
        ranks[ranks.index(max(ranks))] -= 1
    return model_with_ranks(draw(st.integers(0, 2**32 - 1)), genus, dim, ranks)


@settings(max_examples=40)
@given(model=rank_models(6), n_points=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1 << 20, 4096, 1]))
def test_property_kernel_is_bit_equal_to_tensordot(chunk_budget, model, n_points, seed, chunk):
    # every slice the held-out check evaluates, under budgets down to one
    # point a slice, and 1-20 fresh points in one call, against the oracle
    kernel = BlochVariety._evaluate_points
    calls = []

    def spy(self, chis, energies):
        calls.append((chis.copy(), energies.copy(), *kernel(self, chis, energies)))
        return calls[-1][2:]

    with chunk_budget(chunk), mock.patch.object(BlochVariety, "_evaluate_points", spy):
        variety = bloch_variety(model)
    assert sum(len(chis) for chis, *_ in calls) == 20
    assert chunk > 1 or all(len(chis) == 1 for chis, *_ in calls)
    rng = np.random.default_rng(seed)
    n = 2 * variety.genus
    chis = np.exp(rng.uniform(-0.3, 0.3, (n_points, n)) + 1j * rng.uniform(0.0, 2 * np.pi, (n_points, n)))
    energies = (rng.normal(size=n_points) + 1j * rng.normal(size=n_points)) * 3.0
    calls.append((chis, energies, *variety._evaluate_points(chis, energies)))
    for chis, energies, values, scales in calls:
        for chi, E, value, scale in zip(chis, energies, values, scales):
            assert bits(value, scale) == bits(*tensordot_evaluate(variety, chi, E))


def test_evaluate_on_fortran_ordered_coeffs():
    # a non-contiguous coefficient array is reshaped (copied) as tensordot does
    variety = bloch_variety(model_with_ranks(7, 2, 2, [2, 1, 2, 2]))
    coeffs = np.asfortranarray(variety.coeffs)
    moved = BlochVariety(genus=2, dim=2, bound=2, coeffs=coeffs, holdout_residual=0.0)
    chi = np.exp(1j * np.array([0.3, 1.1, -2.0, 0.7])) * 1.1
    assert bits(*moved.evaluate(chi, 0.4 - 1j, with_scale=True)) == bits(
        *tensordot_evaluate(moved, chi, 0.4 - 1j)
    )


@settings(max_examples=40)
@given(variety=varieties())
def test_property_terms_equal_the_argwhere_loop(variety):
    old = argwhere_terms(variety)
    assert repr(variety_terms(variety)) == repr(old)
    doc = json.loads(variety.json_text())
    old_terms = [{"alpha": list(a), "power": j, "coeff": complex_to_json(c)} for a, j, c in old]
    assert json.dumps(doc["terms"], sort_keys=True) == json.dumps(old_terms, sort_keys=True)


@pytest.mark.parametrize("genus, dim, shape", [(1, 2, (3, 5, 3)), (2, 1, (3, 1, 1, 3, 2))])
def test_all_zero_variety_has_no_terms(genus, dim, shape):
    variety = BlochVariety(
        genus=genus, dim=dim, bound=max(shape[:-1]) // 2, coeffs=np.zeros(shape), holdout_residual=0.0
    )
    assert variety_terms(variety) == argwhere_terms(variety) == []
    assert json.loads(variety.json_text())["terms"] == []
    assert variety.evaluate(np.ones(2 * genus), 1.0, with_scale=True) == (0.0, 0.0)
