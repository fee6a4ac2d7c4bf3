"""The Bloch variety's sampling lattice, JSON text and held-out check.

`bloch_variety` samples a rank-1 lattice of the unitary torus, assembling
its points from (P, 1, 1) columns in slices that hold the slice budget.  Each
point assembled alone by `_assemble`, from its own (2g,) row, is the oracle,
and the sampled Hamiltonians must equal it bit for bit.  A sweep's grid is
still cut into `_sub_boxes`.  The JSON text is written column by column and
must be what the indented writer makes of the same document.  Non-finite
coefficients and residuals fail the check.
"""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperband import cli, spectra
from hyperband._serialize import indented_dumps
from hyperband.errors import NumericalCheckFailure
from hyperband.spectra import BlochVariety, bloch_variety, sweep, unitary_grid
from hyperband.tight_binding import TightBindingModel, _assemble, write_model

from test_variety_kernels import rank_models, varieties
from test_variety_rank_grid import model_with_ranks


def solved_stacks(run):
    """The Hamilton stacks `run()` hands `_solve_stack`, in order."""
    stacks = []

    def spy(stack, hermitian, name):
        stacks.append(stack.copy())
        return solve(stack, hermitian, name)

    solve = spectra._solve_stack
    with mock.patch.object(spectra, "_solve_stack", spy):
        run()
    return stacks


def lattice_points(model):
    """The (N, 2g) momenta `bloch_variety(model)` samples, in order."""
    ranks = [int(np.linalg.matrix_rank(h)) for h in model.hops]
    support = spectra._exponent_support(ranks, model.dim)
    n, z = spectra._rank1_lattice(support, tuple(2 * r + 1 for r in ranks), model.dim)
    return spectra._roots_of_unity(n)[np.outer(np.arange(n), z) % n]


def pointwise_stack(model, chis):
    """Each momentum's Hamiltonian assembled alone from its (2g,) row."""
    return np.array([_assemble(model, chi, 1.0 / chi) for chi in chis])


@settings(max_examples=60)
@given(model=rank_models(), chunk=st.sampled_from([1 << 20, 4096, 600, 1]))
@example(model=model_with_ranks(1, 1, 1, [1, 1]), chunk=1)
@example(model=model_with_ranks(1, 1, 1, [1, 1]), chunk=64)
@example(model=model_with_ranks(2, 3, 1, [1, 0, 1, 1, 0, 1]), chunk=600)
@example(model=model_with_ranks(3, 2, 4, [4, 4, 2, 1]), chunk=4096)
@example(model=model_with_ranks(5, 2, 3, [0, 3, 3, 1]), chunk=4096)
def test_property_product_grid_equals_per_point_stack(chunk_budget, model, chunk):
    # the lattice points in slices of at most the budget (one point at least,
    # half as much again where a trailing lone point joins the slice before);
    # a one-point slice enters `_assemble` as 0-d values, so at d = 1 too the
    # bits do not depend on the budget
    with chunk_budget(chunk):
        stacks = solved_stacks(lambda: bloch_variety(model))
    point_bytes = 32 * model.dim**2
    assert all(len(s) * point_bytes <= max(chunk * 3 // 2, point_bytes) for s in stacks)
    expected = pointwise_stack(model, lattice_points(model))
    assert np.concatenate(stacks).tobytes() == expected.tobytes()


def test_small_budget_cuts_the_first_axis_whose_trailing_box_fits(chunk_budget):
    # a sweep over a 5^4 grid at g = 2, d = 2, 512 B a point (its two CSV
    # rows); 25 points after axis 1 fit in 4 x 6400 B twice, so axis 1 is cut
    # in ranges of two (and a last lone index) under each index of axis 0
    model = model_with_ranks(4, 2, 2, [2, 2, 2, 2])
    with chunk_budget(4 * 6400):
        stacks = solved_stacks(lambda: sweep(model, unitary_grid(2, 5)))
    assert [len(s) for s in stacks] == [50, 50, 25] * 5


def test_rank_zero_leading_hop_keeps_the_sampling_peak(chunk_budget):
    # g = 2, d = 8, hop ranks [0, 8, 8, 8]: a 1 x 17^3 exponent box whose
    # Hamiltonians would take 5 MB; sampled on the lattice in slices of the
    # budget, they stay below the 2.1 MB of coefficient arrays the size rule counts
    model = model_with_ranks(6, 2, 8, [0, 8, 8, 8])
    budget = 1 << 16
    coefficient_bytes = 3 * 17**3 * 9 * 16
    bloch_variety(model)  # the modules imported before tracing
    with chunk_budget(budget):
        tracemalloc.start()
        try:
            bloch_variety(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < coefficient_bytes + 2 * budget + 500_000


def test_failing_sample_in_a_later_slice_is_named(chunk_budget, tmp_path, capsys, monkeypatch):
    # g = 1, d = 4 at full rank: 41 lattice points in slices of seven and a
    # last one of six; the solve fails at lattice point 17, in the third
    model = model_with_ranks(9, 1, 4, [4, 4])
    path = tmp_path / "model.json"
    write_model(model, path)
    chis = lattice_points(model)
    assert len(chis) == 41
    target = pointwise_stack(model, chis)[17]
    solve = np.linalg.eigvalsh
    batches = []

    def flaky(a):
        batches.append(len(a))
        if np.any(np.all(a == target, axis=(-2, -1))):
            raise np.linalg.LinAlgError("forced")
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
    with chunk_budget(32 * 16 * 7):
        assert cli.main(["bloch-variety", "--model", str(path)]) == 3
    assert batches[:3] == [7, 7, 7]
    assert capsys.readouterr().err == (
        "numerical failure: eigensolver failed at lattice point 17: "
        "eigensolver did not converge: forced\n"
    )


@settings(max_examples=40)
@given(variety=varieties())
def test_property_json_text_is_the_indented_document(variety):
    text = variety.json_text()
    assert text == indented_dumps(json.loads(text))


@pytest.mark.parametrize("genus, dim, shape", [(1, 2, (3, 5, 3)), (2, 1, (3, 1, 1, 3, 2))])
def test_json_text_of_an_empty_term_list(genus, dim, shape):
    variety = BlochVariety(np.zeros(shape), holdout_residual=0.0)
    text = variety.json_text()
    assert text == indented_dumps(json.loads(text))
    assert json.loads(text)["terms"] == []


def test_json_text_keeps_negative_zeros():
    coeffs = np.zeros((3, 1, 3), dtype=complex)
    coeffs[0, 0] = [complex(-0.0, 1.5), complex(2.0, -0.0), 0.0]
    coeffs[2, 0, 1] = complex(-1e-300, -0.0)
    variety = BlochVariety(coeffs, holdout_residual=1e-17)
    text = variety.json_text()
    assert text == indented_dumps(json.loads(text))
    assert [t["coeff"] for t in json.loads(text)["terms"]] == [[-1e-300, -0.0], [-0.0, 1.5], [2.0, -0.0]]
    assert text.count("-0.0,") == 1 and text.count("-0.0\n") == 2


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)])
def test_json_text_refuses_non_finite_coefficients(bad):
    coeffs = np.ones((3, 3, 2), dtype=complex)
    coeffs[1, 2, 0] = bad
    variety = BlochVariety(coeffs, holdout_residual=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        variety.json_text()
    with pytest.raises(ValueError, match="non-finite"):
        BlochVariety(np.ones((3, 3, 2)), holdout_residual=math.nan).json_text()


def huge_model():
    """Genus 1, d = 3, entries of order 1e150: its char-poly overflows."""
    rng = np.random.default_rng(1)
    onsite = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    hops = [(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) * 1e150 for _ in range(2)]
    return TightBindingModel(1, (onsite + onsite.conj().T) * 1e150, hops)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_characteristic_polynomial_fails_the_check(tmp_path, capsys):
    # it used to pass with holdout_residual 0.0 (max(0.0, nan) is 0.0) and
    # write 98 NaN and Infinity coefficients, exit 0
    path, out = tmp_path / "model.json", tmp_path / "variety.json"
    write_model(huge_model(), path)
    assert cli.main(["bloch-variety", "--model", str(path), "--out", str(out)]) == 3
    assert "coefficients are not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, reported", [
    (complex(math.nan, 0.0), "nan"),
    (complex(1.5e308, 1.5e308), "inf"),  # |value - det| overflows
])
def test_nan_or_overflowing_residual_fails_the_check(monkeypatch, value, reported):
    model = model_with_ranks(3, 1, 2, [2, 2])
    assert bloch_variety(model).holdout_residual <= 1e-8
    kernel = BlochVariety._evaluate_points
    seen = []

    def one_bad(self, chis, energies):
        values, scales = kernel(self, chis, energies)
        bad = 6 - len(seen)  # held-out point 7, counted across the slices
        if 0 <= bad < len(chis):
            values[bad] = value
        seen.extend(chis)
        return values, scales

    monkeypatch.setattr(BlochVariety, "_evaluate_points", one_bad)
    with pytest.raises(NumericalCheckFailure, match=f"relative residual {reported} > 1e-08"):
        bloch_variety(model)
    assert len(seen) == 20
