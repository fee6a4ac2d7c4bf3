"""The Bloch variety's sampling grid, JSON text and held-out check.

The grid is a product of 2g roots-of-unity axes, so `bloch_variety` forms
each hop term once per axis value and grows the grid by broadcast adds, in
sub-boxes that hold the slice budget.  The per-point stack it replaced, every
momentum of the grid assembled from its own (2g,) row, is kept here as the
oracle, and the sampled Hamiltonians must equal it bit for bit.  The JSON
text is written column by column and must be what the indented writer makes
of the same document.  Non-finite coefficients and residuals fail the check.
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
from hyperband.spectra import BlochVariety, MomentumGrid, bloch_variety
from hyperband.tight_binding import TightBindingModel, write_model

from test_bloch_kernel import grid_momenta, stack_oracle
from test_variety_kernels import rank_models, varieties
from test_variety_rank_grid import model_with_ranks


def sampled_stacks(model):
    """The Hamiltonian stacks `bloch_variety(model)` solves, in order."""
    stacks = []

    def spy(stack, hermitian, name):
        stacks.append(stack.copy())
        return solve(stack, hermitian, name)

    solve = spectra._solve_stack
    with mock.patch.object(spectra, "_solve_stack", spy):
        bloch_variety(model)
    return stacks


@settings(max_examples=60)
@given(model=rank_models(), chunk=st.sampled_from([1 << 20, 4096, 600, 1]))
@example(model=model_with_ranks(1, 1, 1, [1, 1]), chunk=1)
@example(model=model_with_ranks(2, 3, 1, [1, 0, 1, 1, 0, 1]), chunk=600)
@example(model=model_with_ranks(3, 2, 4, [4, 4, 2, 1]), chunk=4096)
@example(model=model_with_ranks(5, 2, 3, [0, 3, 3, 1]), chunk=4096)
def test_property_product_grid_equals_per_point_stack(chunk_budget, model, chunk):
    # small budgets cut the grid into sub-boxes of at most the budget (one
    # point at least, half as much again where a trailing one-index range
    # joins the one before), at d = 1 too
    ranks = [int(np.linalg.matrix_rank(h)) for h in model.hops]
    axes = [np.exp(2j * np.pi * np.arange(2 * r + 1) / (2 * r + 1)) for r in ranks]
    chis = grid_momenta(MomentumGrid(axes))
    with chunk_budget(chunk):
        stacks = sampled_stacks(model)
    point_bytes = 32 * model.dim**2
    assert all(len(s) * point_bytes <= max(chunk * 3 // 2, point_bytes) for s in stacks)
    assert np.concatenate(stacks).tobytes() == stack_oracle(model, chis).tobytes()


def test_small_budget_cuts_the_first_axis_whose_trailing_box_fits(chunk_budget):
    # g = 2, d = 2 at full rank: a 5^4 grid at 128 B a point; 25 points after
    # axis 1 fit in 6400 B twice, so axis 1 is cut in ranges of two (a last
    # lone index joins the range before) under each index of axis 0
    model = model_with_ranks(4, 2, 2, [2, 2, 2, 2])
    with chunk_budget(6400):
        stacks = sampled_stacks(model)
    assert [len(s) for s in stacks] == [50, 75] * 5


def test_rank_zero_leading_hop_keeps_the_sampling_peak(chunk_budget):
    # g = 2, d = 8, hop ranks [0, 8, 8, 8]: a 1 x 17^3 grid whose Hamiltonians
    # take 5 MB; sampled as one box behind its one-entry leading axis, they
    # would dwarf the 2.1 MB of coefficient arrays the size rule counts
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
    # g = 1, d = 3 at full rank: 7 rows of 7 points, in slices of two rows
    # and a last one of three; the solve fails at row 4, column 2
    model = model_with_ranks(9, 1, 3, [3, 3])
    path = tmp_path / "model.json"
    write_model(model, path)
    axis = np.exp(2j * np.pi * np.arange(7) / 7)
    target = stack_oracle(model, grid_momenta(MomentumGrid([axis, axis])))[30]
    solve = np.linalg.eigvalsh
    batches = []

    def flaky(a):
        batches.append(len(a))
        if np.any(np.all(a == target, axis=(-2, -1))):
            raise np.linalg.LinAlgError("forced")
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
    with chunk_budget(32 * 9 * 7 * 2):
        assert cli.main(["bloch-variety", "--model", str(path)]) == 3
    assert batches[:3] == [14, 14, 21]
    assert capsys.readouterr().err == (
        "numerical failure: eigensolver failed at sampling grid index (4, 2): "
        "eigensolver did not converge: forced\n"
    )


@settings(max_examples=40)
@given(variety=varieties())
def test_property_json_text_is_the_indented_document(variety):
    text = variety.json_text()
    assert text == indented_dumps(json.loads(text))


@pytest.mark.parametrize("genus, dim, shape", [(1, 2, (3, 5, 3)), (2, 1, (3, 1, 1, 3, 2))])
def test_json_text_of_an_empty_term_list(genus, dim, shape):
    variety = BlochVariety(genus=genus, dim=dim, bound=max(shape[:-1]) // 2,
                           coeffs=np.zeros(shape), holdout_residual=0.0)
    text = variety.json_text()
    assert text == indented_dumps(json.loads(text))
    assert json.loads(text)["terms"] == []


def test_json_text_keeps_negative_zeros():
    coeffs = np.zeros((3, 1, 3), dtype=complex)
    coeffs[0, 0] = [complex(-0.0, 1.5), complex(2.0, -0.0), 0.0]
    coeffs[2, 0, 1] = complex(-1e-300, -0.0)
    variety = BlochVariety(genus=1, dim=2, bound=1, coeffs=coeffs, holdout_residual=1e-17)
    text = variety.json_text()
    assert text == indented_dumps(json.loads(text))
    assert [t["coeff"] for t in json.loads(text)["terms"]] == [[-1e-300, -0.0], [-0.0, 1.5], [2.0, -0.0]]
    assert text.count("-0.0,") == 1 and text.count("-0.0\n") == 2


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)])
def test_json_text_refuses_non_finite_coefficients(bad):
    coeffs = np.ones((3, 3, 2), dtype=complex)
    coeffs[1, 2, 0] = bad
    variety = BlochVariety(genus=1, dim=1, bound=1, coeffs=coeffs, holdout_residual=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        variety.json_text()
    with pytest.raises(ValueError, match="non-finite"):
        BlochVariety(genus=1, dim=1, bound=1, coeffs=np.ones((3, 3, 2)), holdout_residual=math.nan).json_text()


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
