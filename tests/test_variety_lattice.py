"""The exponent support and the rank-1 lattice `bloch_variety` samples.

The support S = {k : |k_i| <= r_i, sum |k_i| <= d} is built without the
(2r_i+1)-point box and must be the box's points within the l1 bound, each
once.  The lattice search must return N at most the box and a generator z
with k -> k.z mod N injective on S, the same on every call.  The shapes of
the benchmark's variety workload pin N: a search that fell back to the box
there would solve up to 13 times more points.  An undercounted rank aliases
into the bins off the support and fails the run.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperband import cli
from hyperband.errors import NumericalCheckFailure
from hyperband.spectra import _SEARCH_MIN_WORK, _exponent_support, _rank1_lattice, bloch_variety
from hyperband.tight_binding import write_model

from test_variety_rank_grid import model_with_ranks


@settings(max_examples=150)
@given(genus=st.integers(1, 4), dim=st.integers(1, 8), data=st.data())
@example(genus=1, dim=8, data=None)
@example(genus=4, dim=2, data=None)
@example(genus=3, dim=4, data=None)
def test_property_lattice_is_injective_on_the_support(genus, dim, data):
    # `data` None: every hop at full rank
    n_axes = 2 * genus
    ranks = [dim] * n_axes if data is None else data.draw(st.lists(st.integers(0, dim), min_size=n_axes, max_size=n_axes))
    shape = tuple(2 * r + 1 for r in ranks)
    support = _exponent_support(ranks, dim)
    assume(len(support) <= 5000)  # the search's cost grows with |S|
    assert support.shape[1] == n_axes
    assert len(np.unique(support, axis=0)) == len(support)
    assert np.all(np.abs(support) <= ranks) and np.all(np.abs(support).sum(axis=1) <= dim)
    if math.prod(shape) <= 50_000:
        box = itertools.product(*(range(-r, r + 1) for r in ranks))
        assert len(support) == sum(sum(map(abs, k)) <= dim for k in box)
    n, z = _rank1_lattice(support, shape, dim)
    assert len(support) <= n <= math.prod(shape)
    assert len(np.unique(support @ z % n)) == len(support)
    again = _rank1_lattice(support, shape, dim)
    assert again[0] == n and np.array_equal(again[1], z)


# the variety workload's (genus, dim, hop rank) shapes, every hop at the
# rank, and the lattice size N each is sampled on (the box where S fills it
# or a search could save too little)
WORKLOAD_SHAPES = {
    (1, 2, 2): 25, (1, 2, 1): 9, (1, 3, 3): 49, (1, 3, 2): 25,
    (1, 4, 4): 41, (1, 4, 1): 9, (1, 4, 2): 25, (1, 5, 5): 61, (1, 5, 2): 25,
    (1, 6, 6): 85, (1, 6, 1): 9, (1, 7, 7): 113, (1, 7, 2): 25, (1, 8, 8): 145, (1, 8, 1): 9,
    (2, 2, 2): 59, (2, 2, 1): 81, (2, 3, 3): 205, (2, 3, 2): 263, (2, 4, 4): 613, (2, 4, 1): 81,
    (3, 2, 2): 117, (3, 2, 1): 139,
}


@pytest.mark.parametrize("shape, n", WORKLOAD_SHAPES.items(), ids=str)
def test_workload_shapes_pin_the_lattice_size(shape, n):
    genus, dim, rank = shape
    ranks = [rank] * (2 * genus)
    support = _exponent_support(ranks, dim)
    box = (2 * rank + 1) ** (2 * genus)
    assert _rank1_lattice(support, (2 * rank + 1,) * (2 * genus), dim)[0] == n
    # the box, unsearched, exactly where a search could save too little
    assert (n == box) == ((box - len(support)) * dim < _SEARCH_MIN_WORK)


def test_workload_samples_thirteen_times_fewer_points():
    boxes = sum((2 * r + 1) ** (2 * g) for g, _, r in WORKLOAD_SHAPES)
    assert (boxes, sum(WORKLOAD_SHAPES.values())) == (27_823, 2_213)


@pytest.mark.parametrize("genus, dim", [(1, 3), (2, 2), (2, 3)])
def test_undercounted_rank_fails_the_run(tmp_path, capsys, monkeypatch, genus, dim):
    # every rank read one low: the terms at |k_i| = r_i alias into the bins
    # off the smaller support, or onto its own and fail the held-out check
    model = model_with_ranks(7, genus, dim, [dim] * (2 * genus))
    path = tmp_path / "model.json"
    write_model(model, path)
    rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda a: rank(a) - 1)
    assert cli.main(["bloch-variety", "--model", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Bloch-variety ") and err.count("\n") == 1
    with pytest.raises(NumericalCheckFailure, match="alias|held-out"):
        bloch_variety(model)
