"""Monomial induced momenta and the near-linear Schreier data, against dense oracles."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband.covers_quivers import (
    CoverPushforward,
    UnbranchedCover,
    _schreier_data,
    cover_genus,
    induce,
)
from hyperband.errors import UnsupportedCoverError
from hyperband.momenta import TOL_RELATOR, AbelianMomentum, NonabelianMomentum, relator_residual
from hyperband.surface_group import Word, free_reduce, make_surface_group
from hyperband.tight_binding import bloch_nonabelian

from test_cover_pushforward import (
    COVERS,
    _power,
    _same_bits,
    _smith_right_transform,
    cyclic,
    edge_assignment,
    loop_induce,
    special_models,
)
from test_tight_binding import random_model


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def kron_bloch(model, rho, rho_inv):
    """H(rho) from dense generator matrices, one np.kron per term."""
    n = rho[0].shape[0]
    H = np.kron(model.onsite, np.eye(n, dtype=complex))
    for i in range(2 * model.genus):
        H += np.kron(model.hops[i], rho[i]) + np.kron(model.hops_dagger[i], rho_inv[i])
    return H


def dense_matrices(monomial):
    """(rho, rho_inv) of monomial data, filled one sheet at a time."""
    mats, invs = [], []
    for targets, forward, backward in zip(*monomial):
        n = len(targets)
        rho = np.zeros((n, n), dtype=complex)
        rho_inv = np.zeros((n, n), dtype=complex)
        for s in range(n):
            rho[s, targets[s]] = forward[s]
            rho_inv[targets[s], s] = backward[s]
        mats.append(rho)
        invs.append(rho_inv)
    return tuple(mats), tuple(invs)


def word_schreier_data(cover):
    """The Schreier data as first built, before parent pointers and sparse classes.

    Transversal words copied per sheet, a free reduction per tree edge,
    dense relator rows and dense class tuples, `tuple.index` for backward
    steps and the dense Smith form for both eliminations.  Returns
    (edge_assignment, genus of the cover).  Its unimodular-basis refusal
    is one the library leaves out, as a refusal no cover can reach; the
    comparison with `_schreier_data` would catch a cover that reached it.
    """
    g, n = cover.genus, cover.sheets
    n_gens = 2 * g

    def forward(s, gen):
        return cover.perms[gen - 1][s] - 1

    def backward(s, gen):
        return cover.perms[gen - 1].index(s + 1)

    transversal = [None] * n
    tree = set()
    for root in range(n):
        if transversal[root] is not None:
            continue
        transversal[root] = Word(())
        queue = [root]
        while queue:
            s = queue.pop(0)
            for gen in range(1, n_gens + 1):
                t = forward(s, gen)
                if transversal[t] is None:
                    transversal[t] = transversal[s] * Word(((gen, 1),))
                    tree.add((s, gen))
                    queue.append(t)
                t = backward(s, gen)
                if transversal[t] is None:
                    transversal[t] = transversal[s] * Word(((gen, -1),))
                    tree.add((t, gen))
                    queue.append(t)

    edge_order = [(s, gen) for s in range(n) for gen in range(1, n_gens + 1) if (s, gen) not in tree]
    edge_index = {edge: j for j, edge in enumerate(edge_order)}
    k = len(edge_order)
    for s, gen in tree:
        word = transversal[s] * Word(((gen, 1),)) * transversal[forward(s, gen)].inverse()
        assert len(free_reduce(word)) == 0

    rows = []
    for start in range(n):
        row = [0] * k
        s = start
        for gen, exp in make_surface_group(g).relator().letters:
            if exp == 1:
                edge, nxt = (s, gen), forward(s, gen)
            else:
                nxt = backward(s, gen)
                edge = (nxt, gen)
            if edge not in tree:
                row[edge_index[edge]] += exp
            s = nxt
        assert s == start
        rows.append(row)

    g_cover = cover_genus(cover)
    if k == 0:
        return {edge: (None, 0) for edge in tree}, g_cover
    diagonal, V = _smith_right_transform(rows, k)
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
    classes = {edge: tuple(V[j][rank:]) for j, edge in enumerate(edge_order)}
    classes.update({edge: (0,) * free for edge in tree})

    def normalized(c):
        for v in c:
            if v > 0:
                return tuple(c), 1
            if v < 0:
                return tuple(-x for x in c), -1
        return None, 0

    directions = {}
    for edge in edge_order:
        base, sign = normalized(classes[edge])
        if sign != 0 and base not in directions:
            directions[base] = len(directions)
    if len(directions) != free:
        raise UnsupportedCoverError(
            f"found {len(directions)} distinct hop directions but the free rank "
            f"is {free}; the classes cannot be straightened to single generators"
        )
    if any(abs(x) != 1 for x in _smith_right_transform(list(directions), free)[0]):
        raise UnsupportedCoverError(
            "hop directions do not form a unimodular basis of the class lattice"
        )
    assignment = {}
    for edge, cls in classes.items():
        base, sign = normalized(cls)
        assignment[edge] = (None, 0) if sign == 0 else (directions[base], sign)
    return assignment, g_cover


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@st.composite
def surface_covers(draw, max_sheets=8):
    """Genus-1 and -2 covers whose handles each act by powers of one permutation.

    The two generators of a handle commute, so every relator permutation is
    the identity; many such covers need more hop directions than a
    single-hop supercell has and are refused.
    """
    genus = draw(st.integers(1, 2))
    n = draw(st.integers(1, max_sheets))
    perms = []
    for _ in range(genus):
        sigma = draw(st.permutations(range(n)))
        perms += [_power(sigma, draw(st.integers(0, 3))), _power(sigma, draw(st.integers(0, 3)))]
    return UnbranchedCover(n, tuple(tuple(x + 1 for x in p) for p in perms))


def character(rng, kind, genus):
    """A cover-group character on the torus, off it, or of special values."""
    if kind == "torus":
        values = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * genus))
    elif kind == "off":
        values = np.exp(rng.uniform(-0.5, 0.5, 2 * genus) + 1j * rng.uniform(0.0, 2.0 * np.pi, 2 * genus))
    else:
        values = rng.choice([1.0, -1.0, 1j, -1j, 2.0, -0.5], 2 * genus).astype(complex)
    return AbelianMomentum(values)


def induced_or_none(cover, rng, kind):
    try:
        _schreier_data(cover)
    except UnsupportedCoverError:
        return None, None
    chi = character(rng, kind, cover_genus(cover))
    return chi, induce(chi, cover)


KINDS = st.sampled_from(["torus", "off", "special"])


# ---------------------------------------------------------------------------
# monomial momenta
# ---------------------------------------------------------------------------


@settings(max_examples=80)
@given(cover=surface_covers(), seed=st.integers(0, 2**32 - 1), kind=KINDS, dim=st.integers(1, 4))
def test_property_monomial_bloch_equals_kron_bit_for_bit(cover, seed, kind, dim):
    rng = np.random.default_rng(seed)
    chi, rho = induced_or_none(cover, rng, kind)
    if rho is None:
        return
    assert rho.monomial is not None
    dense = loop_induce(chi, cover)
    for model in special_models(rng, cover.genus, dim):
        ours = bloch_nonabelian(model, rho)
        # tobytes also compares the signs of zeros, which eigensolvers read
        assert _same_bits(ours.matrix, kron_bloch(model, dense.rho, dense.rho_inv))
        assert _same_bits(ours.matrix, bloch_nonabelian(model, dense).matrix)
        assert ours.hermitian == dense.unitary == chi.unitary


@settings(max_examples=80)
@given(cover=surface_covers(), seed=st.integers(0, 2**32 - 1), kind=KINDS)
def test_property_monomial_dense_matrices_equal_loop_induce(cover, seed, kind):
    chi, rho = induced_or_none(cover, np.random.default_rng(seed), kind)
    if rho is None:
        return
    loop = loop_induce(chi, cover)
    assert (rho.genus, rho.rank) == (loop.genus, loop.rank)
    for a, b in zip(rho.rho + rho.rho_inv, loop.rho + loop.rho_inv):
        assert _same_bits(a, b) and not a.flags.writeable


def _outcome(build):
    """The momentum, or the refusal message up to its formatted residual."""
    try:
        return build()
    except ValueError as exc:
        return str(exc).split(" (residual")[0]


@settings(max_examples=150)
@given(
    cover=surface_covers(),
    seed=st.integers(0, 2**32 - 1),
    kind=KINDS,
    damage=st.sampled_from(["none", "drift-1e-12", "drift-1e-6", "phase", "inverse", "zero", "targets"]),
)
def test_property_monomial_checks_match_dense(cover, seed, kind, damage):
    rng = np.random.default_rng(seed)
    _, rho = induced_or_none(cover, rng, kind)
    if rho is None:
        return
    data = [np.array(a) for a in rho.monomial]
    gen, s = int(rng.integers(2 * cover.genus)), int(rng.integers(cover.sheets))
    targets, forward, backward = (a[gen] for a in data)
    if damage.startswith("drift"):  # exact inverses, phases moved off the unit circle
        factor = 1.0 + float(damage.split("-", 1)[1])
        forward[s] *= factor
        backward[s] /= factor
    elif damage == "phase":
        forward[s] *= 1.5
        backward[s] /= 1.5
    elif damage == "inverse":
        backward[s] *= 1.001
    elif damage == "zero":
        forward[s] = 0.0
    elif damage == "targets":  # a repeated target leaves rho a zero column
        targets[s] = targets[(s + 1) % cover.sheets]
    ours = _outcome(lambda: NonabelianMomentum(monomial=data))
    theirs = _outcome(lambda: NonabelianMomentum(*dense_matrices(data)))
    assert type(ours) is type(theirs)
    if isinstance(ours, str) and damage == "targets":
        # the monomial route names the cause; the dense one sees an inverse that fails
        assert ours == f"the sheet targets of generator matrix {gen + 1} are not a permutation"
        assert theirs == f"the inverse given for generator matrix {gen + 1} does not invert it"
        return
    if isinstance(ours, str):
        assert ours == theirs
        return
    assert ours.unitary == theirs.unitary
    a, b = relator_residual(ours), relator_residual(theirs)
    assert (a <= TOL_RELATOR) == (b <= TOL_RELATOR)
    assert math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-15)


def test_monomial_momentum_refuses_malformed_data():
    swap, ones = [[1, 0], [1, 0]], np.ones((2, 2), dtype=complex)
    with pytest.raises(ValueError, match="need 2g matrices"):
        NonabelianMomentum(monomial=([[1, 0]], ones[:1], ones[:1]))
    with pytest.raises(ValueError, match="arrays of one shape"):
        NonabelianMomentum(monomial=(swap, ones, ones[:, :1]))
    with pytest.raises(ValueError, match="arrays of one shape"):
        NonabelianMomentum(monomial=([1, 0], ones[0], ones[0]))
    with pytest.raises(ValueError, match="finite"):
        NonabelianMomentum(monomial=(swap, ones, [[1.0, 1.0], [1.0, np.inf]]))
    with pytest.raises(TypeError):
        NonabelianMomentum((np.eye(2),) * 2, monomial=(swap, ones, ones))
    rho = NonabelianMomentum(monomial=(swap, ones, ones))
    assert (rho.genus, rho.rank) == (1, 2)
    with pytest.raises(AttributeError):
        rho.rank = 3


# ---------------------------------------------------------------------------
# Schreier data against the word-based build
# ---------------------------------------------------------------------------


def _assert_same_schreier_data(cover):
    try:
        expected = word_schreier_data(cover)
    except UnsupportedCoverError as exc:
        with pytest.raises(UnsupportedCoverError) as caught:
            _schreier_data(cover)
        assert str(caught.value) == str(exc)
        return
    assert (edge_assignment(cover), cover_genus(cover)) == expected


@pytest.mark.parametrize(
    "cover",
    COVERS + [cyclic(2, 64, 0), cyclic(2, 256, 3), cyclic(2, 64, 2, step=32)],
    ids=lambda c: f"N{c.sheets}-g{c.genus}",
)
def test_schreier_data_matches_word_based_build(cover):
    _assert_same_schreier_data(cover)


@settings(max_examples=80)
@given(cover=surface_covers(max_sheets=12))
def test_property_schreier_data_matches_word_based_build(cover):
    _assert_same_schreier_data(cover)


# ---------------------------------------------------------------------------
# scaling guards
# ---------------------------------------------------------------------------


def test_schreier_data_stays_near_linear():
    # about 0.02 s at N = 2048 on a 2-core x86 host (0.01 s at N = 1024); the
    # quadratic builds it replaced took 2 s (V carried as extra rows) and
    # 9 s (dense classes, copied transversal words)
    cover = cyclic(2, 2048, 0)
    start = time.perf_counter()
    codes = _schreier_data(cover)
    elapsed = time.perf_counter() - start
    # every one of the 2 * genus(cover) directions carries some edge
    assert np.unique((codes[codes > 0] - 1) % 4098).size == 4098 == 2 * cover_genus(cover)
    assert elapsed < 1.0, f"_schreier_data took {elapsed:.2f} s at N = 2048"


def test_large_cover_table_builds_in_bounded_memory():
    # a dense on-site matrix alone would be (4 N)^2 complex entries, 4.3 GB;
    # the blocks and the sparse Schreier data peak near 37 MB
    model = random_model(np.random.default_rng(30), 2, 4)
    cover = cyclic(2, 4096, 0)
    tracemalloc.start()
    try:
        table = CoverPushforward(model, cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.genus_cover == 4097
    assert peak < 200e6, f"peak {peak / 1e6:.0f} MB"
