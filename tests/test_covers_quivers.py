"""Finite covers, the two pushforward routes, and quiver presentations."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband import covers_quivers
from hyperband.covers_quivers import (
    CoverPushforward,
    Quiver,
    QuiverArrow,
    UnbranchedCover,
    cover_from_json,
    cover_genus,
    cover_to_json,
    induce,
    pushforward_check,
    quiver_from_model,
    reassemble,
    supercell,
    torus_action,
    _schreier_data,
)
from hyperband.errors import UnsupportedCoverError
from hyperband.momenta import AbelianMomentum
from hyperband.surface_group import Word, _walk, evaluate_word, make_surface_group
from hyperband.tight_binding import TightBindingModel, bloch_abelian, bloch_nonabelian

from test_tight_binding import random_model


def unitary_character(rng, genus):
    return AbelianMomentum(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * genus)))


# ---------------------------------------------------------------------------
# cover combinatorics
# ---------------------------------------------------------------------------


def test_cover_validates_permutations():
    with pytest.raises(ValueError):
        UnbranchedCover(sheets=2, perms=((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        UnbranchedCover(sheets=2, perms=((2, 1),))  # odd count


@pytest.mark.parametrize(
    "sheets, perms, bad",
    [
        (2, ((2, 1), (1, 2, 3)), 2),  # too long
        (3, ((2, 3, 1), (1, 2)), 2),  # too short
        (2, ((2, 1), (0, 1)), 2),  # below the range
        (2, ((3, 1), (1, 2)), 1),  # above it
        (2, ((1, 1), (2, 1, 3)), 2),  # a bad length or range is named before a repeat
        (10**400, ((2, 1), (1, 2)), 1),  # no array of 10^400 sheets is attempted
    ],
)
def test_cover_names_the_entry_of_the_wrong_length_or_range(sheets, perms, bad):
    with pytest.raises(ValueError) as info:
        UnbranchedCover(sheets=sheets, perms=perms)
    assert str(info.value) == f"entry {bad} is not a permutation of 1..{sheets}: {perms[bad - 1]}"


def test_cover_rejects_free_group_only_data():
    # genus 1 needs commuting permutations; a 3-cycle and a transposition
    # that do not commute fail the relator
    with pytest.raises(ValueError):
        UnbranchedCover(sheets=3, perms=((2, 3, 1), (2, 1, 3)))


def test_word_permutation_right_action():
    cover = UnbranchedCover(sheets=3, perms=((2, 3, 1), (1, 2, 3)))
    # a twice: 0 -> 1 -> 2
    image = _walk(Word(((1, 1), (1, 1))), cover.targets, cover.sources)[1]
    assert image[0] == 2
    # a then a^-1 is the identity
    assert _walk(Word(((1, 1), (1, -1))), cover.targets, cover.sources)[1].tolist() == [0, 1, 2]


def test_components_and_transitivity():
    swap = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))
    assert swap.transitive
    identity = UnbranchedCover(sheets=2, perms=((1, 2), (1, 2)))
    assert identity.components() == ((0,), (1,))
    assert not identity.transitive


@st.composite
def permutation_tuples(draw):
    """(N, 2g one-indexed permutations), g = 1 or 2, N <= 6; some handles commute."""
    genus, n = draw(st.integers(1, 2)), draw(st.integers(1, 6))
    perms = []
    for _ in range(genus):
        a, b = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        if draw(st.booleans()):  # b a power of a: the handle's commutator is trivial
            b = list(range(n))
            for _ in range(draw(st.integers(0, 3))):
                b = [a[s] for s in b]
        perms += [a, b]
    return n, tuple(tuple(t + 1 for t in p) for p in perms)


@settings(max_examples=200)
@given(permutation_tuples())
def test_property_cover_accepts_exactly_relator_identities(case):
    n, perms = case
    # oracle: P[s, t] = 1 when generator i moves sheet s to t, so products in
    # word order are the right action on sheets
    mats = [np.eye(n)[[t - 1 for t in p]] for p in perms]
    identity = np.array_equal(evaluate_word(make_surface_group(len(perms) // 2).relator(), mats), np.eye(n))
    try:
        cover = UnbranchedCover(n, perms)
    except ValueError as exc:
        assert not identity
        assert "relator permutation is not the identity" in str(exc)
        return
    assert identity
    # oracle: the orbits of the generated group, from the transitive closure
    reach = np.eye(n, dtype=int) + sum(m + m.T for m in mats).astype(int)
    for _ in range(n):
        reach = np.minimum(reach @ reach, 1)
    orbits = sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})
    assert cover.components() == tuple(orbits)


def test_cover_genus_formula():
    # connected: N (g - 1) + 1
    swap = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))
    assert cover_genus(swap) == 1
    cyc3 = UnbranchedCover(sheets=3, perms=((2, 3, 1), (1, 2, 3)))
    assert cover_genus(cyc3) == 1
    # genus-2 base, connected 2-cover: 2 (2 - 1) + 1 = 3
    swap2 = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2), (1, 2), (1, 2)))
    assert cover_genus(swap2) == 3
    # disconnected: sum over components
    identity = UnbranchedCover(sheets=2, perms=((1, 2), (1, 2)))
    assert cover_genus(identity) == 2


def test_cover_json_round_trip():
    cover = UnbranchedCover(sheets=3, perms=((2, 3, 1), (1, 2, 3)))
    again = cover_from_json(cover_to_json(cover))
    assert again == cover
    with pytest.raises((ValueError, KeyError)):
        cover_from_json({"sheets": 3})


# ---------------------------------------------------------------------------
# supercell structure
# ---------------------------------------------------------------------------


def test_supercell_generator_count_matches_cover_genus():
    rng = np.random.default_rng(0)
    model1 = random_model(rng, 1, 2)
    model2 = random_model(rng, 2, 2)
    cases = [
        (model1, UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))),
        (model1, UnbranchedCover(sheets=3, perms=((2, 3, 1), (1, 2, 3)))),
        (model1, UnbranchedCover(sheets=2, perms=((1, 2), (1, 2)))),
        (model2, UnbranchedCover(sheets=2, perms=((2, 1), (1, 2), (1, 2), (1, 2)))),
    ]
    for model, cover in cases:
        big = supercell(model, cover)
        assert big.genus == cover_genus(cover)
        assert big.dim == model.dim * cover.sheets
        assert len(big.hops) == 2 * cover_genus(cover)


def test_hop_direction_count_invariant():
    # after tree reduction, the deduplicated hop directions number exactly
    # 2 * (N (g - 1) + 1) summed over components
    covers = [
        UnbranchedCover(sheets=2, perms=((2, 1), (1, 2))),
        UnbranchedCover(sheets=3, perms=((2, 3, 1), (1, 2, 3))),
        UnbranchedCover(sheets=2, perms=((1, 2), (1, 2))),
        UnbranchedCover(sheets=4, perms=((2, 1, 4, 3), (3, 4, 1, 2))),
        UnbranchedCover(sheets=2, perms=((2, 1), (1, 2), (1, 2), (1, 2))),
    ]
    for cover in covers:
        codes, n_dirs = _schreier_data(cover), 2 * cover_genus(cover)
        assert codes.max() <= 2 * n_dirs
        assert np.unique((codes[codes > 0] - 1) % n_dirs).size == n_dirs


def test_supercell_genus_mismatch_rejected():
    rng = np.random.default_rng(1)
    model = random_model(rng, 2, 2)
    cover = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))
    with pytest.raises(ValueError):
        supercell(model, cover)


def test_unsupported_cover_raises():
    # genus-1 3-sheet cover whose quotient needs three directions in a rank-2
    # lattice: no single-generator-hop supercell exists
    rng = np.random.default_rng(2)
    model = random_model(rng, 1, 2)
    cover = UnbranchedCover(sheets=3, perms=((3, 1, 2), (2, 3, 1)))
    with pytest.raises(UnsupportedCoverError):
        supercell(model, cover)
    chi = unitary_character(rng, cover_genus(cover))
    with pytest.raises(UnsupportedCoverError):
        induce(chi, cover)


# ---------------------------------------------------------------------------
# the two pushforward routes
# ---------------------------------------------------------------------------


def test_induced_momentum_swap_cover_structure():
    # the 2-sheet swap cover at the trivial character induces
    # rho(a) = [[0, 1], [1, 0]] and rho(b) = I
    cover = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))
    chi = AbelianMomentum(np.array([1.0 + 0j, 1.0 + 0j]))
    rho = induce(chi, cover)
    assert np.array_equal(rho.rho[0], np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(rho.rho[1], np.eye(2))


def test_disconnected_identity_cover_doubles_spectrum():
    rng = np.random.default_rng(3)
    model = random_model(rng, 1, 2)
    cover = UnbranchedCover(sheets=2, perms=((1, 2), (1, 2)))
    # cover group has genus 2; restrict to characters equal on both components
    base = unitary_character(rng, 1)
    chi = AbelianMomentum(
        np.concatenate([base.chi, base.chi]),
        np.concatenate([base.chi_inv, base.chi_inv]),
    )
    big = supercell(model, cover)
    spec_cover = np.sort_complex(np.linalg.eigvals(bloch_abelian(big, chi).matrix))
    small = np.sort_complex(
        np.linalg.eigvals(bloch_abelian(model, base).matrix)
    )
    doubled = np.sort_complex(np.concatenate([small, small]))
    assert np.allclose(spec_cover, doubled, atol=1e-9)


def test_pushforward_matrix_level_agreement():
    rng = np.random.default_rng(4)
    covers = [
        UnbranchedCover(sheets=2, perms=((2, 1), (1, 2))),
        UnbranchedCover(sheets=3, perms=((2, 3, 1), (1, 2, 3))),
        UnbranchedCover(sheets=4, perms=((2, 1, 4, 3), (3, 4, 1, 2))),
    ]
    model = random_model(rng, 1, 2)
    for cover in covers:
        chi = unitary_character(rng, cover_genus(cover))
        h_sc = bloch_abelian(supercell(model, cover), chi).matrix
        h_ind = bloch_nonabelian(model, induce(chi, cover)).matrix
        # same per-entry terms, possibly different addition grouping
        assert np.allclose(h_sc, h_ind, atol=1e-12 * max(1.0, np.abs(h_sc).max()))


def test_pushforward_check_report():
    rng = np.random.default_rng(5)
    model = random_model(rng, 1, 3)
    cover = UnbranchedCover(sheets=3, perms=((2, 3, 1), (1, 2, 3)))
    chi = unitary_character(rng, 1)
    report = pushforward_check(model, cover, chi)
    assert report.passed
    table = CoverPushforward(model, cover)
    assert (table.connected, table.genus_cover) == (True, 1)
    assert report.spectral_distance <= 1e-9 * report.spectral_radius


def test_pushforward_nonunitary_characters():
    # the equivalence is algebraic, not spectral-theoretic: it holds off the
    # unitary torus too
    rng = np.random.default_rng(6)
    model = random_model(rng, 1, 2)
    cover = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))
    chi = AbelianMomentum(
        np.exp(rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(0, 2 * np.pi, 2))
    )
    report = pushforward_check(model, cover, chi, tol=1e-9)
    assert report.passed


def test_pushforward_genus_two_base():
    rng = np.random.default_rng(7)
    model = random_model(rng, 2, 2)
    cover = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2), (1, 2), (1, 2)))
    for _ in range(5):
        chi = unitary_character(rng, cover_genus(cover))
        report = pushforward_check(model, cover, chi)
        assert report.passed, report


def test_klein_four_cover_supported():
    rng = np.random.default_rng(8)
    model = random_model(rng, 1, 2)
    cover = UnbranchedCover(sheets=4, perms=((2, 1, 4, 3), (3, 4, 1, 2)))
    assert cover.transitive
    assert cover_genus(cover) == 1
    for _ in range(5):
        chi = unitary_character(rng, 1)
        report = pushforward_check(model, cover, chi)
        assert report.passed, report


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------


def test_quiver_default_partition_and_counts():
    rng = np.random.default_rng(9)
    model = random_model(rng, 1, 2)
    q = quiver_from_model(model)
    assert q.nodes == ((0,), (1,))
    # dense model: every block of M, J_a, J_a^+, J_b, J_b^+ is nonzero
    assert len(q.arrows) == 20
    # the four on-site blocks are internal, the sixteen hop blocks cross
    assert sum(a.label is None for a in q.arrows) == 4


def test_quiver_shape_of_sparse_model():
    # diagonal on-site, a-hop only upper-triangular, b-hop off-diagonal both
    # ways: 2 self-arrows and 3 double-sided crossing pairs
    onsite = np.diag([1.0, -1.0]).astype(complex)
    hop_a = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    hop_b = np.array([[0.0, 1.0], [3.0, 0.0]], dtype=complex)
    model = TightBindingModel(1, onsite, [hop_a, hop_b])
    q = quiver_from_model(model)
    self_arrows = [a for a in q.arrows if a.source == a.target]
    crossing = [a for a in q.arrows if a.source != a.target]
    assert len(self_arrows) == 2
    assert all(a.label is None for a in self_arrows)
    assert len(crossing) == 6
    # crossing arrows come in reversed-orientation pairs with matched labels:
    # three forward arrows, three dagger-side partners
    assert sum(1 for a in crossing if not a.reverse) == 3
    assert sum(1 for a in crossing if a.reverse) == 3
    for a in crossing:
        partner = [
            b
            for b in crossing
            if b.source == a.target
            and b.target == a.source
            and b.label == a.label
            and b.reverse != a.reverse
        ]
        assert len(partner) == 1


def test_quiver_custom_partition():
    rng = np.random.default_rng(10)
    model = random_model(rng, 1, 4)
    q = quiver_from_model(model, nodes=((0, 1), (2, 3)))
    assert q.nodes == ((0, 1), (2, 3))
    for arrow in q.arrows:
        assert arrow.block.shape == (2, 2)
    with pytest.raises(ValueError):
        quiver_from_model(model, nodes=((0, 1), (1, 2, 3)))  # overlap
    with pytest.raises(ValueError):
        quiver_from_model(model, nodes=((0,), (2, 3)))  # missing state


def test_reassemble_without_character_rebuilds_blocks():
    rng = np.random.default_rng(11)
    model = random_model(rng, 1, 3)
    q = quiver_from_model(model)
    chi = unitary_character(rng, 1)
    h_direct = bloch_abelian(model, chi).matrix
    h_quiver = reassemble(q, chi)
    assert np.array_equal(h_quiver, h_direct)


def test_torus_action_bakes_character_byte_exact():
    rng = np.random.default_rng(12)
    for _ in range(25):
        genus = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 5))
        model = random_model(rng, genus, dim)
        chi = AbelianMomentum(
            np.exp(rng.uniform(-0.5, 0.5, 2 * genus) + 1j * rng.uniform(0, 2 * np.pi, 2 * genus))
        )
        scaled = torus_action(quiver_from_model(model), chi)
        assert np.array_equal(reassemble(scaled), bloch_abelian(model, chi).matrix)


def test_torus_action_composes():
    rng = np.random.default_rng(13)
    model = random_model(rng, 1, 2)
    chi1 = unitary_character(rng, 1)
    chi2 = unitary_character(rng, 1)
    q = quiver_from_model(model)
    once = torus_action(torus_action(q, chi1), chi2)
    product = AbelianMomentum(chi1.chi * chi2.chi)
    h_once = reassemble(once)
    h_product = reassemble(torus_action(q, product))
    assert np.allclose(h_once, h_product, atol=1e-12)


def test_quiver_partition_block_consistency():
    # every arrow block must sit inside the matrix where its nodes say it does
    rng = np.random.default_rng(14)
    model = random_model(rng, 1, 3)
    q = quiver_from_model(model, nodes=((0, 2), (1,)))
    h = reassemble(q, AbelianMomentum(np.array([1.0 + 0j, 1.0 + 0j])))
    expected = bloch_abelian(model, AbelianMomentum(np.array([1.0 + 0j, 1.0 + 0j]))).matrix
    assert np.array_equal(h, expected)


@st.composite
def quiver_cases(draw):
    """(model, atom partition, character) at genus 1-3, d 1-8.

    Atoms are random, usually non-contiguous, runs of a permutation of the
    states.  Matrices are dense or have whole atom blocks zeroed (the on-site
    matrix in Hermitian pairs); characters are unitary or off the torus.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    genus, dim = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    order = draw(st.permutations(range(dim)))
    cuts = sorted(draw(st.sets(st.integers(1, max(dim - 1, 1)), max_size=dim - 1)))
    nodes = tuple(tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [dim]))
    model = random_model(rng, genus, dim)
    if draw(st.booleans()):
        onsite, hops = model.onsite.copy(), [J.copy() for J in model.hops]
        for a, rows in enumerate(nodes):
            for b, cols in enumerate(nodes):
                if b >= a and rng.random() < 0.5:
                    onsite[np.ix_(rows, cols)] = 0.0
                    onsite[np.ix_(cols, rows)] = 0.0
                for J in hops:
                    if rng.random() < 0.5:
                        J[np.ix_(rows, cols)] = 0.0
        model = TightBindingModel(genus, onsite, hops)
    log_modulus = rng.uniform(-1.0, 1.0, 2 * genus) if draw(st.booleans()) else 0.0
    chi = AbelianMomentum(np.exp(log_modulus + 1j * rng.uniform(0.0, 2.0 * np.pi, 2 * genus)))
    return model, nodes, chi


@settings(max_examples=150)
@given(quiver_cases())
def test_property_quiver_round_trip_matches_bloch_abelian(case):
    model, nodes, chi = case
    expected = bloch_abelian(model, chi).matrix
    quiver = quiver_from_model(model, nodes)
    assert np.array_equal(reassemble(quiver, chi), expected)
    assert np.array_equal(reassemble(torus_action(quiver, chi)), expected)


def _hand_built_quiver():
    """A genus-1 quiver on atoms (2, 0) and (1,): two on-site arrows and two
    forward arrows share a block, and the reverse blocks are not daggers."""
    rng = np.random.default_rng(15)

    def block(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    arrows = (
        QuiverArrow(0, 0, block(2, 2)),
        QuiverArrow(1, 0, block(2, 1), label=1),
        QuiverArrow(0, 1, block(1, 2), label=1, reverse=True),
        QuiverArrow(0, 0, block(2, 2)),
        QuiverArrow(1, 0, block(2, 1), label=1),
        QuiverArrow(1, 1, block(1, 1), label=2),
        QuiverArrow(0, 0, block(2, 2), label=2, reverse=True),
    )
    return Quiver(genus=1, dim=3, nodes=((2, 0), (1,)), arrows=arrows)


def _dense_reference(quiver, chi, chi_inv):
    """M + sum_i chi_i F_i + chi_i^-1 R_i, each dense matrix the sum of its arrows' blocks."""
    d = quiver.dim
    onsite = np.zeros((d, d), dtype=complex)
    forward = np.zeros((2 * quiver.genus, d, d), dtype=complex)
    reverse = np.zeros_like(forward)
    for a in quiver.arrows:
        target = onsite if a.label is None else (reverse if a.reverse else forward)[a.label - 1]
        target[np.ix_(quiver.nodes[a.target], quiver.nodes[a.source])] += a.block
    H = onsite.copy()
    for i in range(2 * quiver.genus):
        H += chi[i] * forward[i] + chi_inv[i] * reverse[i]
    return H


def test_hand_built_quiver_reassembles_to_its_dense_sum():
    quiver = _hand_built_quiver()
    chi = AbelianMomentum(np.array([1.3 * np.exp(0.4j), np.exp(2.1j)]))
    assert np.array_equal(reassemble(quiver, chi), _dense_reference(quiver, chi.chi, chi.chi_inv))
    ones = np.ones(2)
    assert np.array_equal(reassemble(quiver), _dense_reference(quiver, ones, ones))
    # torus_action bakes the same weights into the blocks
    baked = reassemble(torus_action(quiver, chi))
    assert np.allclose(baked, reassemble(quiver, chi), rtol=0.0, atol=1e-14)
    # the reverse blocks are not daggers of the forward ones, so H is not Hermitian
    assert not np.allclose(reassemble(quiver), reassemble(quiver).conj().T)
    with pytest.raises(ValueError, match="genus mismatch"):
        reassemble(quiver, AbelianMomentum(np.ones(4, dtype=complex)))


def test_quiver_layout_is_built_once_per_quiver(monkeypatch):
    built = []
    real = covers_quivers._quiver_layout
    monkeypatch.setattr(covers_quivers, "_quiver_layout", lambda q: built.append(q) or real(q))
    rng = np.random.default_rng(16)
    model = random_model(rng, 2, 4)
    quiver = quiver_from_model(model, ((3, 0), (1, 2)))
    assert built == []
    for _ in range(5):
        chi = unitary_character(rng, 2)
        assert np.array_equal(reassemble(quiver, chi), bloch_abelian(model, chi).matrix)
    reassemble(quiver)
    assert built == [quiver]
    scaled = torus_action(quiver, chi)
    reassemble(scaled)
    reassemble(scaled)
    assert built == [quiver, scaled]


@pytest.mark.parametrize(
    "arrow",
    [
        QuiverArrow(0, 1, np.ones((1, 2)), label=5),  # genus 1 has labels 1..2
        QuiverArrow(0, 1, np.ones((1, 2)), label=0),
        QuiverArrow(0, 1, np.ones((1, 2)), label="a"),
        QuiverArrow(0, 1, np.ones((1, 2)), label=1.0),
        QuiverArrow(0, 2, np.ones((1, 2))),  # only atoms 0 and 1
        QuiverArrow(-1, 0, np.ones((2, 1))),
        QuiverArrow(0, 1, np.ones((2, 1)), label=1),  # atom 1 has one state, atom 0 two
        QuiverArrow(0, 0, np.ones(4)),
    ],
)
def test_quiver_refuses_malformed_arrows(arrow):
    with pytest.raises(ValueError):
        Quiver(genus=1, dim=3, nodes=((0, 2), (1,)), arrows=(arrow,))


def test_quiver_refuses_atoms_that_do_not_partition_the_states():
    with pytest.raises(ValueError):
        Quiver(genus=1, dim=3, nodes=((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Quiver(genus=1, dim=3, nodes=((0, 1),))


@pytest.mark.parametrize("nodes", [((0.5,), (1,)), ((0,), (True,)), ((0, 1.5),)])
def test_quiver_refuses_fractional_and_boolean_states(nodes):
    with pytest.raises(ValueError, match="a state in nodes must be an integer"):
        Quiver(genus=1, dim=2, nodes=nodes)
    with pytest.raises(ValueError, match="a state in nodes must be an integer"):
        quiver_from_model(TightBindingModel(1, np.zeros((2, 2)), [np.eye(2)] * 2), nodes)


# ---------------------------------------------------------------------------
# input refusals: each row a call, its exception type and its whole message
# ---------------------------------------------------------------------------

SWAP = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))
ONE_STATE = TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]])
GENUS_2_CHARACTER = AbelianMomentum([1.0, 1.0, 1.0, 1.0])

REFUSALS = [
    pytest.param(
        lambda: UnbranchedCover(sheets=0, perms=((), ())), ValueError,
        "a cover needs at least one sheet", id="no-sheets",
    ),
    pytest.param(
        lambda: induce(GENUS_2_CHARACTER, SWAP), ValueError,
        "character has genus 2, cover group has genus 1", id="induce-genus",
    ),
    pytest.param(
        lambda: Quiver(genus=1, dim=2, nodes=((0, 1), ())), ValueError,
        "empty atoms are not allowed", id="empty-atom",
    ),
    pytest.param(
        lambda: torus_action(quiver_from_model(ONE_STATE), GENUS_2_CHARACTER), ValueError,
        "genus mismatch: quiver 1, momentum 2", id="torus-action-genus",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_covers_quivers_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
