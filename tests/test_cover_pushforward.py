"""The per-cover pushforward table against the dense Kronecker build it replaced."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband import cli, covers_quivers
from hyperband.covers_quivers import (
    CoverPushforward,
    PushforwardReport,
    UnbranchedCover,
    _int_det,
    _schreier_data,
    cover_genus,
    cover_to_json,
    pushforward_check,
    supercell,
)
from hyperband.errors import UnsupportedCoverError
from hyperband.momenta import AbelianMomentum, NonabelianMomentum
from hyperband.spectra import eigenvalues
from hyperband.surface_group import make_surface_group
from hyperband.tight_binding import (
    TightBindingModel,
    bloch_abelian,
    bloch_nonabelian,
    write_model,
)

from test_tight_binding import random_model


# ---------------------------------------------------------------------------
# oracles: the pre-table builds, kept verbatim in behaviour
# ---------------------------------------------------------------------------


def kron_supercell(model, cover):
    """The dense build: one np.kron per edge over the whole supercell."""
    data = _schreier_data(cover)
    n = cover.sheets
    big = model.dim * n
    onsite = np.kron(model.onsite, np.eye(n, dtype=complex))
    new_hops = [np.zeros((big, big), dtype=complex) for _ in range(2 * data.genus_cover)]

    def basis_block(a, b):
        E = np.zeros((n, n), dtype=complex)
        E[a, b] = 1.0
        return E

    for s in range(n):
        for gen in range(1, 2 * model.genus + 1):
            t = cover.forward(s, gen)
            direction, sign = data.edge_assignment[(s, gen)]
            J = model.hops[gen - 1]
            if direction is None:
                onsite = onsite + np.kron(J, basis_block(s, t))
                onsite = onsite + np.kron(J.conj().T, basis_block(t, s))
            elif sign > 0:
                new_hops[direction] += np.kron(J, basis_block(s, t))
            else:
                new_hops[direction] += np.kron(J.conj().T, basis_block(t, s))
    return TightBindingModel(make_surface_group(data.genus_cover), onsite, new_hops)


def loop_induce(chi, cover):
    """The induced momentum filled one edge at a time."""
    data = _schreier_data(cover)
    n = cover.sheets
    mats, invs = [], []
    for gen in range(1, 2 * cover.genus + 1):
        rho = np.zeros((n, n), dtype=complex)
        rho_inv = np.zeros((n, n), dtype=complex)
        for s in range(n):
            t = cover.forward(s, gen)
            direction, sign = data.edge_assignment[(s, gen)]
            if direction is None:
                rho[s, t] = 1.0
                rho_inv[t, s] = 1.0
            elif sign > 0:
                rho[s, t] = chi.chi[direction]
                rho_inv[t, s] = chi.chi_inv[direction]
            else:
                rho[s, t] = chi.chi_inv[direction]
                rho_inv[t, s] = chi.chi[direction]
        mats.append(rho)
        invs.append(rho_inv)
    return NonabelianMomentum(tuple(mats), tuple(invs))


def dense_report(model, cover, chi, tol=1e-9):
    """pushforward_check as it was computed before the table."""
    h_induced = bloch_nonabelian(model, loop_induce(chi, cover))
    h_supercell = bloch_abelian(kron_supercell(model, cover), chi)
    spec_a = eigenvalues(h_induced)
    spec_b = eigenvalues(h_supercell)
    distance = float(np.max(np.abs(spec_a - spec_b)))
    radius = float(max(np.max(np.abs(spec_a)), np.max(np.abs(spec_b))))
    return PushforwardReport(
        n_states=h_induced.matrix.shape[0],
        connected=cover.transitive,
        genus_cover=cover_genus(cover),
        matrix_distance=float(np.max(np.abs(h_induced.matrix - h_supercell.matrix))),
        spectral_distance=distance,
        spectral_radius=radius,
        tolerance=tol,
        passed=distance <= tol * max(radius, 1e-12),
    )


def bareiss_det(matrix):
    """Fraction-free dense Gaussian elimination."""
    m = [[int(v) for v in row] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def cyclic(genus, n, gen, step=1):
    perms = [tuple(range(1, n + 1)) for _ in range(2 * genus)]
    perms[gen] = tuple((s + step) % n + 1 for s in range(n))
    return UnbranchedCover(n, tuple(perms))


def product_perms(n, m):
    """Z_n x Z_m acting on sheets s = i m + j: a steps i, b steps j (0-indexed)."""
    a = [((i + 1) % n) * m + j for i in range(n) for j in range(m)]
    b = [i * m + (j + 1) % m for i in range(n) for j in range(m)]
    return a, b


def znzm(n, m):
    a, b = product_perms(n, m)
    return UnbranchedCover(n * m, (tuple(x + 1 for x in a), tuple(x + 1 for x in b)))


def special_models(rng, genus, dim):
    """Random, real, and sparse models: zero entries of both signs matter."""
    onsite = rng.normal(size=(dim, dim))
    real = TightBindingModel(genus, onsite + onsite.T, [rng.normal(size=(dim, dim)) for _ in range(2 * genus)])
    sparse = TightBindingModel(
        genus,
        np.diag([-1.0, 0.0, 2.0][:dim]),
        [rng.choice([-1.0, 0.0, -0.0, 1j, -0.5j], (dim, dim)) for _ in range(2 * genus)],
    )
    return [random_model(rng, genus, dim), real, sparse]


COVERS = [
    cyclic(1, 3, 1),
    cyclic(2, 5, 0),
    cyclic(2, 6, 3, step=2),  # disconnected: two 3-cycles
    znzm(2, 2),
    znzm(3, 4),
    UnbranchedCover(sheets=4, perms=((3, 4, 1, 2), (1, 2, 3, 4))),  # swap, genus 1
    UnbranchedCover(sheets=4, perms=((1, 2, 3, 4), (1, 2, 3, 4), (3, 4, 1, 2), (1, 2, 3, 4))),
    UnbranchedCover(sheets=2, perms=((1, 2), (1, 2))),
    UnbranchedCover(sheets=3, perms=((1, 2, 3),) * 4),  # no edge of trivial class
    UnbranchedCover(sheets=1, perms=((1,), (1,))),
]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_supercell_equals_kron_build_bit_for_bit():
    rng = np.random.default_rng(20)
    for cover in COVERS:
        for dim in (1, 2, 3):
            for model in special_models(rng, cover.genus, dim):
                new = supercell(model, cover)
                old = kron_supercell(model, cover)
                assert new.genus == old.genus
                # tobytes also compares the signs of zeros, which eigensolvers read
                assert _same_bits(new.onsite, old.onsite)
                assert len(new.hops) == len(old.hops)
                for h_new, h_old in zip(new.hops, old.hops):
                    assert _same_bits(h_new, h_old)
                for h_new, h_old in zip(new.hops_dagger, old.hops_dagger):
                    assert _same_bits(h_new, h_old)


def test_table_assembly_equals_dense_bloch_bit_for_bit():
    rng = np.random.default_rng(21)
    for cover in COVERS:
        gc = cover_genus(cover)
        for model in special_models(rng, cover.genus, 2):
            table = CoverPushforward(model, cover)
            dense = kron_supercell(model, cover)
            characters = [
                np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * gc)),
                np.exp(rng.uniform(-0.5, 0.5, 2 * gc) + 1j * rng.uniform(0.0, 2.0 * np.pi, 2 * gc)),
                rng.choice([1.0, -1.0, 1j, -1j, 2.0], 2 * gc).astype(complex),
            ]
            for values in characters:
                chi = AbelianMomentum(values)
                assert _same_bits(
                    table.supercell_hamiltonian(chi).matrix, bloch_abelian(dense, chi).matrix
                )
                ours, theirs = table.induce(chi), loop_induce(chi, cover)
                for a, b in zip(ours.rho + ours.rho_inv, theirs.rho + theirs.rho_inv):
                    assert _same_bits(a, b)


@pytest.mark.parametrize(
    "cover",
    [cyclic(2, 8, 1), cyclic(2, 6, 2, step=3), znzm(2, 3), znzm(4, 4),
     UnbranchedCover(sheets=4, perms=((3, 4, 1, 2), (1, 2, 3, 4))),
     UnbranchedCover(sheets=6, perms=((4, 5, 6, 1, 2, 3), (1, 2, 3, 4, 5, 6),
                                      (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)))],
    ids=["cyclic", "cyclic-disconnected", "z2xz3", "z4xz4", "swap", "swap-genus2"],
)
def test_pushforward_report_field_equal_to_dense_route(cover):
    rng = np.random.default_rng(cover.sheets)
    gc = cover_genus(cover)
    for model in special_models(rng, cover.genus, 2):
        for _ in range(3):
            chi = AbelianMomentum(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * gc)))
            assert pushforward_check(model, cover, chi) == dense_report(model, cover, chi)
    # one table serves every character with the same reports
    table = CoverPushforward(model, cover)
    chi = AbelianMomentum(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * gc)))
    assert table.check(chi, 1e-9) == pushforward_check(model, cover, chi)


def test_table_holds_cover_facts_and_rejects_mismatches():
    rng = np.random.default_rng(22)
    cover = cyclic(2, 6, 3, step=2)
    model = random_model(rng, 2, 2)
    table = CoverPushforward(model, cover)
    assert table.genus_cover == cover_genus(cover) == 8
    assert table.connected is False
    # only the sheet pairs a generator touches are stored
    assert all(len(rows) <= 2 * cover.sheets for rows, _, _, _ in table.hop_blocks)
    with pytest.raises(ValueError):
        CoverPushforward(random_model(rng, 1, 2), cover)
    with pytest.raises(ValueError):
        table.check(AbelianMomentum(np.ones(2, dtype=complex)))
    with pytest.raises(TypeError):
        table.induce(np.ones(12, dtype=complex))
    with pytest.raises(UnsupportedCoverError):
        CoverPushforward(random_model(rng, 1, 2), UnbranchedCover(3, ((3, 1, 2), (2, 3, 1))))


def test_cover_check_builds_schreier_data_once(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(23)
    model_path = tmp_path / "model.json"
    write_model(random_model(rng, 1, 2), model_path)
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover_to_json(znzm(2, 3))), encoding="utf-8")
    calls = []
    original = covers_quivers._schreier_data

    def counted(cover):
        calls.append(cover)
        return original(cover)

    monkeypatch.setattr(covers_quivers, "_schreier_data", counted)
    code = cli.main(
        ["cover-check", "--model", str(model_path), "--cover", str(cover_path), "--trials", "7"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS: 7 characters, 12 states")
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# properties (derandomized: every run draws the same examples)
# ---------------------------------------------------------------------------


def _compose(p, q):
    """Right action: sheet s goes along p, then along q (0-indexed images)."""
    return [q[p[s]] for s in range(len(p))]


def _power(p, k):
    out = list(range(len(p)))
    for _ in range(k):
        out = _compose(out, p)
    return out


@st.composite
def commuting_covers(draw, mix_generators):
    """Genus-1 covers: disjoint unions of Z_n x Z_m actions, sheets relabeled.

    With mix_generators the two permutations are words a^i b^j and a^k b^l in
    the product generators; they still commute, but the cover may need more
    hop directions than a single-hop supercell has.
    """
    a_all, b_all = [], []
    for _ in range(draw(st.integers(1, 2))):
        n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        a, b = product_perms(n, m)
        if mix_generators:
            i, j, k, l = (draw(st.integers(0, 3)) for _ in range(4))
            a, b = _compose(_power(a, i), _power(b, j)), _compose(_power(a, k), _power(b, l))
        offset = len(a_all)
        a_all += [x + offset for x in a]
        b_all += [x + offset for x in b]
    relabel = draw(st.permutations(range(len(a_all))))
    back = [0] * len(relabel)
    for s, t in enumerate(relabel):
        back[t] = s
    perms = tuple(
        tuple(relabel[p[back[s]]] + 1 for s in range(len(p))) for p in (a_all, b_all)
    )
    return UnbranchedCover(len(a_all), perms)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cover=commuting_covers(mix_generators=False), seed=st.integers(0, 2**32 - 1))
def test_property_pushforward_passes_on_product_covers(cover, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, 1, int(rng.integers(1, 4)))
    table = CoverPushforward(model, cover)
    assert table.genus_cover == len(cover.components())
    for _ in range(2):
        chi = AbelianMomentum(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * table.genus_cover)))
        report = table.check(chi)
        assert report.passed, report
        assert report.matrix_distance <= 1e-12 * max(1.0, report.spectral_radius)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cover=commuting_covers(mix_generators=True), seed=st.integers(0, 2**32 - 1))
def test_property_commuting_covers_pass_or_are_refused(cover, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, 1, 2)
    try:
        table = CoverPushforward(model, cover)
    except UnsupportedCoverError:
        return
    chi = AbelianMomentum(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * table.genus_cover)))
    assert table.check(chi).passed


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.booleans(),
)
def test_property_sparse_det_matches_bareiss(matrix, make_singular):
    if make_singular and len(matrix) > 1:
        matrix[-1] = [x - y for x, y in zip(matrix[0], matrix[1])] if len(matrix) > 2 else list(matrix[0])
    assert _int_det(matrix) == bareiss_det(matrix)


def test_sparse_det_on_signed_permutations_and_singular_cases():
    rng = np.random.default_rng(24)
    for n in (1, 5, 40):
        perm = rng.permutation(n)
        signs = rng.choice([-1, 1], n)
        m = np.zeros((n, n), dtype=int)
        m[np.arange(n), perm] = signs
        assert abs(_int_det(m.tolist())) == 1
        assert _int_det(m.tolist()) == bareiss_det(m.tolist())
    assert _int_det([]) == 1
    assert _int_det([[0, 0], [0, 0]]) == 0
    assert _int_det([[2, 4], [1, 2]]) == 0
    assert _int_det([[2, 1], [1, 1]]) == 1
    assert _int_det([[0, 1], [1, 0]]) == -1
    assert _int_det([[6, 4], [4, 6]]) == 20
