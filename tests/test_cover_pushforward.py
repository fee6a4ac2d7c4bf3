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
    _schreier_data,
    cover_genus,
    cover_to_json,
    induce,
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


def edge_assignment(cover):
    """{(sheet0, gen): (direction index, sign)} read from the class codes.

    Code 0 is (None, 0), 1 + i is (i, +1) and 1 + G + i is (i, -1), with
    G = 2 * genus(cover).
    """
    n_dirs = 2 * cover_genus(cover)
    return {
        (s, gen + 1): (None, 0) if code == 0 else ((code - 1) % n_dirs, 1 if code <= n_dirs else -1)
        for gen, row in enumerate(_schreier_data(cover).tolist())
        for s, code in enumerate(row)
    }


def kron_supercell(model, cover):
    """The dense build: one np.kron per edge over the whole supercell."""
    assignment = edge_assignment(cover)
    n = cover.sheets
    big = model.dim * n
    onsite = np.kron(model.onsite, np.eye(n, dtype=complex))
    new_hops = [np.zeros((big, big), dtype=complex) for _ in range(2 * cover_genus(cover))]

    def basis_block(a, b):
        E = np.zeros((n, n), dtype=complex)
        E[a, b] = 1.0
        return E

    for s in range(n):
        for gen in range(1, 2 * model.genus + 1):
            t = cover.perms[gen - 1][s] - 1
            direction, sign = assignment[(s, gen)]
            J = model.hops[gen - 1]
            if direction is None:
                onsite = onsite + np.kron(J, basis_block(s, t))
                onsite = onsite + np.kron(J.conj().T, basis_block(t, s))
            elif sign > 0:
                new_hops[direction] += np.kron(J, basis_block(s, t))
            else:
                new_hops[direction] += np.kron(J.conj().T, basis_block(t, s))
    return TightBindingModel(make_surface_group(cover_genus(cover)), onsite, new_hops)


def loop_induce(chi, cover):
    """The induced momentum filled one edge at a time."""
    assignment = edge_assignment(cover)
    n = cover.sheets
    mats, invs = [], []
    for gen in range(1, 2 * cover.genus + 1):
        rho = np.zeros((n, n), dtype=complex)
        rho_inv = np.zeros((n, n), dtype=complex)
        for s in range(n):
            t = cover.perms[gen - 1][s] - 1
            direction, sign = assignment[(s, gen)]
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


def check_one(table, chi, tol=1e-9):
    """The table's report at one momentum, with its stored reciprocals."""
    return next(table.check_batch(chi.chi[None], chi.chi_inv[None], tol))


def dense_report(model, cover, chi, tol=1e-9):
    """pushforward_check as it was computed before the table."""
    h_induced = bloch_nonabelian(model, loop_induce(chi, cover))
    h_supercell = bloch_abelian(kron_supercell(model, cover), chi)
    spec_a = eigenvalues(h_induced)
    spec_b = eigenvalues(h_supercell)
    distance = float(np.max(np.abs(spec_a - spec_b)))
    radius = float(max(np.max(np.abs(spec_a)), np.max(np.abs(spec_b))))
    return PushforwardReport(
        matrix_distance=float(np.max(np.abs(h_induced.matrix - h_supercell.matrix))),
        spectral_distance=distance,
        spectral_radius=radius,
        tolerance=tol,
        passed=distance <= tol * max(radius, 1e-12),
    )


def _smith_right_transform(rows: list, width: int):
    """Exact integer Smith-style diagonalization tracking the column transform.

    Returns (diagonal entries, V) with (original) @ V related to the diagonal
    by unimodular row operations; V is unimodular.  Only the diagonal values
    and V are needed: rank = #nonzero diagonal entries, torsion-freeness =
    all nonzero entries are +-1, and the class of basis vector e_j in the
    quotient by the row lattice is row j of V restricted to the free columns.
    """
    R = [[int(v) for v in row] for row in rows]
    n = len(R)
    V = [[1 if i == j else 0 for j in range(width)] for i in range(width)]

    def col_swap(a, b):
        for i in range(n):
            R[i][a], R[i][b] = R[i][b], R[i][a]
        for i in range(width):
            V[i][a], V[i][b] = V[i][b], V[i][a]

    def col_add(dst, src, q):
        for i in range(n):
            R[i][dst] += q * R[i][src]
        for i in range(width):
            V[i][dst] += q * V[i][src]

    t = 0
    limit = min(n, width)
    while t < limit:
        pivot = None
        for i in range(t, n):
            for j in range(t, width):
                if R[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i0, j0 = pivot
        if i0 != t:
            R[i0], R[t] = R[t], R[i0]
        if j0 != t:
            col_swap(j0, t)
        while True:
            # shrink the pivot by column ops along its row ...
            for j in range(t + 1, width):
                if R[t][j] != 0:
                    q = R[t][j] // R[t][t]
                    col_add(j, t, -q)
                    if R[t][j] != 0:
                        col_swap(t, j)
            # ... and row ops along its column (V untouched)
            for i in range(t + 1, n):
                if R[i][t] != 0:
                    q = R[i][t] // R[t][t]
                    R[i] = [x - q * y for x, y in zip(R[i], R[t])]
                    if R[i][t] != 0:
                        R[i], R[t] = R[t], R[i]
            if all(R[t][j] == 0 for j in range(t + 1, width)) and all(
                R[i][t] == 0 for i in range(t + 1, n)
            ):
                break
        t += 1
    diagonal = [R[i][i] for i in range(min(n, width))]
    return diagonal, V


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def cyclic(genus, n, gen, step=1):
    perms = [tuple(range(1, n + 1)) for _ in range(2 * genus)]
    perms[gen] = tuple((s + step) % n + 1 for s in range(n))
    return UnbranchedCover(n, tuple(perms))


def test_oversized_supercell_is_refused_before_its_matrices_are_placed(monkeypatch):
    # a genus-2 cyclic cover of 256 sheets has genus 257: 1544 dense matrices
    # of 256 states in the placed blocks, the model's copies and its daggers
    model = random_model(np.random.default_rng(3), 2, 1)
    cover = cyclic(2, 256, 0)

    def unreachable(*args):
        raise AssertionError("a dense matrix was placed")

    monkeypatch.setattr(covers_quivers, "_place_blocks", unreachable)
    with pytest.raises(ValueError) as info:
        supercell(model, cover)
    assert str(info.value) == (
        "supercell too large: about 1.6 GB of 1544 dense matrices of 256 states; the limit is 1.1 GB"
    )


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
        np.diag([-1.0, 0.0, 2.0, -0.0][:dim]),
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


def test_cover_check_of_a_huge_onsite_entry_is_exact():
    # both symmetrizations of the on-site blocks overflowed with M's: the
    # supercell held inf+nanj where the induced route held 1.7e308
    rng = np.random.default_rng(22)
    for cover in COVERS:
        hops = [0.1 * rng.normal(size=(2, 2)) for _ in range(2 * cover.genus)]
        model = TightBindingModel(cover.genus, np.diag([1.7e308, 1.0]), hops)
        assert _same_bits(supercell(model, cover).onsite, kron_supercell(model, cover).onsite)
    # on a cyclic and a swap cover the two routes build the same matrix
    for cover in (COVERS[0], COVERS[5]):
        hops = [0.1 * rng.normal(size=(2, 2)) for _ in range(2 * cover.genus)]
        model = TightBindingModel(cover.genus, np.diag([1.7e308, 1.0]), hops)
        chi = AbelianMomentum(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * cover_genus(cover))))
        assert pushforward_check(model, cover, chi).matrix_distance == 0.0


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
                    table._supercell_stack(chi.chi[None], chi.chi_inv[None])[0], bloch_abelian(dense, chi).matrix
                )
                ours, theirs = induce(chi, cover), loop_induce(chi, cover)
                for a, b in zip(ours.rho + ours.rho_inv, theirs.rho + theirs.rho_inv):
                    assert _same_bits(a, b)


REAL_ENTRIES = [complex(re, im) for re in (0.0, -0.0, 0.5, -0.5) for im in (0.0, -0.0)]
SIGNED_ENTRIES = REAL_ENTRIES + [complex(re, im) for re in (0.0, -0.0) for im in (0.5, -0.5)]
FIRST_PERMS = {"one-sheet": (1,), "identity": (1, 2), "swap": (2, 1), "3-cycle": (2, 3, 1)}


@st.composite
def signed_zero_cases(draw):
    """d = 1, 2 models with entries +-0, +-0.5, +-0 +- 0.5j on four small covers,
    and characters in the second quadrant or at -1."""
    genus, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    first = FIRST_PERMS[draw(st.sampled_from(sorted(FIRST_PERMS)))]
    cover = UnbranchedCover(len(first), (first,) + (tuple(sorted(first)),) * (2 * genus - 1))
    entries = lambda values, size: np.array(draw(st.lists(st.sampled_from(values), min_size=size, max_size=size)))
    onsite = np.diag(entries(REAL_ENTRIES, d))
    if d == 2:  # set, not summed: a sum would turn each -0 into +0
        onsite[0, 1] = draw(st.sampled_from(SIGNED_ENTRIES))
        onsite[1, 0] = np.conj(onsite[0, 1])
    hops = [entries(SIGNED_ENTRIES, d * d).reshape(d, d) for _ in range(2 * genus)]
    chi = entries([-0.6 + 0.8j, -0.28 + 0.96j, complex(-1.0, 0.0)], 2 * cover_genus(cover))
    return TightBindingModel(genus, onsite, hops), cover, AbelianMomentum(chi)


@settings(max_examples=300)
@given(signed_zero_cases())
def test_property_supercell_stack_keeps_the_dense_zero_signs(case):
    model, cover, chi = case
    ours = CoverPushforward(model, cover)._supercell_stack(chi.chi[None], chi.chi_inv[None])[0]
    assert ours.tobytes() == bloch_abelian(supercell(model, cover), chi).matrix.tobytes()


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
    assert check_one(table, chi) == pushforward_check(model, cover, chi)


def test_table_holds_cover_facts_and_rejects_mismatches():
    rng = np.random.default_rng(22)
    cover = cyclic(2, 6, 3, step=2)
    model = random_model(rng, 2, 2)
    table = CoverPushforward(model, cover)
    assert table.genus_cover == cover_genus(cover) == 8
    assert table.connected is False
    # only the sheet pairs a generator touches are stored
    assert np.bincount(table.hop_blocks[0]).max() <= 2 * cover.sheets
    with pytest.raises(ValueError):
        CoverPushforward(random_model(rng, 1, 2), cover)
    with pytest.raises(ValueError):
        check_one(table, AbelianMomentum(np.ones(2, dtype=complex)))
    with pytest.raises(TypeError):
        induce(np.ones(12, dtype=complex), cover)
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


def test_schreier_data_is_derived_once_per_cover_object(monkeypatch):
    rng = np.random.default_rng(24)
    calls = []
    original = covers_quivers._schreier_data
    monkeypatch.setattr(covers_quivers, "_schreier_data", lambda cover: calls.append(cover) or original(cover))
    cover, model = znzm(2, 3), random_model(rng, 1, 2)
    chi = AbelianMomentum(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * cover_genus(cover))))
    for _ in range(2):
        induce(chi, cover)
        supercell(model, cover)
        pushforward_check(model, cover, chi)
        list(CoverPushforward(model, cover).check_batch(chi.chi[None], chi.chi_inv[None]))
    assert len(calls) == 1 and calls[0] is cover
    # an equal cover is another object, with its own derivation
    induce(chi, UnbranchedCover(cover.sheets, cover.perms))
    assert len(calls) == 2
    # a refused cover caches nothing and refuses every time
    refused = UnbranchedCover(3, ((3, 1, 2), (2, 3, 1)))
    for _ in range(2):
        with pytest.raises(UnsupportedCoverError):
            CoverPushforward(model, refused)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# properties (derandomized by conftest.py: every run draws the same examples)
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


@settings(max_examples=40)
@given(cover=commuting_covers(mix_generators=False), seed=st.integers(0, 2**32 - 1))
def test_property_pushforward_passes_on_product_covers(cover, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, 1, int(rng.integers(1, 4)))
    table = CoverPushforward(model, cover)
    assert table.genus_cover == len(cover.components())
    for _ in range(2):
        chi = AbelianMomentum(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * table.genus_cover)))
        report = check_one(table, chi)
        assert report.passed, report
        assert report.matrix_distance <= 1e-12 * max(1.0, report.spectral_radius)


@settings(max_examples=40)
@given(cover=commuting_covers(mix_generators=True), seed=st.integers(0, 2**32 - 1))
def test_property_commuting_covers_pass_or_are_refused(cover, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, 1, 2)
    try:
        table = CoverPushforward(model, cover)
    except UnsupportedCoverError:
        return
    chi = AbelianMomentum(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * table.genus_cover)))
    assert check_one(table, chi).passed


def _dense(rows, width):
    """Sparse {column: value} rows as dense lists of `width` entries."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def _schreier_data_against_oracle(cover):
    """_schreier_data with every contraction checked against the dense oracle.

    The rank is the number of nonzero diagonal entries, each +-1, and each
    column's class is its row of V at the free positions.
    """
    real = covers_quivers._contract
    widths = []

    def checked(rows, width):
        rank, classes = result = real(rows, width)
        diagonal, V = _smith_right_transform(_dense(rows, width), width)
        assert all(d in (-1, 0, 1) for d in diagonal)
        assert rank == sum(1 for d in diagonal if d != 0)
        assert classes == [{c: v for c, v in enumerate(row[rank:]) if v} for row in V]
        widths.append(width)
        return result

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(covers_quivers, "_contract", checked)
        return _schreier_data(cover), widths


@pytest.mark.parametrize(
    "cover",
    COVERS + [cyclic(2, 64, 0), cyclic(2, 256, 3), cyclic(2, 64, 2, step=32), znzm(8, 8)],
    ids=lambda c: f"N{c.sheets}-g{c.genus}",
)
def test_eliminator_matches_dense_smith_form_on_covers(cover):
    _, widths = _schreier_data_against_oracle(cover)
    # the relator rows only, one column per non-tree edge
    assert widths == [cover.sheets * (2 * cover.genus - 1) + len(cover.components())]


@settings(max_examples=40)
@given(cover=commuting_covers(mix_generators=True))
def test_property_eliminator_matches_dense_smith_form_on_commuting_covers(cover):
    try:
        _schreier_data_against_oracle(cover)
    except UnsupportedCoverError:
        pass
