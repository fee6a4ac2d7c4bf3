"""The batched cover check against the per-character check it replaced.

`per_trial_check` is the per-character check as it ran before the batch:
per character one induced momentum, one monomial assembly in Kronecker
order, one supercell Hamiltonian and two eigensolves.  Its supercell
Hamiltonian comes from the dense Kronecker build of `test_cover_pushforward`,
which the per-character table assembly equalled bit for bit.  Reports are
compared field by field, floats by their bytes, so the signs of zeros count.
"""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband import cli
from hyperband.covers_quivers import (
    CoverPushforward,
    PushforwardReport,
    UnbranchedCover,
    _induced_phases,
    cover_genus,
    cover_to_json,
    induce,
)
from hyperband.errors import NumericalCheckFailure, UnsupportedCoverError
from hyperband.momenta import AbelianMomentum, _monomial_checks
from hyperband.spectra import eigenvalues
from hyperband.tight_binding import (
    BlochHamiltonian,
    _place_blocks,
    bloch_abelian,
    bloch_nonabelian,
    write_model,
)

from test_cover_pushforward import (
    COVERS,
    check_one,
    commuting_covers,
    cyclic,
    kron_supercell,
    special_models,
    znzm,
)
from test_monomial_covers import KINDS, surface_covers
from test_tight_binding import random_model


# ---------------------------------------------------------------------------
# oracles: the per-character check and cover-check loop
# ---------------------------------------------------------------------------


def per_character_monomial(model, momentum):
    """`bloch_nonabelian` at one monomial momentum, as assembled before the batch axis."""
    n = momentum.rank
    targets, forward, backward = momentum.monomial
    sheets = np.arange(n)
    keys = np.concatenate([sheets * (n + 1), (sheets * n + targets).ravel(), (targets * n + sheets).ravel()])
    rows, cols = np.divmod(np.unique(keys), n)
    weights = np.zeros((1 + 2 * len(targets), rows.size + 1), dtype=complex)
    weights[0, :-1] = rows == cols
    weights[1::2, :-1] = np.where(targets[:, rows] == cols, forward[:, rows], 0.0)
    weights[2::2, :-1] = np.where(targets[:, cols] == rows, backward[:, cols], 0.0)
    weights = weights[:, :, None, None]
    blocks = model.onsite * weights[0]
    for i in range(2 * model.genus):
        blocks += model.hops[i] * weights[1 + 2 * i] + model.hops_dagger[i] * weights[2 + 2 * i]
    return _place_blocks(blocks[-1], rows, cols, blocks[:-1], n)


def per_trial_check(model, cover, dense, chi, tol=1e-9):
    """The check at one character; `dense` is kron_supercell(model, cover)."""
    rho = induce(chi, cover)
    h_induced = BlochHamiltonian(per_character_monomial(model, rho), rho.unitary)
    h_supercell = bloch_abelian(dense, chi)
    spec_a = eigenvalues(h_induced)
    spec_b = eigenvalues(h_supercell)
    distance = float(np.max(np.abs(spec_a - spec_b)))
    radius = float(max(np.max(np.abs(spec_a)), np.max(np.abs(spec_b))))
    matrix_distance = float(np.max(np.abs(h_induced.matrix - h_supercell.matrix)))
    return PushforwardReport(
        matrix_distance=matrix_distance,
        spectral_distance=distance,
        spectral_radius=radius,
        tolerance=tol,
        passed=distance <= tol * max(radius, 1e-12),
    )


def oracle_cover_check(model, cover, trials, tol, seed):
    """(stdout, --out text) of cover-check drawing and checking one character at a time."""
    dense = kron_supercell(model, cover)
    rng = np.random.default_rng(seed)
    worst, matrix_distance = None, 0.0
    for _ in range(trials):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=2 * cover_genus(cover))
        report = per_trial_check(model, cover, dense, AbelianMomentum(np.exp(1j * phases)), tol)
        if worst is None or report.spectral_distance > worst.spectral_distance:
            worst = report
        matrix_distance = max(matrix_distance, report.matrix_distance)
    n_states = model.dim * cover.sheets
    line = (
        f"{'PASS' if worst.passed else 'FAIL'}: {trials} characters, {n_states} states, "
        f"max spectral distance {worst.spectral_distance:.3e} "
        f"(tolerance {tol:g} x radius {worst.spectral_radius:.3e})\n"
    )
    summary = {
        "hyperband_cover_check": 1,
        "passed": worst.passed,
        "trials": trials,
        "n_states": n_states,
        "connected": cover.transitive,
        "genus_cover": cover_genus(cover),
        "max_spectral_distance": worst.spectral_distance,
        "max_matrix_distance": matrix_distance,
        "spectral_radius": worst.spectral_radius,
        "tolerance": tol,
    }
    return line, json.dumps(summary, indent=2, sort_keys=True) + "\n"


def fields(report):
    """A report's fields with their types, floats as their bytes."""
    return tuple(
        (type(v).__name__, struct.pack("<d", v) if isinstance(v, float) else v)
        for v in dataclasses.astuple(report)
    )


def characters(rng, kinds, genus_cover):
    """(T, 2G) characters, one row per kind, and the reciprocals a momentum stores."""
    rows = []
    for kind in kinds:
        if kind == "torus":
            rows.append(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * genus_cover)))
        elif kind == "off":
            rows.append(np.exp(rng.uniform(-0.5, 0.5, 2 * genus_cover) + 1j * rng.uniform(0.0, 2.0 * np.pi, 2 * genus_cover)))
        else:
            rows.append(rng.choice([1.0, -1.0, 1j, -1j, 2.0, -0.5], 2 * genus_cover).astype(complex))
    momenta = [AbelianMomentum(row) for row in rows]
    return momenta, np.array([m.chi for m in momenta]), np.array([m.chi_inv for m in momenta])


def assert_batch_matches(model, cover, kinds, rng, table=None):
    table = CoverPushforward(model, cover) if table is None else table
    dense = kron_supercell(model, cover)
    momenta, chi, chi_inv = characters(rng, kinds, table.genus_cover)
    got = list(table.check_batch(chi, chi_inv))
    want = [per_trial_check(model, cover, dense, m) for m in momenta]
    assert [fields(r) for r in got] == [fields(r) for r in want]
    assert fields(check_one(table, momenta[-1])) == fields(want[-1])


def item_bytes(model, cover):
    """Slice budget per trial: its induced and supercell Hamiltonians."""
    return 2 * 16 * (model.dim * cover.sheets) ** 2


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def swap(genus, n, gen):
    """One generator swaps the two halves of the sheets."""
    perms = [tuple(range(1, n + 1)) for _ in range(2 * genus)]
    perms[gen] = tuple((s + n // 2) % n + 1 for s in range(n))
    return UnbranchedCover(n, tuple(perms))


def refused(n):
    """Two generators of different handles cycle the sheets: too many hop directions."""
    shift = tuple(s % n + 1 for s in range(1, n + 1))
    ident = tuple(range(1, n + 1))
    return UnbranchedCover(n, (shift, ident, shift, ident))


BATCH_COVERS = {
    "cyclic-g1": cyclic(1, 3, 1),
    "cyclic-g2": cyclic(2, 5, 0),
    "cyclic-disconnected": cyclic(2, 6, 3, step=2),
    "z2xz3": znzm(2, 3),
    "z3xz4": znzm(3, 4),
    "swap-g1": swap(1, 4, 0),
    "swap-g2": swap(2, 6, 2),
    "one-sheet-g1": UnbranchedCover(1, ((1,), (1,))),
    "one-sheet-g2": UnbranchedCover(1, ((1,),) * 4),
}


@pytest.mark.parametrize("cover", BATCH_COVERS.values(), ids=BATCH_COVERS.keys())
def test_batch_reports_equal_per_character_reports(cover):
    rng = np.random.default_rng(cover.sheets * 7 + cover.genus)
    kinds = ["torus", "off", "special", "torus", "special", "off", "torus"]
    for dim in (1, 2, 3, 4):
        for model in special_models(rng, cover.genus, dim):
            assert_batch_matches(model, cover, kinds, rng)


def test_one_sheet_cover_at_dim_one_single_and_batched():
    # a single 1 x 1 Hamiltonian per trial: the smallest products numpy runs
    cover = BATCH_COVERS["one-sheet-g1"]
    rng = np.random.default_rng(40)
    for model in special_models(rng, 1, 1):
        for kinds in (["torus"], ["off"], ["special"], ["torus", "off"], ["special"] * 3):
            assert_batch_matches(model, cover, kinds, rng)


@settings(max_examples=60)
@given(
    cover=surface_covers(),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    kinds=st.lists(KINDS, min_size=1, max_size=6),
)
def test_property_batch_reports_equal_per_character_reports(cover, seed, dim, kinds):
    rng = np.random.default_rng(seed)
    model = random_model(rng, cover.genus, dim)
    try:
        table = CoverPushforward(model, cover)
    except UnsupportedCoverError:
        return
    assert_batch_matches(model, cover, kinds, rng, table)


def test_supercell_stack_gives_each_character_its_own_signed_zeros():
    # the quadrants of a character's entries decide the signs of the zeros
    # a dense build leaves off every generator's blocks; one batch mixes
    # characters of every quadrant, axis values and off-torus values
    rng = np.random.default_rng(48)
    for cover in COVERS:
        for model in special_models(rng, cover.genus, 2):
            table = CoverPushforward(model, cover)
            dense = kron_supercell(model, cover)
            width = 2 * table.genus_cover
            rows = [np.exp(1j * (rng.uniform(0.1, 1.4, width) + q * np.pi / 2)) for q in range(4)]
            rows += [np.full(width, z, dtype=complex) for z in (1.0, -1.0, 1j, -1j, -0.5, 2.0)]
            rows += [rng.choice([1.0, -1.0, 1j, -1j, 2.0], width).astype(complex) for _ in range(3)]
            momenta = [AbelianMomentum(row) for row in rows]
            stack = table._supercell_stack(
                np.array([m.chi for m in momenta]), np.array([m.chi_inv for m in momenta])
            )
            for H, chi in zip(stack, momenta):
                assert H.tobytes() == bloch_abelian(dense, chi).matrix.tobytes()
                assert H.tobytes() == table._supercell_stack(chi.chi[None], chi.chi_inv[None])[0].tobytes()


@pytest.mark.parametrize("per_slice", [1, 2, 3])
def test_slices_of_one_two_and_three_trials(chunk_budget, monkeypatch, per_slice):
    rng = np.random.default_rng(41 + per_slice)
    solve = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape[0]) or solve(a))
    # seven trials: the last slice holds what is left, one trial at 2 and 3
    sizes = {1: [1] * 7, 2: [2, 2, 2, 1], 3: [3, 3, 1]}[per_slice]
    for cover in (BATCH_COVERS["cyclic-g2"], BATCH_COVERS["z2xz3"], BATCH_COVERS["one-sheet-g1"]):
        for dim in (1, 3):
            model = random_model(rng, cover.genus, dim)
            table = CoverPushforward(model, cover)
            momenta, chi, chi_inv = characters(rng, ["torus"] * 7, table.genus_cover)
            calls.clear()
            with chunk_budget(per_slice * item_bytes(model, cover)):
                got = list(table.check_batch(chi, chi_inv))
            # one induced and one supercell stack per slice
            assert calls == [k for k in sizes for _ in range(2)]
            dense = kron_supercell(model, cover)
            want = [per_trial_check(model, cover, dense, m) for m in momenta]
            assert [fields(r) for r in got] == [fields(r) for r in want]


def test_batch_yields_each_slice_before_building_the_next(chunk_budget, monkeypatch):
    # seven trials in slices of 2, 2, 2 and 1: making the generator builds
    # nothing, and the first report needs the first slice's stacks only
    rng = np.random.default_rng(49)
    cover = BATCH_COVERS["z2xz3"]
    model = random_model(rng, cover.genus, 2)
    table = CoverPushforward(model, cover)
    _, chi, chi_inv = characters(rng, ["torus"] * 7, table.genus_cover)
    want = [fields(r) for r in table.check_batch(chi, chi_inv)]
    stack, built = CoverPushforward._supercell_stack, []
    monkeypatch.setattr(
        CoverPushforward, "_supercell_stack", lambda self, c, c_inv: built.append(len(c)) or stack(self, c, c_inv)
    )
    with chunk_budget(2 * item_bytes(model, cover)):
        reports = table.check_batch(chi, chi_inv)
        assert built == []
        got = [fields(next(reports))]
        assert built == [2]
        got += [fields(r) for r in reports]
    assert built == [2, 2, 2, 1]
    assert got == want


def test_mixed_batch_solves_each_route_per_solver(monkeypatch):
    rng = np.random.default_rng(42)
    cover = BATCH_COVERS["swap-g2"]
    model = random_model(rng, cover.genus, 2)
    shapes = {"eigvalsh": [], "eigvals": []}
    for name in shapes:
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, solve=solve, name=name: shapes[name].append(a.shape) or solve(a)
        )
    kinds = ["torus", "off", "off", "torus", "special", "torus"]
    table = CoverPushforward(model, cover)
    momenta, chi, chi_inv = characters(rng, kinds, table.genus_cover)
    unitary = sum(m.unitary for m in momenta)
    assert 0 < unitary < len(kinds)
    list(table.check_batch(chi, chi_inv))
    n = model.dim * cover.sheets
    assert shapes == {
        "eigvalsh": [(unitary, n, n)] * 2,
        "eigvals": [(len(kinds) - unitary, n, n)] * 2,
    }
    monkeypatch.undo()
    assert_batch_matches(model, cover, kinds, rng, table)


# ---------------------------------------------------------------------------
# classes against sheet positions: an oracle that reads no Schreier data
# ---------------------------------------------------------------------------


def sheet_positions(cover):
    """(N, 2g) integer positions, summed along the cover's BFS tree from 0 at
    each component's root (its least sheet): a tree edge s -> s.gen, generator
    i + 1, steps by e_i."""
    tree, components = cover._forest
    eye = np.eye(2 * cover.genus, dtype=int)
    pos = np.zeros((cover.sheets, 2 * cover.genus), dtype=int)
    for component in components:
        seen, queue = {component[0]}, [component[0]]
        for s in queue:
            for i in range(2 * cover.genus):
                forward, backward = int(cover.targets[i, s]), int(cover.sources[i, s])
                for reached, edge, step in ((forward, s, eye[i]), (backward, backward, -eye[i])):
                    if tree[i, edge] and reached not in seen:
                        pos[reached] = pos[s] + step
                        seen.add(reached)
                        queue.append(reached)
    return pos


def assert_classes_match_sheet_positions(cover, seed):
    """The class codes against the base homology of each edge's Schreier element.

    Edge (s, gen) maps to v = e_gen + pos(s) - pos(s.gen) in Z^2g: 0 for an
    edge coded 0 and +-v_i, one v_i per direction, for one coded +-(1 + i).
    Then the induced momentum of the character chi_i = psi^(v_i), pulled back
    from a unitary base character psi, is psi times the sheet permutations up
    to a diagonal gauge, so its Bloch spectrum is that of
    M (x) I + sum_i psi_i J_i (x) P_i + psi_i^-1 J_i^dagger (x) P_i^T.
    A wrong but self-consistent class fails this, where `cover-check`, whose
    two routes both read the codes, would pass.
    """
    codes, n_dirs = cover._schreier, 2 * cover_genus(cover)
    pos = sheet_positions(cover)
    v = np.eye(2 * cover.genus, dtype=int)[:, None, :] + pos[None] - pos[cover.targets]
    assert not v[codes == 0].any()
    basis = []
    for i in range(n_dirs):
        signed = np.concatenate([v[codes == 1 + i], -v[codes == 1 + n_dirs + i]])
        assert len(signed) > 0 and (signed == signed[0]).all()
        basis.append(signed[0])

    rng = np.random.default_rng(seed)
    model = random_model(rng, cover.genus, int(rng.integers(1, 4)))
    theta = rng.uniform(0.0, 2.0 * np.pi, 2 * cover.genus)
    chi = AbelianMomentum(np.exp(1j * (np.array(basis) @ theta)))
    spectrum = eigenvalues(bloch_nonabelian(model, induce(chi, cover))).real
    n = cover.sheets
    H = np.kron(model.onsite, np.eye(n))
    for i, psi in enumerate(np.exp(1j * theta)):
        P = np.zeros((n, n))
        P[np.arange(n), cover.targets[i]] = 1.0
        H += psi * np.kron(model.hops[i], P) + np.conj(psi) * np.kron(model.hops_dagger[i], P.T)
    expected = np.linalg.eigvalsh(H)
    radius = max(np.max(np.abs(spectrum)), np.max(np.abs(expected)))
    assert np.max(np.abs(spectrum - expected)) <= 1e-12 * radius


@pytest.mark.parametrize("cover", BATCH_COVERS.values(), ids=BATCH_COVERS.keys())
def test_classes_match_sheet_positions(cover):
    assert_classes_match_sheet_positions(cover, cover.sheets * 11 + cover.genus)


@settings(max_examples=400)
@given(
    cover=st.one_of(surface_covers(max_sheets=12), commuting_covers(mix_generators=True)),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_accepted_classes_match_sheet_positions(cover, seed):
    try:
        cover._schreier
    except UnsupportedCoverError:
        return
    assert_classes_match_sheet_positions(cover, seed)


# ---------------------------------------------------------------------------
# failures name their trial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "damage, message",
    [
        ("inverse", r"^trial 3: the inverse given for generator matrix \d does not invert it$"),
        ("nan", r"^trial 3: generator matrices must be finite$"),
    ],
)
def test_corrupt_character_is_refused_by_trial(chunk_budget, damage, message):
    rng = np.random.default_rng(43)
    cover = BATCH_COVERS["cyclic-g2"]
    model = random_model(rng, cover.genus, 2)
    table = CoverPushforward(model, cover)
    _, chi, chi_inv = characters(rng, ["torus"] * 5, table.genus_cover)
    if damage == "inverse":
        chi_inv[3, 1] *= 1.001
    else:
        chi[3, 1] = np.nan
    with chunk_budget(2 * item_bytes(model, cover)), pytest.raises(ValueError, match=message):
        list(table.check_batch(chi, chi_inv))


def test_monomial_checks_name_the_trial_whose_relator_fails():
    rng = np.random.default_rng(44)
    cover = BATCH_COVERS["cyclic-g2"]
    table = CoverPushforward(random_model(rng, 2, 1), cover)
    _, chi, chi_inv = characters(rng, ["torus"] * 4, table.genus_cover)
    targets = table.edges[0]
    forward, backward = _induced_phases(chi, chi_inv, table.edges)
    _monomial_checks(targets, forward, backward)
    # exact inverses, phases off the character: the relator no longer closes
    forward[2, 1, 1] *= 1.5
    backward[2, 1, 1] /= 1.5
    with pytest.raises(ValueError, match=r"^trial 7: the surface relator does not map to the identity \(residual"):
        _monomial_checks(targets, forward, backward, first=5)
    # without a trial axis the message is the momentum's own
    with pytest.raises(ValueError, match=r"^the surface relator does not map to the identity \(residual"):
        _monomial_checks(targets, forward[2], backward[2])


@pytest.mark.parametrize("solver", ["eigvalsh", "eigvals"])
def test_solver_failure_names_its_trial(chunk_budget, monkeypatch, solver):
    rng = np.random.default_rng(45)
    cover = BATCH_COVERS["z2xz3"]
    model = random_model(rng, cover.genus, 2)
    table = CoverPushforward(model, cover)
    _, chi, chi_inv = characters(rng, ["torus" if solver == "eigvalsh" else "off"] * 5, table.genus_cover)
    bad = table._supercell_stack(chi[3:4], chi_inv[3:4])[0]
    solve = getattr(np.linalg, solver)

    def flaky(a):
        if np.any(np.all(a == bad, axis=(-2, -1))):
            raise np.linalg.LinAlgError("forced")
        return solve(a)

    monkeypatch.setattr(np.linalg, solver, flaky)
    with chunk_budget(2 * item_bytes(model, cover)), pytest.raises(NumericalCheckFailure) as err:
        list(table.check_batch(chi, chi_inv))
    assert str(err.value) == "eigensolver failed at trial 3: eigensolver did not converge: forced"


def test_batch_refuses_characters_of_the_wrong_shape():
    table = CoverPushforward(random_model(np.random.default_rng(46), 1, 2), BATCH_COVERS["z2xz3"])
    ones = np.ones((3, 2), dtype=complex)
    with pytest.raises(ValueError, match=r"need \(T, 2\)"):
        list(table.check_batch(ones[:, :1], ones[:, :1]))
    pending = table.check_batch(ones, ones[:2])  # refused when its first report is read
    with pytest.raises(ValueError, match=r"need \(T, 2\)"):
        next(pending)
    assert list(table.check_batch(ones[:0], ones[:0])) == []


# ---------------------------------------------------------------------------
# cover-check
# ---------------------------------------------------------------------------


def test_one_draw_of_all_phases_equals_one_draw_per_trial():
    for trials, width in ((1, 2), (7, 10), (20, 130)):
        batch = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=(trials, width))
        rng = np.random.default_rng(5)
        rows = [rng.uniform(0.0, 2.0 * np.pi, size=width) for _ in range(trials)]
        assert batch.tobytes() == np.array(rows).tobytes()
        chi = np.exp(1j * batch)
        for row, values, inverses in zip(rows, chi, 1.0 / chi):
            momentum = AbelianMomentum(np.exp(1j * row))
            assert momentum.chi.tobytes() == values.tobytes()
            assert momentum.chi_inv.tobytes() == inverses.tobytes()


CLI_COVERS = {
    "cyclic": (cyclic(2, 8, 1), 2),
    "znzm": (znzm(3, 4), 2),
    "swap": (swap(2, 8, 2), 2),
    "refused": (refused(4), 2),
}


@pytest.mark.parametrize("trials", [1, 2, 7, 20])
@pytest.mark.parametrize("kind", CLI_COVERS.keys())
def test_cover_check_bytes_equal_the_per_character_loop(tmp_path, capsys, kind, trials):
    cover, dim = CLI_COVERS[kind]
    model = random_model(np.random.default_rng(47 + trials), cover.genus, dim)
    model_path, cover_path, out = tmp_path / "model.json", tmp_path / "cover.json", tmp_path / "out.json"
    write_model(model, model_path)
    cover_path.write_text(json.dumps(cover_to_json(cover)), encoding="utf-8")
    argv = [
        "cover-check", "--model", str(model_path), "--cover", str(cover_path),
        "--trials", str(trials), "--seed", str(trials + 3), "--out", str(out),
    ]
    code = cli.main(argv)
    stdout = capsys.readouterr().out
    if kind == "refused":
        with pytest.raises(UnsupportedCoverError):
            oracle_cover_check(model, cover, trials, 1e-9, trials + 3)
        assert (code, stdout, out.exists()) == (3, "", False)
        return
    line, text = oracle_cover_check(model, cover, trials, 1e-9, trials + 3)
    assert code == 0
    assert stdout == line
    assert out.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("kind", ["cyclic-g2", "cyclic-disconnected", "one-sheet-g2"])
def test_cover_check_reports_the_cover_facts(tmp_path, capsys, kind):
    # n_states, connected and genus_cover describe the cover, not a trial
    cover = BATCH_COVERS[kind]
    model = random_model(np.random.default_rng(50), cover.genus, 3)
    model_path, cover_path, out = tmp_path / "model.json", tmp_path / "cover.json", tmp_path / "out.json"
    write_model(model, model_path)
    cover_path.write_text(json.dumps(cover_to_json(cover)), encoding="utf-8")
    argv = ["cover-check", "--model", str(model_path), "--cover", str(cover_path), "--trials", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    facts = (doc["n_states"], doc["connected"], doc["genus_cover"])
    assert facts == (3 * cover.sheets, cover.transitive, cover_genus(cover))
    assert capsys.readouterr().out.startswith(f"PASS: 3 characters, {3 * cover.sheets} states,")
