"""Cell data and momentum-space Hamiltonians."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband.momenta import AbelianMomentum, NonabelianMomentum, abelian_to_nonabelian
from hyperband.surface_group import make_surface_group
from hyperband.tight_binding import (
    TightBindingModel,
    _symmetrized,
    adjoint_momentum,
    bloch_abelian,
    bloch_nonabelian,
    model_from_json,
    model_to_json,
    read_model,
    write_model,
)


def random_model(rng, genus, dim):
    onsite = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    onsite = onsite + onsite.conj().T
    hops = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(2 * genus)
    ]
    return TightBindingModel(make_surface_group(genus), onsite, hops)


def random_unitary_character(rng, genus):
    return AbelianMomentum(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2 * genus)))


def test_model_validates_hop_count():
    g = make_surface_group(2)
    with pytest.raises(ValueError):
        TightBindingModel(g, np.zeros((2, 2)), [np.eye(2)] * 3)


def test_model_validates_shapes():
    g = make_surface_group(1)
    with pytest.raises(ValueError):
        TightBindingModel(g, np.zeros((2, 2)), [np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        TightBindingModel(g, np.zeros((2, 3)), [np.eye(2), np.eye(2)])


@pytest.mark.parametrize("genus", [1, 2])
def test_model_refuses_a_cell_of_no_states(genus):
    # a 0-state model used to be accepted, and a sweep on it died reshaping
    with pytest.raises(ValueError, match=r"^a model needs at least one state, got a \(0, 0\) onsite matrix$"):
        TightBindingModel(genus, np.zeros((0, 0)), [np.zeros((0, 0))] * (2 * genus))


def test_model_symmetrizes_small_antihermitian_noise():
    g = make_surface_group(1)
    noise = 1e-12j
    model = TightBindingModel(g, [[1.0, noise], [0.0, 2.0]], [np.eye(2)] * 2)
    assert np.array_equal(model.onsite, model.onsite.conj().T)
    assert model.onsite_residual <= 1e-11


def test_model_rejects_blatantly_nonhermitian_onsite():
    g = make_surface_group(1)
    with pytest.raises(ValueError):
        TightBindingModel(g, [[0.0, 1.0], [0.0, 0.0]], [np.eye(2)] * 2)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_model_rejects_a_huge_nonhermitian_onsite_without_overflow(scale):
    # ||M|| overflowed: the test read inf > 1e-8 inf, False, and accepted M
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"not Hermitian \(residual 1\.414e\+{int(np.log10(scale))}\)"):
            TightBindingModel(1, scale * np.array([[1.0, 1.0], [0.0, 1.0]]), [np.zeros((2, 2))] * 2)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150, 1e200, 1e300])
def test_onsite_residual_is_the_norm_wherever_that_is_finite(scale):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    onsite = (a + a.conj().T + 1e-12 * a) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = TightBindingModel(1, onsite, [np.zeros((3, 3))] * 2)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(onsite - onsite.conj().T)
    if np.isfinite(norm):
        assert model.onsite_residual == norm
    else:  # 1e200 and 1e300: the difference's norm, taken scaled down
        difference = onsite - onsite.conj().T
        assert model.onsite_residual == pytest.approx(np.linalg.norm(difference / scale) * scale, rel=1e-14)


def test_huge_onsite_entry_is_symmetrized_without_overflow():
    # (M + M^dagger) / 2 overflowed: the entry became inf+nanj, with an
    # overflow and an invalid-value RuntimeWarning
    onsite = np.array([[1.7e308, 0.0], [0.0, 1.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = TightBindingModel(1, onsite, [np.zeros((2, 2))] * 2)
    assert np.all(np.isfinite(model.onsite))
    assert model.onsite.tobytes() == onsite.tobytes()


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 1e300, 1e-300, 2.0**-1060, 5e-324]))
def test_property_symmetrization_keeps_the_bits_of_half_the_sum(seed, scale):
    # halving before adding would move subnormal bits (5e-324 / 2 is 0)
    rng = np.random.default_rng(seed)
    a = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) * scale
    onsite = a + a.conj().T + 1e-12 * a
    model = TightBindingModel(1, onsite, [np.zeros((3, 3))] * 2)
    expected = ((onsite + onsite.conj().T) / 2.0).tobytes()
    assert model.onsite.tobytes() == _symmetrized(onsite, onsite.conj().T).tobytes() == expected


def test_model_accepts_genus_as_int():
    model = TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]])
    assert model.genus == 1 and model.dim == 1


def test_bloch_abelian_free_character_structure():
    # single site, hops (1, 1): H(chi) = chi1 + 1/chi1 + chi2 + 1/chi2
    model = TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]])
    chi = AbelianMomentum(np.array([2.0 + 0j, 1j]))
    h = bloch_abelian(model, chi)
    assert np.allclose(h.matrix, 2.0 + 0.5 + 1j - 1j)
    assert not h.hermitian


def test_bloch_abelian_unitary_gives_hermitian():
    rng = np.random.default_rng(0)
    for genus, dim in ((1, 3), (2, 2)):
        model = random_model(rng, genus, dim)
        chi = random_unitary_character(rng, genus)
        h = bloch_abelian(model, chi)
        assert h.hermitian
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) < 1e-12


def test_adjoint_momentum_is_exact_involution():
    rng = np.random.default_rng(1)
    chi = AbelianMomentum(rng.normal(size=4) + 1j * rng.normal(size=4))
    back = adjoint_momentum(adjoint_momentum(chi))
    assert np.array_equal(back.chi, chi.chi)
    assert np.array_equal(back.chi_inv, chi.chi_inv)


def test_bloch_adjoint_identity_is_bitwise():
    # H(adjoint chi) must equal H(chi)^dagger entry for entry, not just within
    # tolerance: the adjoint only conjugates stored values, and the assembly
    # adds the generator pairs in the same order on both sides.
    rng = np.random.default_rng(2)
    for _ in range(25):
        genus = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 4))
        model = random_model(rng, genus, dim)
        chi = AbelianMomentum(rng.normal(size=2 * genus) + 1j * rng.normal(size=2 * genus))
        h = bloch_abelian(model, chi).matrix
        h_adj = bloch_abelian(model, adjoint_momentum(chi)).matrix
        assert np.array_equal(h_adj, h.conj().T)


def test_bloch_nonabelian_matches_abelian_on_characters():
    rng = np.random.default_rng(3)
    model = random_model(rng, 1, 2)
    chi = random_unitary_character(rng, 1)
    h1 = bloch_abelian(model, chi).matrix
    h2 = bloch_nonabelian(model, abelian_to_nonabelian(chi)).matrix
    assert np.allclose(h1, h2, atol=1e-14)


def test_bloch_nonabelian_kron_ordering():
    # dim-1 model with a rank-2 momentum: H = M*I + sum J_i rho_i + conj(J_i) rho_i^-1
    model = TightBindingModel(1, [[0.5]], [[[1.0]], [[2.0]]])
    a = np.diag([1j, -1j])
    b = np.diag([2.0 + 0j, 0.5 + 0j])
    rho = NonabelianMomentum((a, b))
    h = bloch_nonabelian(model, rho).matrix
    expected = 0.5 * np.eye(2) + a + a.conj().T + 2.0 * b + 2.0 * np.linalg.inv(b)
    assert np.allclose(h, expected)


def test_bloch_nonabelian_unitary_hermitian_flag():
    rng = np.random.default_rng(4)
    model = random_model(rng, 1, 2)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    rho = NonabelianMomentum((u, u))  # commuting unitary pair
    h = bloch_nonabelian(model, rho)
    assert h.hermitian
    assert np.max(np.abs(h.matrix - h.matrix.conj().T)) < 1e-12


def test_content_hash_stable_and_sensitive():
    rng = np.random.default_rng(5)
    model = random_model(rng, 1, 2)
    model_same = TightBindingModel(model.group, model.onsite, model.hops)
    assert model.content_hash == model_same.content_hash
    bumped = TightBindingModel(
        model.group, model.onsite + np.eye(2), model.hops
    )
    assert bumped.content_hash != model.content_hash


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    model = random_model(rng, 2, 3)
    again = model_from_json(model_to_json(model))
    assert again.genus == model.genus
    assert np.array_equal(again.onsite, model.onsite)
    for h1, h2 in zip(again.hops, model.hops):
        assert np.array_equal(h1, h2)

    path = tmp_path / "model.json"
    write_model(model, path)
    third = read_model(path)
    assert third.content_hash == model.content_hash


def test_model_json_rejects_wrong_format():
    with pytest.raises((ValueError, KeyError)):
        model_from_json({"some_other_format": 2})


#: the start of the error for an entry that is not a JSON number or pair
NOT_A_NUMBER = r"must be a number or \[re, im\] in the float range, got"


def _model_document(hop, **fields):
    """A genus-1, one-state model document whose first hop entry is `hop`."""
    doc = {"hyperband_model": 1, "genus": 1, "dim": 1, "onsite": [[0.0]], "hops": [[[hop]], [[1.0]]]}
    doc.update(fields)
    return doc


def test_model_document_reads_numbers_and_pairs():
    assert model_from_json(_model_document(2)).hops[0][0, 0] == 2
    assert model_from_json(_model_document([0.5, -1])).hops[0][0, 0] == 0.5 - 1j


@pytest.mark.parametrize(
    "data, error",
    [
        ([1, 2], r"not a model document \(expected hyperband_model: 1\)"),
        (None, "not a model document"),
        (_model_document(1.0, hyperband_model=True), "not a model document"),
        (_model_document(1.0, hyperband_model=2), "not a model document"),
        ({k: v for k, v in _model_document(1.0).items() if k != "dim"}, "model document has no 'dim'"),
        (_model_document("12"), rf"an entry in hops {NOT_A_NUMBER} '12'"),
        (_model_document(True), rf"an entry in hops {NOT_A_NUMBER} True"),
        (_model_document(None), rf"an entry in hops {NOT_A_NUMBER} None"),
        (_model_document([1.0, False]), r"got \[1.0, False\]"),
        (_model_document([1.0, 0.0, 0.0]), r"got \[1.0, 0.0, 0.0\]"),
        (_model_document([1.0, 10**400]), "in the float range, got"),
        (_model_document(1.0, dim=0, onsite=[], hops=[[], []]), "dim must be >= 1, got 0"),
        (_model_document(1.0, dim=-2), "dim must be >= 1, got -2"),
    ],
)
def test_model_json_refuses_non_documents_and_non_number_entries(data, error):
    with pytest.raises(ValueError, match=error):
        model_from_json(data)


@pytest.mark.parametrize("genus", [2.7, True, "1"])
def test_model_refuses_fractional_and_boolean_genus(genus):
    with pytest.raises(ValueError, match="genus must be an integer"):
        TightBindingModel(genus, [[0.0]], [[[1.0]], [[1.0]]])


# ---------------------------------------------------------------------------
# input refusals: each row a call, its exception type and its whole message
# ---------------------------------------------------------------------------

ONE_STATE = TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]])

REFUSALS = [
    pytest.param(
        lambda: TightBindingModel(1, [[0.0]], [[[np.nan]], [[1.0]]]), ValueError,
        "hop matrices must be finite", id="hop-nan",
    ),
    pytest.param(
        lambda: TightBindingModel(1, [[np.inf]], [[[1.0]], [[1.0]]]), ValueError,
        "onsite matrix must be finite", id="onsite-inf",
    ),
    pytest.param(
        lambda: bloch_abelian(ONE_STATE, NonabelianMomentum(rho=[[[1.0]], [[1.0]]])), TypeError,
        "bloch_abelian expects an AbelianMomentum", id="abelian-type",
    ),
    pytest.param(
        lambda: bloch_abelian(ONE_STATE, AbelianMomentum([1.0] * 4)), ValueError,
        "genus mismatch: model 1, momentum 2", id="abelian-genus",
    ),
    pytest.param(
        lambda: bloch_nonabelian(ONE_STATE, AbelianMomentum([1.0, 1.0])), TypeError,
        "bloch_nonabelian expects a NonabelianMomentum; use bloch_abelian", id="nonabelian-type",
    ),
    pytest.param(
        lambda: bloch_nonabelian(ONE_STATE, NonabelianMomentum(rho=[[[1.0]]] * 4)), ValueError,
        "genus mismatch: model 1, momentum 2", id="nonabelian-genus",
    ),
    pytest.param(
        lambda: model_from_json({**model_to_json(ONE_STATE), "dim": 2}), ValueError,
        "onsite shape (1, 1) does not match dim=2", id="json-onsite-shape",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_tight_binding_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
