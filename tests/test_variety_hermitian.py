"""Why the Bloch variety may sample with `eigvalsh`, and how it calls numpy.

Every lattice point lies on the unitary torus, where H(chi)^dagger =
H(1/conj chi) = H(chi): the sampling Hamiltonians are Hermitian to rounding,
and the recovered coefficients show the same symmetry as c_{-alpha,p} =
conj(c_{alpha,p}).  A default run solves one `eigvalsh` stack per slice of
lattice points, never calls `eigvals`, takes one FFT, takes the held-out
determinants in one `det` and evaluates the variety once per slice of
held-out points.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperband import cli, spectra
from hyperband.spectra import BlochVariety, bloch_variety
from hyperband.tight_binding import write_model

from test_variety_rank_grid import deficit_lists, model_with_ranks, shapes
from test_variety_sampling import lattice_points, pointwise_stack


def model_for(shape, seed, deficits):
    genus, dim = shape
    return model_with_ranks(seed, genus, dim, [max(0, dim - k) for k in deficits[: 2 * genus]])


@settings(max_examples=25)
@given(shape=shapes(5), seed=st.integers(0, 2**32 - 1), deficits=deficit_lists)
def test_property_sampling_hamiltonians_are_hermitian(shape, seed, deficits):
    stacks = []

    def spy(stack, hermitian, name):
        stacks.append((stack.copy(), hermitian))
        return solve(stack, hermitian, name)

    solve = spectra._solve_stack
    model = model_for(shape, seed, deficits)
    with mock.patch.object(spectra, "_solve_stack", spy):
        variety = bloch_variety(model)
    assert sum(len(stack) for stack, _ in stacks) == len(lattice_points(model))
    assert len(lattice_points(model)) <= np.prod(variety.coeffs.shape[:-1])
    # relative to the norm bound on the torus, ||M|| + 2 sum ||J_i||: one
    # H(chi) can nearly cancel, and its rounding is that of its terms
    bound = np.linalg.norm(model.onsite) + 2 * sum(np.linalg.norm(h) for h in model.hops)
    for stack, hermitian in stacks:
        assert hermitian is True
        skew = np.linalg.norm(stack - stack.conj().swapaxes(-1, -2), axis=(-2, -1))
        assert np.all(skew <= 1e-15 * bound)


def negated_exponents(coeffs: np.ndarray) -> np.ndarray:
    """coeffs[-alpha, p] at [alpha, p]: FFT index m goes to (-m) mod n per chi axis."""
    for axis, n in enumerate(coeffs.shape[:-1]):
        coeffs = np.take(coeffs, -np.arange(n) % n, axis=axis)
    return coeffs


@settings(max_examples=25)
@given(shape=shapes(5), seed=st.integers(0, 2**32 - 1), deficits=deficit_lists)
def test_property_coefficients_are_conjugate_symmetric(shape, seed, deficits):
    # det(H(1/conj chi) - conj E) = conj det(H(chi) - E), term by term
    coeffs = bloch_variety(model_for(shape, seed, deficits)).coeffs
    peak = np.max(np.abs(coeffs))
    assert np.max(np.abs(negated_exponents(coeffs) - coeffs.conj())) <= 1e-12 * peak


def test_default_run_calls_one_eigvalsh_per_slice_and_one_det(tmp_path, monkeypatch, chunk_budget):
    # g = 2, d = 4 at full rank: 613 lattice points, in three slices at a
    # 128 KiB budget; a held-out point's first two contractions hold
    # 24 (9^3 + 9^2) 5 bytes, so the 20 points are evaluated in two slices
    # at the default budget
    path = tmp_path / "model.json"
    model = model_with_ranks(8, 2, 4, [4] * 4)
    write_model(model, path)
    counts = {"eigvalsh": 0, "eigvals": 0, "det": 0, "fftn": 0}
    sizes = []

    def counting(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    for name in ("eigvalsh", "eigvals", "det"):
        counting(np.linalg, name)
    counting(np.fft, "fftn")
    kernel = BlochVariety._evaluate_points

    def sizing(self, chis, energies):
        sizes.append(len(chis))
        return kernel(self, chis, energies)

    monkeypatch.setattr(BlochVariety, "_evaluate_points", sizing)
    argv = ["bloch-variety", "--model", str(path), "--out", str(tmp_path / "variety.json")]
    assert cli.main(argv) == 0
    n_points = len(lattice_points(model))
    assert n_points == 613
    assert len(spectra._slices(n_points, 32 * 4**2)) == 1
    assert counts == {"eigvalsh": 1, "eigvals": 0, "det": 1, "fftn": 1}
    assert sizes == [10, 10]  # one kernel call per slice of held-out points
    for name in counts:
        counts[name] = 0
    with chunk_budget(1 << 17):
        assert cli.main(argv) == 0
    assert counts == {"eigvalsh": 3, "eigvals": 0, "det": 1, "fftn": 1}


def test_failing_eigvalsh_names_the_sample(tmp_path, capsys, monkeypatch):
    # g = 1, d = 4 at full rank: 41 lattice points, solved as one stack; the
    # solve fails at one of them, found again by solving the stack point by point
    model = model_with_ranks(9, 1, 4, [4, 4])
    path = tmp_path / "model.json"
    write_model(model, path)
    target = pointwise_stack(model, lattice_points(model))[11]
    solve = np.linalg.eigvalsh

    def flaky(a):
        if np.any(np.all(a == target, axis=(-2, -1))):
            raise np.linalg.LinAlgError("forced")
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
    assert cli.main(["bloch-variety", "--model", str(path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: eigensolver failed at lattice point 11: "
        "eigensolver did not converge: forced\n"
    )
