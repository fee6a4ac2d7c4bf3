"""Momenta for genus-g translation groups.

Abelian momenta are points of the complexified Brillouin torus (C*)^{2g}: one
nonzero complex number per generator.  Nonabelian momenta assign an invertible
n x n matrix to each generator such that the surface relator maps to the
identity.  Unitarity is a property, not a requirement: non-unitary momenta are
first-class citizens (that is the point of complexifying).

An AbelianMomentum stores the reciprocals of its entries alongside the entries
themselves.  Downstream Hamiltonian assembly always uses the stored
reciprocals, which is what makes the adjoint-momentum identity hold exactly in
floating point (see `tight_binding.adjoint_momentum`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .surface_group import _walk, make_surface_group

#: residual threshold for "the relator maps to the identity"
TOL_RELATOR = 1e-9
#: residual threshold for "this momentum is unitary"
TOL_UNITARY = 1e-9
#: relative singular-value cutoff for commutant dimension counts
COMMUTANT_CUTOFF = 1e-8


@dataclass(frozen=True)
class AbelianMomentum:
    """A point of (C*)^{2g}: one nonzero complex entry per generator."""

    chi: np.ndarray
    chi_inv: np.ndarray = None

    def __post_init__(self):
        chi = np.array(self.chi, dtype=complex).reshape(-1)
        if chi.size == 0 or chi.size % 2 != 0:
            raise ValueError(f"need 2g entries for some g >= 1, got {chi.size}")
        if not np.all(np.isfinite(chi)):
            raise ValueError("momentum entries must be finite")
        if np.any(chi == 0):
            raise ValueError("momentum entries must be nonzero (points of (C*)^{2g})")
        if self.chi_inv is None:
            chi_inv = 1.0 / chi
        else:
            chi_inv = np.array(self.chi_inv, dtype=complex).reshape(-1)
            if chi_inv.shape != chi.shape:
                raise ValueError("chi_inv must match chi in length")
            if not (np.max(np.abs(chi * chi_inv - 1.0)) <= 1e-9):
                raise ValueError("chi_inv entries are not reciprocals of chi")
        chi.setflags(write=False)
        chi_inv.setflags(write=False)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "chi_inv", chi_inv)

    @property
    def genus(self) -> int:
        return self.chi.size // 2

    @property
    def unitary(self) -> bool:
        return bool(_unitarity_residual(self) <= TOL_UNITARY)


class NonabelianMomentum:
    """Invertible n x n matrices, one per generator, with the relator -> identity.

    Given either as dense matrices `rho`, with `rho_inv` supplied by
    constructors that know exact inverses and computed numerically otherwise,
    or as `monomial` data, the form covers induce: three (2g, n) arrays
    (targets, forward, backward), row i for generator i+1, meaning
    rho_i[s, targets[i, s]] = forward[i, s] and
    rho_i^-1[targets[i, s], s] = backward[i, s], every other entry zero.  A
    monomial momentum is checked (finite, inverses, relator) and assembled
    by `bloch_nonabelian` through permutations and phases alone, by the
    routines cover checks run on many at once; its dense
    `rho` and `rho_inv` are built when first read.  Hamiltonian assembly
    always uses the stored inverses.  Instances are immutable.
    """

    def __init__(self, rho=None, rho_inv=None, monomial=None):
        if monomial is None:
            mats, invs = _dense_generators(rho, rho_inv)
            n, count = mats[0].shape[0], len(mats)
            self.__dict__.update(rho=mats, rho_inv=invs, monomial=None, genus=count // 2, rank=n)
            res = relator_residual(self)
            if res > TOL_RELATOR:
                raise ValueError(
                    f"the surface relator does not map to the identity "
                    f"(residual {res:.3e} > {TOL_RELATOR:.0e})"
                )
        elif rho is not None or rho_inv is not None:
            raise TypeError("give dense matrices or monomial data, not both")
        else:
            targets = np.array(monomial[0], dtype=np.intp)
            forward, backward = (np.array(a, dtype=complex) for a in monomial[1:])
            if targets.ndim != 2 or not targets.shape == forward.shape == backward.shape:
                raise ValueError("monomial data must be three (2g, n) arrays of one shape")
            _check_count(len(targets), "matrices")
            _monomial_checks(targets, forward, backward)
            for a in (targets, forward, backward):
                a.setflags(write=False)
            count, n = targets.shape
            self.__dict__.update(monomial=(targets, forward, backward), genus=count // 2, rank=n)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @functools.cached_property
    def rho(self) -> tuple:
        targets, forward, _ = self.monomial
        return tuple(_monomial_matrix(np.arange(self.rank), t, f) for t, f in zip(targets, forward))

    @functools.cached_property
    def rho_inv(self) -> tuple:
        targets, _, backward = self.monomial
        return tuple(_monomial_matrix(t, np.arange(self.rank), b) for t, b in zip(targets, backward))

    @property
    def unitary(self) -> bool:
        return bool(_unitarity_residual(self) <= TOL_UNITARY)


def _monomial_matrix(rows, cols, values) -> np.ndarray:
    """Dense read-only matrix holding `values` at (rows, cols), zero elsewhere."""
    m = np.zeros((rows.size, rows.size), dtype=complex)
    m[rows, cols] = values
    m.setflags(write=False)
    return m


def _check_count(count: int, what: str) -> None:
    if count == 0 or count % 2 != 0:
        raise ValueError(f"need 2g {what} for some g >= 1, got {count}")


def _dense_generators(rho, rho_inv) -> tuple:
    """(matrices, inverses) validated as square, finite and mutually inverse."""
    mats = tuple(np.array(m, dtype=complex) for m in rho)
    _check_count(len(mats), "matrices")
    n = mats[0].shape[0] if mats[0].ndim == 2 else -1
    for m in mats:
        if m.ndim != 2 or m.shape != (n, n):
            raise ValueError("all generator matrices must be square of one size")
        if not np.all(np.isfinite(m)):
            raise ValueError("generator matrices must be finite")
    if rho_inv is None:
        invs = []
        for idx, m in enumerate(mats):
            try:
                invs.append(np.linalg.inv(m))
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"generator matrix {idx + 1} is singular") from exc
        invs = tuple(invs)
    else:
        invs = tuple(np.array(m, dtype=complex) for m in rho_inv)
        if len(invs) != len(mats):
            raise ValueError("rho_inv must match rho in length")
    for idx, (m, inv) in enumerate(zip(mats, invs)):
        if inv.shape != (n, n):
            raise ValueError("inverse matrices must match the generator shape")
        if not np.all(np.isfinite(inv)) or np.linalg.norm(inv @ m - np.eye(n)) > 1e-6:
            if rho_inv is None:  # the inverse computed here is not one
                raise ValueError(f"generator matrix {idx + 1} is numerically singular")
            if not np.all(np.isfinite(inv)):
                raise ValueError("inverse matrices must be finite")
            raise ValueError(f"the inverse given for generator matrix {idx + 1} does not invert it")
    for m in mats + invs:
        m.setflags(write=False)
    return mats, invs


def _monomial_checks(targets, forward, backward, first: int = 0) -> None:
    """The checks dense matrices get, on phases lead + (2g, n), lead () or (T,).

    `targets` (2g, n) is shared.  Phases must be finite; each row of
    targets a permutation; rho_inv rho = I to 1e-6 per generator, for
    monomial matrices forward * backward = 1; and the relator's image must
    be I within TOL_RELATOR.  A failure raises ValueError; with a trial axis
    it names the first failing trial, counted from `first`.
    """

    def refuse(trial, message):
        raise ValueError(f"trial {first + trial}: {message}" if forward.ndim > 2 else message)

    finite = np.isfinite(forward).all(axis=(-2, -1)) & np.isfinite(backward).all(axis=(-2, -1))
    if not finite.all():
        refuse(np.argmin(finite), "generator matrices must be finite")
    scattered = np.any(np.sort(targets, axis=-1) != np.arange(targets.shape[-1]), axis=-1)
    if scattered.any():  # shared by every trial
        gen = int(np.argmax(scattered))
        refuse(0, f"the sheet targets of generator matrix {gen + 1} are not a permutation")
    uninverted = np.linalg.norm(forward * backward - 1.0, axis=-1) > 1e-6
    if uninverted.any():
        trial, gen = divmod(int(np.argmax(uninverted)), len(targets))
        refuse(trial, f"the inverse given for generator matrix {gen + 1} does not invert it")
    residual = np.reshape(_monomial_relator(targets, forward, backward), -1)
    if (residual > TOL_RELATOR).any():
        trial = int(np.argmax(residual > TOL_RELATOR))
        refuse(
            trial,
            f"the surface relator does not map to the identity "
            f"(residual {residual[trial]:.3e} > {TOL_RELATOR:.0e})",
        )


def _monomial_relator(targets, forward, backward) -> np.ndarray:
    """`relator_residual` of monomial phases lead + (2g, n), one per trial."""
    n = targets.shape[-1]
    relator = make_surface_group(len(targets) // 2).relator()
    steps, end = _walk(relator, targets, np.argsort(targets, axis=-1))
    phase = np.ones(forward.shape[:-2] + (n,), dtype=complex)
    for gen, exp, crossed in steps:
        phase = phase * (forward if exp == 1 else backward)[..., gen - 1, crossed]
    fixed = end == np.arange(n)
    return np.sqrt(np.sum(np.abs(phase - fixed) ** 2 + ~fixed, axis=-1))


def _monomial_unitarity(forward) -> np.ndarray:
    """Unitarity residual per trial: rho rho^dagger of a monomial matrix is diag(|forward|^2)."""
    return np.max(np.linalg.norm(np.abs(forward) ** 2 - 1.0, axis=-1), axis=-1)


def _as_matrices(momentum):
    if isinstance(momentum, AbelianMomentum):
        return [np.array([[z]]) for z in momentum.chi]
    return list(momentum.rho)


def relator_residual(momentum) -> float:
    """Frobenius distance of the relator's image from the identity.

    Inverse letters read the stored inverses (`rho_inv`, or `chi_inv` of a
    character), the ones assembly uses, so no matrix is inverted again.  A
    monomial momentum composes its permutations and multiplies its phases:
    the image is rho[s, sheets[s]] = phase[s].
    """
    if isinstance(momentum, NonabelianMomentum) and momentum.monomial is not None:
        return float(_monomial_relator(*momentum.monomial))
    if isinstance(momentum, AbelianMomentum):
        mats = _as_matrices(momentum)
        invs = [np.array([[z]]) for z in momentum.chi_inv]
    else:
        mats, invs = momentum.rho, momentum.rho_inv
    image = np.eye(mats[0].shape[0], dtype=complex)
    for gen, exp in make_surface_group(momentum.genus).relator().letters:
        image = image @ (mats[gen - 1] if exp == 1 else invs[gen - 1])
    return float(np.linalg.norm(image - np.eye(image.shape[0])))


def _unitarity_residual(momentum) -> float:
    if isinstance(momentum, AbelianMomentum):
        return float(np.max(np.abs(np.abs(momentum.chi) - 1.0)))
    if momentum.monomial is not None:
        return float(_monomial_unitarity(momentum.monomial[1]))
    n = momentum.rank
    return float(max(np.linalg.norm(m @ m.conj().T - np.eye(n)) for m in momentum.rho))


def commutant_dimension(momentum) -> int:
    """dim of {X : X rho(gamma_i) = rho(gamma_i) X for all i}, via SVD nullspace.

    Stacks the linear maps X -> [X, rho_i] in vectorized form
    (rho_i^T (x) I - I (x) rho_i) and counts singular values below
    COMMUTANT_CUTOFF relative to the largest.  A momentum is irreducible
    exactly when the commutant is the scalars (dimension 1).
    """
    mats = _as_matrices(momentum)
    n = mats[0].shape[0]
    eye = np.eye(n)
    blocks = [np.kron(m.T, eye) - np.kron(eye, m) for m in mats]
    stacked = np.vstack(blocks)
    svals = np.linalg.svd(stacked, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return n * n
    return int(np.sum(svals <= COMMUTANT_CUTOFF * svals[0]))


def euclidean_character(k, tau) -> AbelianMomentum:
    """The genus-1 character of wave vector k on the torus with periods (1, tau).

    `k` is either a single complex number, read as the real wave vector
    (Re k, Im k), or a pair (k_x, k_y) whose components may themselves be
    complex (complexified momenta).  The character value on a lattice vector
    gamma = (g_x, g_y) is exp(2 pi i (k_x g_x + k_y g_y)), extended bilinearly,
    and the two generators are gamma_1 = (1, 0), gamma_2 = (Re tau, Im tau).
    """
    tau = complex(tau)
    if tau.imag == 0:
        raise ValueError("tau must have nonzero imaginary part")
    if isinstance(k, (tuple, list, np.ndarray)):
        if len(k) != 2:
            raise ValueError("k must be a complex number or a pair (k_x, k_y)")
        kx, ky = complex(k[0]), complex(k[1])
    else:
        k = complex(k)
        kx, ky = complex(k.real), complex(k.imag)
    two_pi_i = 2j * np.pi
    chi1 = np.exp(two_pi_i * kx)
    chi2 = np.exp(two_pi_i * (kx * tau.real + ky * tau.imag))
    return AbelianMomentum(np.array([chi1, chi2]))


def direct_sum(first, second) -> NonabelianMomentum:
    """Block-diagonal sum of two momenta on the same group."""
    a = abelian_to_nonabelian(first) if isinstance(first, AbelianMomentum) else first
    b = abelian_to_nonabelian(second) if isinstance(second, AbelianMomentum) else second
    if not isinstance(a, NonabelianMomentum) or not isinstance(b, NonabelianMomentum):
        raise TypeError("direct_sum expects momenta")
    if a.genus != b.genus:
        raise ValueError(f"genus mismatch: {a.genus} vs {b.genus}")
    na, nb = a.rank, b.rank

    def block(ma, mb):
        m = np.zeros((na + nb, na + nb), dtype=complex)
        m[:na, :na] = ma
        m[na:, na:] = mb
        return m

    mats = tuple(block(ma, mb) for ma, mb in zip(a.rho, b.rho))
    invs = tuple(block(ma, mb) for ma, mb in zip(a.rho_inv, b.rho_inv))
    return NonabelianMomentum(mats, invs)


def abelian_to_nonabelian(momentum: AbelianMomentum) -> NonabelianMomentum:
    """View a character as a rank-1 matrix momentum."""
    return NonabelianMomentum(
        tuple(np.array([[z]]) for z in momentum.chi),
        tuple(np.array([[w]]) for w in momentum.chi_inv),
    )


def split_complex(momentum: AbelianMomentum):
    """Polar split chi = (unitary part) * (positive moduli).

    Returns (AbelianMomentum with unit-modulus entries, ndarray of moduli).
    The product of the parts recovers chi to a couple of ulp.
    """
    moduli = np.abs(momentum.chi)
    phases = momentum.chi / moduli
    return AbelianMomentum(phases), moduli
