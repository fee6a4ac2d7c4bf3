"""Tight-binding models on genus-g translation groups and their Bloch Hamiltonians.

A model is a finite cell of d states with a Hermitian on-site matrix M and one
d x d hop matrix J_gamma per group generator (hops along single generators
only; longer-range couplings belong to a larger cell).  Evaluating at an
abelian momentum chi gives

    H(chi) = M + sum_i  chi_i J_i + chi_i^{-1} J_i^dagger

and at a rank-n nonabelian momentum rho

    H(rho) = M (x) I_n + sum_i  J_i (x) rho_i + J_i^dagger (x) rho_i^{-1}

with Kronecker factors ordered (cell state) (x) (representation space).  At a
monomial momentum (the kind covers induce: one nonzero per row, stored as
permutations and phases) the same sum is assembled without Kronecker
products: each d x d block at a sheet pair where I, some rho_i or some
rho_i^{-1} is nonzero -- at most (4g + 1) N of the N^2 pairs -- is replayed
with the Kronecker sum's own products and additions, and every other pair
gets the one d x d pattern of signed zeros the sum leaves there, so the
matrix equals the Kronecker route's byte for byte, zeros' signs included.
`_place_blocks` (fill with a zero pattern, scatter d x d blocks by sheet
pair) also assembles the cover supercells of `covers_quivers`.

Floating-point contract: one kernel, `_assemble`, builds every abelian H(chi)
for `bloch_abelian`, `spectra.sweep`, `spectra.bloch_variety` and
`covers_quivers.reassemble` (on a quiver's dense layout).  It adds one
generator pair chi_i J_i + chi_i^{-1} J_i^dagger per step, with the reciprocals
it is given (in `bloch_abelian`, the ones stored on the momentum), whether
the coefficients are one momentum's scalars, a batch's columns or a product
grid's axes, so every entry gets the same operations in each form.  So
`adjoint_momentum` is an exact involution on Hamiltonians: H(adjoint(chi))
equals H(chi)^dagger entry-for-entry in floating point, not merely up to rounding.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ._serialize import (
    canonical_dumps, document, indented_dumps, integer, matrix_from_json, matrix_to_json, read_json,
)
from .momenta import AbelianMomentum, NonabelianMomentum
from .surface_group import SurfaceGroup, make_surface_group

#: largest tolerated anti-Hermitian part of a supplied on-site matrix
TOL_HERMITIAN = 1e-8


class TightBindingModel:
    """Cell data (on-site matrix + one hop matrix per generator) over a group."""

    def __init__(self, group: SurfaceGroup, onsite, hops):
        if not isinstance(group, SurfaceGroup):
            group = make_surface_group(group)
        onsite = np.array(onsite, dtype=complex)
        if onsite.ndim != 2 or onsite.shape[0] != onsite.shape[1]:
            raise ValueError("onsite matrix must be square")
        if onsite.size == 0:
            raise ValueError(f"a model needs at least one state, got a {onsite.shape} onsite matrix")
        d = onsite.shape[0]
        hops = tuple(np.array(h, dtype=complex) for h in hops)
        if len(hops) != 2 * group.genus:
            raise ValueError(
                f"need {2 * group.genus} hop matrices for genus {group.genus}, got {len(hops)}"
            )
        for h in hops:
            if h.shape != (d, d):
                raise ValueError("hop matrices must match the onsite matrix shape")
            if not np.all(np.isfinite(h)):
                raise ValueError("hop matrices must be finite")
        if not np.all(np.isfinite(onsite)):
            raise ValueError("onsite matrix must be finite")
        # ||M - M^dagger|| > TOL max(1, ||M||) is decided on M 2^-e, e >= 0 the
        # least that brings every real and imaginary part below 1, so no norm
        # overflows; scaling by a power of two is exact, so the test and the
        # residual are unchanged wherever the unscaled norms are finite
        e = max(int(np.frexp(np.max(np.abs(onsite.view(float))))[1]), 0)
        scaled = np.ldexp(onsite.view(float), -e).view(complex)
        scaled_residual = float(np.linalg.norm(scaled - scaled.conj().T))
        try:
            residual = math.ldexp(scaled_residual, e)
        except OverflowError:  # a residual past the float range
            residual = math.inf
        if scaled_residual > TOL_HERMITIAN * max(math.ldexp(1.0, -e), float(np.linalg.norm(scaled))):
            raise ValueError(
                f"onsite matrix is not Hermitian (residual {residual:.3e}); "
                "symmetrization only absorbs residuals below "
                f"{TOL_HERMITIAN:.0e} relative"
            )
        # (M + M^dagger) / 2 can overflow only where a part reaches 2^1023
        dagger = onsite.conj().T
        symmetrized = _symmetrized(onsite, dagger) if e > 1023 else (onsite + dagger) / 2.0
        symmetrized.setflags(write=False)
        self.group = group
        self.dim = d
        self.onsite = symmetrized
        self.onsite_residual = residual
        self.hops = hops
        self.hops_dagger = tuple(h.conj().T for h in hops)
        for h in self.hops + self.hops_dagger:
            h.setflags(write=False)

    @property
    def genus(self) -> int:
        return self.group.genus

    @property
    def content_hash(self) -> str:
        """First 16 hex digits of the sha256 of the canonical JSON text."""
        text = canonical_dumps(model_to_json(self))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def __repr__(self):
        return (
            f"TightBindingModel(genus={self.genus}, dim={self.dim}, "
            f"hash={self.content_hash})"
        )


def _symmetrized(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a + b) / 2, the on-site symmetrization with b = a^dagger, finite.

    Only where a part reaches 2^1023 can a + b overflow; those entries are
    a / 2 + b / 2 instead.  Halving first everywhere would move subnormal
    bits (5e-324 / 2 is 0), so every entry whose (a + b) / 2 is finite keeps
    those bits, and callers may skip this for the plain formula where no
    part reaches 2^1023.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half = (a + b) / 2.0
    lost = ~np.isfinite(half)
    if lost.any():
        half[lost] = a[lost] / 2.0 + b[lost] / 2.0
    return half


@dataclass(frozen=True)
class BlochHamiltonian:
    """An assembled Hamiltonian, and whether its momentum is unitary (so it is Hermitian)."""

    matrix: np.ndarray
    hermitian: bool

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def bloch_abelian(model: TightBindingModel, momentum: AbelianMomentum) -> BlochHamiltonian:
    """H(chi) = M + sum_i chi_i J_i + chi_i^{-1} J_i^dagger."""
    if not isinstance(momentum, AbelianMomentum):
        raise TypeError("bloch_abelian expects an AbelianMomentum")
    if momentum.genus != model.genus:
        raise ValueError(f"genus mismatch: model {model.genus}, momentum {momentum.genus}")
    H = _assemble(model, momentum.chi, momentum.chi_inv)
    return BlochHamiltonian(H, momentum.unitary)


def _assemble(model, chi, chi_inv) -> np.ndarray:
    """M + sum_i chi[i] J_i + chi_inv[i] J_i^dagger, of shape lead + (d, d).

    `chi` and `chi_inv` hold one coefficient per generator: a scalar, or an
    array shaped lead_i + (1, 1), the lead_i broadcasting to `lead`.  A
    momentum passes its (2g,) entries, a batch its (P, 2g) columns as (P, 1, 1)
    views, a product grid its axes shaped to broadcast, so each hop term is
    formed once per axis value.  The terms are added to M left to right, the
    same operations for every entry in each form, provided no coefficient is
    a one-entry array: numpy rounds a complex product with a scalar (0-d)
    operand as its vector loops do, fusing the multiply-add, but one with a
    one-entry array without, which shows at d = 1.  So an axis range of one
    index is passed as its 0-d value.  `model` is a `TightBindingModel` or
    anything with its genus, onsite, hops and hops_dagger fields (a quiver's
    layout).
    """
    H = model.onsite
    for i in range(2 * model.genus):
        H = H + (chi[i] * model.hops[i] + chi_inv[i] * model.hops_dagger[i])
    return H


def bloch_nonabelian(model: TightBindingModel, momentum: NonabelianMomentum) -> BlochHamiltonian:
    """H(rho) = M (x) I + sum_i J_i (x) rho_i + J_i^dagger (x) rho_i^{-1}."""
    if isinstance(momentum, AbelianMomentum):
        raise TypeError("bloch_nonabelian expects a NonabelianMomentum; use bloch_abelian")
    if momentum.genus != model.genus:
        raise ValueError(f"genus mismatch: model {model.genus}, momentum {momentum.genus}")
    if momentum.monomial is not None:
        targets, forward, backward = momentum.monomial
        H = _assemble_monomial(model, targets, forward[None], backward[None])[0]
        return BlochHamiltonian(H, momentum.unitary)
    n = momentum.rank
    H = np.kron(model.onsite, np.eye(n, dtype=complex))
    for i in range(2 * model.genus):
        H += np.kron(model.hops[i], momentum.rho[i]) + np.kron(
            model.hops_dagger[i], momentum.rho_inv[i]
        )
    return BlochHamiltonian(H, momentum.unitary)


def _assemble_monomial(model: TightBindingModel, targets, forward, backward) -> np.ndarray:
    """The Kronecker sums of `bloch_nonabelian` at T monomial momenta, bit for bit.

    `targets` (2g, n) is shared, `forward` and `backward` are (T, 2g, n) (see
    `NonabelianMomentum`), the result is (T, d n, d n).  Entry ((a, s), (b, t))
    of a Kronecker sum is M_ab I_st, then one J_ab rho_st + J^dagger_ab rho^-1_st
    step per generator.  Only the sheet pairs where I, a rho or a rho^-1 is
    nonzero are replayed so; at every other pair each factor is +0, and the
    same steps leave one d x d pattern of signed zeros, replayed once as an
    extra pair with all weights zero.
    """
    n = targets.shape[-1]
    sheets = np.arange(n)
    keys = np.concatenate([sheets * (n + 1), (sheets * n + targets).ravel(), (targets * n + sheets).ravel()])
    # return_inverse keeps np.unique off its numpy.ma import
    rows, cols = np.divmod(np.unique(keys, return_inverse=True)[0], n)
    # weights[:, k, p]: I, then rho_i and rho_i^-1 per generator, at pair p
    weights = np.zeros((len(forward), 1 + 2 * len(targets), rows.size + 1, 1, 1), dtype=complex)
    weights[:, 0, :-1, 0, 0] = rows == cols
    weights[:, 1::2, :-1, 0, 0] = np.where(targets[:, rows] == cols, forward[:, :, rows], 0.0)
    weights[:, 2::2, :-1, 0, 0] = np.where(targets[:, cols] == rows, backward[:, :, cols], 0.0)
    blocks = model.onsite * weights[:, 0]
    for i in range(2 * model.genus):
        blocks += model.hops[i] * weights[:, 1 + 2 * i] + model.hops_dagger[i] * weights[:, 2 + 2 * i]
    return _place_blocks(blocks[:, -1], rows, cols, blocks[:, :-1], n)


def _place_blocks(zero: np.ndarray, rows, cols, blocks: np.ndarray, n: int) -> np.ndarray:
    """lead + (d n, d n) matrices: `blocks[..., k, :, :]` at sheet pair (rows[k], cols[k]).

    States are ordered (cell state) major, (sheet) minor, the Kronecker
    convention of `bloch_nonabelian`; `zero`, lead + (d, d), is the pattern
    (of signed zeros, typically) every sheet pair without a block holds.
    """
    *lead, d, _ = zero.shape
    H = np.empty((*lead, d, n, d, n), dtype=complex)
    H[...] = zero[..., :, None, :, None]
    # the pair axis of an index split by a slice comes first
    H[..., :, rows, :, cols] = np.moveaxis(blocks, -3, 0)
    return H.reshape(*lead, d * n, d * n)


def adjoint_momentum(momentum: AbelianMomentum) -> AbelianMomentum:
    """The momentum chi' with H(chi') = H(chi)^dagger, exactly.

    chi'_i = conj(chi_i)^{-1}.  Both the entries and their reciprocals are
    formed by conjugating the stored arrays (conjugation is exact in IEEE
    arithmetic), so assembling at chi' reproduces H(chi)^dagger bit-for-bit
    up to the sign of zeros.  Involution: adjoint(adjoint(chi)) == chi.
    """
    return AbelianMomentum(np.conj(momentum.chi_inv), np.conj(momentum.chi))


def model_to_json(model: TightBindingModel) -> dict:
    return {
        "hyperband_model": 1,
        "genus": model.genus,
        "dim": model.dim,
        "onsite": matrix_to_json(model.onsite),
        "hops": [matrix_to_json(h) for h in model.hops],
    }


def model_from_json(data: dict) -> TightBindingModel:
    document(data, "model", "genus", "dim", "onsite", "hops")
    dim = integer(data["dim"], "dim")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    onsite = matrix_from_json(data["onsite"], "onsite")
    hops = [matrix_from_json(h, "hops") for h in data["hops"]]
    if onsite.shape != (dim, dim):
        raise ValueError(f"onsite shape {onsite.shape} does not match dim={dim}")
    return TightBindingModel(data["genus"], onsite, hops)


def read_model(path) -> TightBindingModel:
    return model_from_json(read_json(path))


def write_model(model: TightBindingModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(indented_dumps(model_to_json(model)))
