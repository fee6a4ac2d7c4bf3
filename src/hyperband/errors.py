"""Exception types shared across the package.

Input-shaped problems (bad arguments, malformed files, violated preconditions)
raise ValueError/KeyError/OSError as usual; these classes mark failures of a
numerical or structural check performed on otherwise well-formed input.  The
CLI maps them to a distinct exit code.
"""

from __future__ import annotations


class NumericalCheckFailure(RuntimeError):
    """A numerical consistency check failed (residual too large, no convergence)."""


class UnsupportedCoverError(NumericalCheckFailure):
    """The cover is valid but not representable with single-generator hops."""


class EverywhereSingularError(NumericalCheckFailure):
    """The discriminant vanishes identically; there is no reduced branch divisor."""
