"""Exception types shared across the package.

Input-shaped problems (bad arguments, malformed files, violated preconditions)
raise ValueError/KeyError/OSError as usual; these classes mark failures of a
numerical or structural check performed on otherwise well-formed input (a
residual past its tolerance, a result past the float range), which the CLI
maps to exit 3.  A degenerate spectral curve is data, not a failure.
"""

from __future__ import annotations


class NumericalCheckFailure(RuntimeError):
    """A numerical consistency check failed (residual too large, no convergence)."""


class UnsupportedCoverError(NumericalCheckFailure):
    """The cover is valid but not representable with single-generator hops."""
