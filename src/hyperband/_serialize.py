"""Shared input helpers: integer and tolerance checks, JSON complex scalars and matrices."""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

__all__ = [
    "integer",
    "check_tolerance",
    "complex_to_json",
    "complex_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "canonical_dumps",
]


def integer(value, name: str) -> int:
    """`value` as an int; booleans and fractional numbers raise ValueError."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_tolerance(tol) -> None:
    """Refuse (ValueError) a NaN, infinite or negative tolerance, which would
    switch its check off or fail it at distance 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    if len(pair) != 2:
        raise ValueError(f"expected [re, im], got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def matrix_to_json(m) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    return [[complex_to_json(z) for z in row] for row in m]


def matrix_from_json(rows) -> np.ndarray:
    data = [[complex_from_json(z) for z in row] for row in rows]
    m = np.array(data, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a matrix (nested lists)")
    return m


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
