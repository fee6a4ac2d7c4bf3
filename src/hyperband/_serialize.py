"""The one reader of outside input (JSON files, documents, counts, entries), the
one size rule for the arrays counts ask for, tolerance checks, JSON text."""

from __future__ import annotations

import json
import math
import numbers

import numpy as np


def integer(value, name: str) -> int:
    """`value` as an int; booleans and fractional numbers raise ValueError."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


#: largest accepted estimate, in bytes, of the arrays one call builds
_MAX_ARRAY_BYTES = 1 << 30


def refuse_oversized(estimate, subject: str, arrays: str, *counts: int) -> None:
    """Refuse with ValueError, before they are allocated, arrays of `estimate`
    bytes past `_MAX_ARRAY_BYTES`.  `estimate` is an exact int of any size, or
    a float (inf and nan are refused).  The message gives it in GB below 10^24
    bytes and fills the `{}` fields of `arrays` with the ints `counts`, in full
    below 10^18; larger values appear as powers of ten, never converted whole
    to a float or a string."""
    if estimate <= _MAX_ARRAY_BYTES:
        return
    power = lambda n: f"about 10^{round(math.log10(n))}"
    if estimate < 10**24:
        size = f"about {estimate / 1e9:.1f} GB"
    elif estimate < math.inf:
        size = power(estimate) + " bytes"
    else:  # inf or nan
        size = "an unbounded size"
    shown = [str(n) if n < 10**18 else power(n) for n in counts]
    raise ValueError(
        f"{subject} too large: {size} of {arrays.format(*shown)}; "
        f"the limit is {_MAX_ARRAY_BYTES / 1e9:.1f} GB"
    )


def check_tolerance(tol, name: str = "tol") -> None:
    """Refuse (ValueError) a NaN, infinite or negative tolerance, which would
    switch its check off or fail it at distance 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {tol!r}")


def read_json(path):
    """The JSON value in the UTF-8 file at `path`; bad JSON raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def document(data, kind: str, *keys: str) -> dict:
    """`data` if it is an object marked `hyperband_<kind>: 1` holding `keys`, else ValueError."""
    marker = f"hyperband_{kind}"
    if not isinstance(data, dict) or data.get(marker) != 1 or data[marker] is True:
        raise ValueError(f"not a {kind} document (expected {marker}: 1)")
    for key in keys:
        if key not in data:
            raise ValueError(f"{kind} document has no {key!r}")
    return data


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(value, name: str) -> complex:
    """A JSON number or [re, im] pair of them (no booleans, no strings) as a
    complex, else ValueError; NaN and infinity pass, for the caller to refuse."""
    re, im = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    numbers = isinstance(re, (int, float)) and isinstance(im, (int, float))
    if numbers and not (isinstance(re, bool) or isinstance(im, bool)):
        try:
            return complex(float(re), float(im))
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{name} must be a number or [re, im] in the float range, got {value!r}")


def matrix_to_json(m) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    return [[complex_to_json(z) for z in row] for row in m]


def matrix_from_json(rows, name: str) -> np.ndarray:
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows)):
        raise ValueError(f"{name} must be a matrix (nested lists, rows of one length)")
    entry = f"an entry in {name}"
    return np.array([[complex_from_json(z, entry) for z in row] for row in rows], dtype=complex)


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


_escape = json.encoder.encode_basestring_ascii


class Rows:
    """A list of JSON objects held as columns, for `indented_dumps` to write
    one column at a time.  Each keyword is a field; its value is a 1-d integer
    or float array (one number per object) or a list of them (a list of
    numbers per object).  There is one column at least, all of one length."""

    def __init__(self, **fields):
        self.fields = fields


def _rows_text(fields: dict, newline: str) -> str:
    """The text `_text` makes of the list of objects `fields` holds as columns."""
    inner, key, entry = newline + "  ", newline + "    ", newline + "      "
    # each column follows its fixed text, which closes the field before it
    fixed, columns, text = [], [], "{"
    for name, value in sorted(fields.items()):
        text += key + _escape(name) + ": "
        if isinstance(value, list):
            text += "[" + entry if value else "[]"
            for column in value:
                fixed.append(text)
                columns.append(column)
                text = "," + entry
            text = (key + "]" if value else text) + ","
        else:
            fixed.append(text)
            columns.append(value)
            text = ","
    n = len(columns[0]) if columns else -1
    if n < 0 or any(c.ndim != 1 or len(c) != n or c.dtype.kind not in "iuf" for c in columns):
        raise TypeError("Rows needs 1-d integer or float columns, one at least, all of one length")
    if any(c.dtype.kind == "f" and not np.all(np.isfinite(c)) for c in columns):
        raise ValueError("Rows columns hold non-finite numbers")
    width = 2 * len(columns)
    if not n:
        return "[]"
    closing = text[:-1] + inner + "}"
    parts = [None] * (width * n)
    for k, (before, column) in enumerate(zip(fixed, columns)):
        parts[2 * k::width] = [before] * n
        parts[2 * k + 1::width] = map(repr, column.tolist())
    parts[width::width] = [closing + "," + inner + fixed[0]] * (n - 1)
    return "[" + inner + "".join(parts) + closing + newline + "]"


def _text(obj, newline: str) -> str:
    """The JSON text of `obj`, its later lines led by `newline` ("\n" and the indent)."""
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [_escape(key) + ": " + _text(value, inner) for key, value in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        # all finite floats, or all ints: each item's text is its repr, made in C
        if all(map(float.__instancecheck__, obj)) and all(map(math.isfinite, obj)):
            items = list(map(float.__repr__, obj))
        elif all(map(int.__instancecheck__, obj)) and not any(map(bool.__instancecheck__, obj)):
            items = list(map(int.__repr__, obj))
        else:
            items = [_text(item, inner) for item in obj]
        brackets = "[]"
    elif isinstance(obj, str):
        return _escape(obj)
    elif obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    elif isinstance(obj, int):
        return int.__repr__(obj)
    elif isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    elif isinstance(obj, Rows):
        return _rows_text(obj.fields, newline)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def indented_dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\n"`, byte for byte, for
    dicts with str keys, lists, tuples, str, int, float (numpy.float64 too),
    bool and None, and `Rows` as the list of its objects; anything else raises
    TypeError.  Unlike `json`'s indented writer, it formats a list of only
    finite floats or only ints in C, and a `Rows` column by column."""
    return _text(obj, "\n") + "\n"
