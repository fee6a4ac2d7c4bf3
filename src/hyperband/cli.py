"""Command-line interface.

Subcommands: bands, bloch-variety, euclidean, higgs-toy, spectral-curve,
cover-check.  Exit codes: 0 success, 2 bad input (arguments, files, domain
violations), 3 a numerical or structural check failed.  Every diagnostic goes
to stderr; data goes to --out (or stdout).

A JSON config file (--config) may supply any long option of the subcommand by
its name, e.g. {"model": "cell.json", "grid": "16,16"}, and no other key;
explicit flags win over the config, which wins over built-in defaults.  The
same inputs, config, and seed produce byte-identical files for a fixed BLAS
thread count.  Threaded eigensolvers round differently, and cover-check
reports the trial with the largest spectral distance, a rounding-level
figure, so its chosen trial can change with the thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import covers_quivers, euclidean, higgs_toy, spectra, spectral_curve, tight_binding
from .errors import NumericalCheckFailure
from ._serialize import complex_to_json, matrix_to_json

__all__ = ["main"]


# ---------------------------------------------------------------------------
# option parsing helpers (config values and flag strings share these)
# ---------------------------------------------------------------------------


def _parse_numbers(value, name: str, kinds: str, usage: str, sep: str = ",") -> list:
    """The numbers an option holds, given as a flag string or a config value.

    `kinds` has one letter per number: "f" reads a float, "i" an integer.
    "i*" reads any count of integers, and "ff?" a pair whose second float a
    flag string or a lone JSON number may leave out (it reads 0.0).  A JSON
    list must hold every number, as numbers or numeric strings.  Booleans,
    and numbers with a fractional part where an integer is read, are
    refused, so a config value never reads as a different grid than the one
    written.
    """
    error = ValueError(f"cannot read {name}={value!r} as {usage}")
    listed = isinstance(value, (list, tuple))
    if isinstance(value, str):
        parts = value.split(sep)
    elif listed:
        parts = list(value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        parts = [value]
    else:
        raise error
    letters = kinds.rstrip("*?")
    if kinds.endswith("*"):
        letters *= len(parts)
    elif kinds.endswith("?") and not listed and len(parts) == len(letters) - 1:
        parts.append(0.0)
    if len(parts) != len(letters):
        raise error

    def number(part, kind):
        if isinstance(part, bool) or (kind == "i" and not isinstance(part, str) and part % 1):
            raise ValueError(part)
        return float(part) if kind == "f" else int(part)

    try:
        return [number(part, kind) for part, kind in zip(parts, letters)]
    except (TypeError, ValueError, OverflowError):
        raise error from None


_COMPLEX = ("ff?", "a complex number (use RE or RE,IM)")
_NUMBER = ("f", "a number")
_INTEGER = ("i", "an integer")


class _Options:
    """Merged view of command-line flags, config file entries, and defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._config = {}
        config_path = self._args.get("config")
        if config_path:
            with open(config_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("config file must hold a JSON object")
            known = sorted(set(self._args) - {"command", "func", "config"})
            unknown = [key for key in data if key not in known]
            if unknown:
                raise ValueError(f"unknown config key {unknown[0]!r}; known: {', '.join(known)}")
            self._config = data

    def get(self, name: str, default=None):
        value = self._args.get(name)
        if value is not None:
            return value
        if name in self._config:
            return self._config[name]
        return default

    def require(self, name: str):
        value = self.get(name)
        if value is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
        return value


@contextlib.contextmanager
def _output(out_path):
    """The handle data goes to: stdout for no path or "-", else the file."""
    if out_path is None or out_path == "-":
        yield sys.stdout
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh


def _write_text(text: str, out_path) -> None:
    with _output(out_path) as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bands(args) -> int:
    opts = _Options(args)
    model = tight_binding.read_model(opts.require("model"))
    counts = _parse_numbers(opts.get("grid", "8"), "grid", "i*", "grid counts (use N or N,N,...)")
    region = opts.get("region")
    if region is None:
        grid = spectra.unitary_grid(model.genus, counts)
    else:
        lo, hi, nm = _parse_numbers(
            region, "region", "ffi", "a log-modulus region (use LO:HI:COUNT)", sep=":"
        )
        grid = spectra.complex_region_grid(model.genus, counts, (lo, hi), nm)
    bands = spectra.sweep(model, grid)
    with _output(opts.get("out")) as fh:
        spectra.write_bands_csv(bands, fh)
    return 0


def cmd_bloch_variety(args) -> int:
    opts = _Options(args)
    model = tight_binding.read_model(opts.require("model"))
    (tol,) = _parse_numbers(opts.get("tol", 1e-8), "tol", *_NUMBER)
    (seed,) = _parse_numbers(opts.get("seed", 0), "seed", *_INTEGER)
    variety = spectra.bloch_variety(model, tol=tol, seed=seed)
    _write_text(_dump_json(variety.to_json()), opts.get("out"))
    return 0


def cmd_euclidean(args) -> int:
    opts = _Options(args)
    tau = complex(*_parse_numbers(opts.require("tau"), "tau", *_COMPLEX))
    kx, ky = _parse_numbers(opts.get("k", "0,0"), "k", "ff?", "a vector (use X,Y)")
    (n_bands,) = _parse_numbers(opts.get("bands", 8), "bands", *_INTEGER)
    lattice = euclidean.EuclideanLattice(tau)
    recip = euclidean.reciprocal(lattice)
    bands = euclidean.empty_lattice_bands(lattice, (kx, ky), n_bands)
    torsion = euclidean.two_torsion_points(lattice)
    report = {
        "hyperband_euclidean": 1,
        "tau": complex_to_json(tau),
        "k": [kx, ky],
        "reciprocal_basis": [list(map(float, row)) for row in recip.basis],
        "formula_discrepancy": recip.formula_discrepancy,
        "two_torsion": [list(map(float, p)) for p in torsion],
        "bands": [float(e) for e in bands.energies],
        "band_groups": [[e, m] for e, m in bands.groups],
        "modular_lambda": complex_to_json(euclidean.modular_lambda(tau)),
    }
    _write_text(_dump_json(report), opts.get("out"))
    return 0


def cmd_higgs_toy(args) -> int:
    opts = _Options(args)
    point = higgs_toy.ToyModelPoint(
        m=complex(*_parse_numbers(opts.require("m"), "m", *_COMPLEX)),
        u=complex(*_parse_numbers(opts.require("u"), "u", *_COMPLEX)),
        B=complex(*_parse_numbers(opts.get("B", 1.0), "B", *_COMPLEX)),
    )
    (tol,) = _parse_numbers(opts.get("tol", 1e-9), "tol", *_NUMBER)
    (seed,) = _parse_numbers(opts.get("seed", 0), "seed", *_INTEGER)
    connection = higgs_toy.connection_form(point)
    higgs = higgs_toy.higgs_form(point)
    c = higgs_toy.hitchin_coordinate(point, seed=seed, tol=tol)

    def pole_key(p):
        if p == higgs_toy.INFINITY:
            return "infinity"
        if p == 0:
            return "0"
        if p == 1:
            return "1"
        return "m"

    monodromy = {}
    for p, residue in connection.poles:
        values = higgs_toy.local_monodromy_eigenvalues(residue)
        monodromy[pole_key(p)] = [complex_to_json(v) for v in values]
    report = {
        "hyperband_higgs_toy": 1,
        "u": complex_to_json(point.u),
        "m": complex_to_json(point.m),
        "B": complex_to_json(point.B),
        "hitchin": complex_to_json(c),
        "hitchin_closed_form": complex_to_json(higgs_toy.hitchin_closed_form(point)),
        "connection_residues": {
            pole_key(p): matrix_to_json(r) for p, r in connection.poles
        },
        "higgs_residues": {pole_key(p): matrix_to_json(r) for p, r in higgs.poles},
        "connection_monodromy": monodromy,
    }
    _write_text(_dump_json(report), opts.get("out"))
    return 0


def cmd_spectral_curve(args) -> int:
    opts = _Options(args)
    higgs_path = opts.get("higgs")
    u = opts.get("u")
    if (higgs_path is None) == (u is None):
        raise ValueError("give exactly one input: --higgs FILE, or --u/--m[/--B]")
    if higgs_path is not None:
        phi = spectral_curve.higgs_from_json_file(higgs_path)
    else:
        point = higgs_toy.ToyModelPoint(
            m=complex(*_parse_numbers(opts.require("m"), "m", *_COMPLEX)),
            u=complex(*_parse_numbers(u, "u", *_COMPLEX)),
            B=complex(*_parse_numbers(opts.get("B", 1.0), "B", *_COMPLEX)),
        )
        phi = spectral_curve.toy_to_twisted(point)
    info = spectral_curve.curve_info(phi)
    _write_text(_dump_json(spectral_curve.curve_report(info)), opts.get("out"))
    return 0


def cmd_cover_check(args) -> int:
    opts = _Options(args)
    model = tight_binding.read_model(opts.require("model"))
    cover = covers_quivers.read_cover(opts.require("cover"))
    (trials,) = _parse_numbers(opts.get("trials", 20), "trials", *_INTEGER)
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    (tol,) = _parse_numbers(opts.get("tol", 1e-9), "tol", *_NUMBER)
    (seed,) = _parse_numbers(opts.get("seed", 0), "seed", *_INTEGER)
    table = covers_quivers.CoverPushforward(model, cover)
    # one draw of all phases gives the numbers of one draw per trial
    rng = np.random.default_rng(seed)
    chi = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(trials, 2 * table.genus_cover)))
    # the first of the largest distances, as a strict > scan keeps it
    worst = max(table.check_batch(chi, 1.0 / chi, tol), key=lambda report: report.spectral_distance)
    verdict = "PASS" if worst.passed else "FAIL"
    line = (
        f"{verdict}: {trials} characters, {worst.n_states} states, "
        f"max spectral distance {worst.spectral_distance:.3e} "
        f"(tolerance {tol:g} x radius {worst.spectral_radius:.3e})\n"
    )
    out = opts.get("out")
    summary = {
        "hyperband_cover_check": 1,
        "passed": worst.passed,
        "trials": trials,
        "n_states": worst.n_states,
        "connected": worst.connected,
        "genus_cover": worst.genus_cover,
        "max_spectral_distance": worst.spectral_distance,
        "max_matrix_distance": worst.matrix_distance,
        "spectral_radius": worst.spectral_radius,
        "tolerance": tol,
    }
    if out is not None:
        _write_text(_dump_json(summary), out)
    sys.stdout.write(line)
    if not worst.passed:
        raise NumericalCheckFailure(
            f"pushforward routes disagree: distance {worst.spectral_distance:.3e}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file supplying defaults for these options")
    sub.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperband",
        description="band structures on genus-g translation groups and friends",
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("bands", help="sweep a model over a momentum grid, emit CSV")
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--grid", help="phase counts per momentum axis, e.g. 8 or 8,8,4,4")
    p.add_argument(
        "--region",
        help="log-modulus range LO:HI:COUNT to sweep off the unitary torus",
    )
    _add_common(p)
    p.set_defaults(func=cmd_bands)

    p = subs.add_parser(
        "bloch-variety", help="recover det(H(chi) - E) as an exact expansion"
    )
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--tol", help="held-out residual tolerance (default 1e-8)")
    p.add_argument("--seed", help="seed for the held-out sample (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_bloch_variety)

    p = subs.add_parser("euclidean", help="flat-torus reference data for tau, k")
    p.add_argument("--tau", help="torus modulus RE,IM (upper half-plane)")
    p.add_argument("--k", help="wave vector KX,KY (default 0,0)")
    p.add_argument("--bands", help="number of empty-lattice bands (default 8)")
    _add_common(p)
    p.set_defaults(func=cmd_euclidean)

    p = subs.add_parser("higgs-toy", help="residues, monodromy, and invariant at (u, m, B)")
    p.add_argument("--u", help="modulus RE or RE,IM")
    p.add_argument("--m", help="puncture RE or RE,IM (away from 0 and 1)")
    p.add_argument("--B", help="Higgs scale RE or RE,IM (default 1)")
    p.add_argument("--tol", help="z-independence tolerance (default 1e-9)")
    p.add_argument("--seed", help="seed for the z samples (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_higgs_toy)

    p = subs.add_parser(
        "spectral-curve", help="branch divisor and genus of a rank-2 field"
    )
    p.add_argument("--higgs", help="twisted-field JSON file")
    p.add_argument("--u", help="toy-field modulus RE or RE,IM")
    p.add_argument("--m", help="toy-field puncture RE or RE,IM")
    p.add_argument("--B", help="toy-field scale RE or RE,IM (default 1)")
    _add_common(p)
    p.set_defaults(func=cmd_spectral_curve)

    p = subs.add_parser(
        "cover-check", help="compare supercell vs induced-momentum spectra"
    )
    p.add_argument("--model", help="base model JSON file")
    p.add_argument("--cover", help="cover JSON file")
    p.add_argument("--trials", help="number of random unitary characters (default 20)")
    p.add_argument("--tol", help="relative spectral tolerance (default 1e-9)")
    p.add_argument("--seed", help="seed for the characters (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_cover_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call of a process, not at import."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (NumericalCheckFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
