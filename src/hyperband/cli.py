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

Every subcommand writes --out by one rule (`_replacing`).  A regular file or
a new path is written to a new file beside it, which replaces it, keeping its
permission bits and any final symlink, only when whole: a failed run leaves
no new file and an existing one untouched.  The file stdout is open on
(/dev/stdout, also under `>> log`) is written through stdout, and another
device or pipe (/dev/null) in place; both keep what a failed run wrote.  An
empty path is refused as `open` refuses it.  The JSON subcommands compute
before they open --out; `bands` streams, so it opens --out first.

`bands` solves and writes on two threads (`spectra.write_sweep_csv`): the
main thread solves the grid box by box and hands each box to a worker that
writes it, the same bytes as solving first and writing after; a failure
stops both.  An off-torus (`--region`) box of 64 KiB of Hamiltonians or more
is solved in two halves, one on a helper thread, as `eigvals` runs on both
cores with the bits of one call; a Hermitian box stays one `eigvalsh` call,
whose level-2 calls OpenBLAS serializes.  With fd 1 closed, output to
stdout is refused with exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import stat
import sys

import numpy as np

from .errors import NumericalCheckFailure
from ._serialize import complex_to_json, indented_dumps as _dump_json, matrix_to_json, read_json, refuse_oversized


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


# readers: the `_parse_numbers` format (kinds, usage[, separator]) of an option
_COMPLEX = ("ff?", "a complex number (use RE or RE,IM)")
_NUMBER = ("f", "a number")
_INTEGER = ("i", "an integer")


class _Options:
    """One subcommand's options, each parsed by its `_COMMANDS` reader when read.

    A flag wins over a config entry (a null too) over the table default.
    """

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        options = _COMMANDS[args.command][2]
        self._rows = {name: (reader, default) for name, reader, default, _ in options}
        self._rows["out"] = (None, None)
        self._config = {}
        if args.config:
            data = read_json(args.config)
            if not isinstance(data, dict):
                raise ValueError("config file must hold a JSON object")
            unknown = [key for key in data if key not in self._rows]
            if unknown:
                raise ValueError(f"unknown config key {unknown[0]!r}; known: {', '.join(sorted(self._rows))}")
            self._config = data

    def given(self, name: str):
        """The option as given: flag, else config entry, else table default."""
        value = self._args[name]
        return self._config.get(name, self._rows[name][1]) if value is None else value

    def supplied(self, name: str) -> bool:
        """Whether the option came as a flag or a config entry, not from the table."""
        return self._args[name] is not None or name in self._config

    def __getitem__(self, name: str):
        """The option parsed: a number, a list of them, a path, or None if unset."""
        reader, default = self._rows[name]
        value = self.given(name)
        if reader is None or (value is None and default is None):
            return value
        numbers = _parse_numbers(value, name, *reader)
        if reader is _COMPLEX:
            return complex(*numbers)
        return numbers[0] if len(reader[0]) == 1 else numbers

    def require(self, name: str):
        value = self[name]
        if value is None:
            raise ValueError(f"missing required option --{name}")
        return value


def _stdout():
    """sys.stdout, which is None when fd 1 was closed at start-up: that is
    refused as writing to a closed descriptor is."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    return sys.stdout


@contextlib.contextmanager
def _replacing(out_path):
    """The handle --out goes to, by the module docstring's rule; a path that
    cannot be written is refused before any write, as `open` refuses it."""
    if out_path is None or out_path == "-":
        yield _stdout()
        return
    try:
        status = os.stat(out_path)
    except FileNotFoundError:
        if not out_path:  # "" names no file, and would fail only at the rename
            raise
        status = None
    try:
        in_stdout = status is not None and os.path.samestat(status, os.fstat(1))
    except OSError:  # fd 1 closed: no path names its file
        in_stdout = False
    if in_stdout:
        yield _stdout()
        return
    if status is not None and not stat.S_ISREG(status.st_mode):
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(out_path) if os.path.islink(out_path) else out_path
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        if status is not None and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, out_path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        if status is not None:
            os.chmod(temp, stat.S_IMODE(status.st_mode))
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _write_text(text: str, out_path) -> None:
    with _replacing(out_path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands (each imports the modules it needs, so a run loads no others)
# ---------------------------------------------------------------------------


def cmd_bands(opts: _Options) -> int:
    from . import spectra, tight_binding
    model = tight_binding.read_model(opts.require("model"))
    counts, region = opts["grid"], opts["region"]
    if region is None:
        grid = spectra.unitary_grid(model.genus, counts)
    else:
        grid = spectra.complex_region_grid(model.genus, counts, region[:2], region[2])
    with _replacing(opts["out"]) as fh:
        spectra.write_sweep_csv(model, grid, fh)
    return 0


def cmd_bloch_variety(opts: _Options) -> int:
    from . import spectra, tight_binding
    model = tight_binding.read_model(opts.require("model"))
    variety = spectra.bloch_variety(model, tol=opts["tol"], seed=opts["seed"])
    _write_text(variety.json_text(), opts["out"])
    return 0


def cmd_euclidean(opts: _Options) -> int:
    from . import euclidean
    tau = opts.require("tau")
    kx, ky = opts["k"]
    n_bands = opts["bands"]
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
    _write_text(_dump_json(report), opts["out"])
    return 0


def _toy_point(opts: _Options):
    from .higgs_toy import ToyModelPoint
    return ToyModelPoint(m=opts.require("m"), u=opts.require("u"), B=opts["B"])


def cmd_higgs_toy(opts: _Options) -> int:
    from . import higgs_toy
    point = _toy_point(opts)
    c = higgs_toy.hitchin_coordinate(point, tol=opts["tol"], seed=opts["seed"])
    keys = ("0", "1", "m", "infinity")  # the poles in the order higgs_toy lists them
    connection = higgs_toy.connection_form(point).poles
    higgs = higgs_toy.higgs_form(point).poles
    monodromy = {
        key: [complex_to_json(v) for v in higgs_toy.local_monodromy_eigenvalues(residue)]
        for key, (_, residue) in zip(keys, connection)
    }
    report = {
        "hyperband_higgs_toy": 1,
        "u": complex_to_json(point.u),
        "m": complex_to_json(point.m),
        "B": complex_to_json(point.B),
        "hitchin": complex_to_json(c),
        "hitchin_closed_form": complex_to_json(higgs_toy.hitchin_closed_form(point)),
        "connection_residues": {k: matrix_to_json(r) for k, (_, r) in zip(keys, connection)},
        "higgs_residues": {k: matrix_to_json(r) for k, (_, r) in zip(keys, higgs)},
        "connection_monodromy": monodromy,
    }
    _write_text(_dump_json(report), opts["out"])
    return 0


def cmd_spectral_curve(opts: _Options) -> int:
    from . import spectral_curve
    higgs_path = opts["higgs"]
    toy = any(opts.supplied(name) for name in ("u", "m", "B"))
    if higgs_path is None and opts.given("u") is None or higgs_path is not None and toy:
        raise ValueError("give exactly one input: --higgs FILE, or --u/--m[/--B]")
    if higgs_path is not None:
        phi = spectral_curve.higgs_from_json_file(higgs_path)
    else:
        phi = spectral_curve.toy_to_twisted(_toy_point(opts))
    info = spectral_curve.curve_info(phi)
    _write_text(_dump_json(spectral_curve.curve_report(info)), opts["out"])
    return 0


def cmd_cover_check(opts: _Options) -> int:
    from . import covers_quivers, tight_binding
    model = tight_binding.read_model(opts.require("model"))
    cover = covers_quivers.read_cover(opts.require("cover"))
    trials = opts["trials"]
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    tol, seed = opts["tol"], opts["seed"]
    table = covers_quivers.CoverPushforward(model, cover)
    # per character the phase draw (8 B), its exponent, chi, 1/chi (16 B
    # each); the reports stream, one slice's figures held at a time
    n_chars = 2 * table.genus_cover
    refuse_oversized(
        trials * 56 * n_chars, "cover check",
        "characters for {} trials (cover genus {})", trials, table.genus_cover,
    )
    # one draw of all phases gives the numbers of one draw per trial
    rng = np.random.default_rng(seed)
    chi = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(trials, n_chars)))
    worst, matrix_distance, failure = _cover_verdict(table.check_batch(chi, 1.0 / chi, tol))
    passed = failure is None
    verdict = "PASS" if passed else "FAIL"
    n_states = model.dim * cover.sheets
    line = (
        f"{verdict}: {trials} characters, {n_states} states, "
        f"max spectral distance {worst.spectral_distance:.3e} "
        f"(tolerance {tol:g} x radius {worst.spectral_radius:.3e})\n"
    )
    summary = {
        "hyperband_cover_check": 1,
        "passed": passed,
        "trials": trials,
        "n_states": n_states,
        "connected": table.connected,
        "genus_cover": table.genus_cover,
        "max_spectral_distance": worst.spectral_distance,
        "max_matrix_distance": matrix_distance,
        "spectral_radius": worst.spectral_radius,
        "tolerance": tol,
    }
    if opts["out"] is not None:
        _write_text(_dump_json(summary), opts["out"])
    _stdout().write(line)
    if not passed:
        k, report = failure
        distance, radius = report.spectral_distance, report.spectral_radius
        raise NumericalCheckFailure(
            f"pushforward routes disagree: trial {k} has distance {distance:.3e} at radius "
            f"{radius:.3e} (distance/radius {distance / max(radius, 1e-12):.3e} > tolerance {tol:g})"
        )
    return 0


def _cover_verdict(reports) -> tuple:
    """The first largest-distance report, the largest matrix distance of any
    trial, and the first failing trial as (index, report), None when every
    trial passed: each trial's tolerance scales with its own radius, so a
    smaller distance can fail."""
    worst, matrix_distance, failure = None, 0.0, None
    for k, report in enumerate(reports):
        if worst is None or report.spectral_distance > worst.spectral_distance:
            worst = report
        matrix_distance = max(matrix_distance, report.matrix_distance)
        if failure is None and not report.passed:
            failure = (k, report)
    return worst, matrix_distance, failure


# ---------------------------------------------------------------------------
# the table: each subcommand once, with its options as (name, reader, default,
# help), a reader of None reading a path; each also takes --config and --out
# ---------------------------------------------------------------------------


#: the (u, m, B) point of the Higgs toy, read by higgs-toy and spectral-curve
_TOY_POINT = (
    ("u", _COMPLEX, None, "toy-field modulus RE or RE,IM"),
    ("m", _COMPLEX, None, "toy-field puncture RE or RE,IM (away from 0 and 1)"),
    ("B", _COMPLEX, "1", "toy-field scale RE or RE,IM"),
)

_COMMANDS = {
    "bands": (cmd_bands, "sweep a model over a momentum grid, emit CSV", (
        ("model", None, None, "model JSON file"),
        ("grid", ("i*", "grid counts (use N or N,N,...)"), "8",
         "phase counts per momentum axis, e.g. 8 or 8,8,4,4"),
        ("region", ("ffi", "a log-modulus region (use LO:HI:COUNT)", ":"), None,
         "log-modulus range LO:HI:COUNT to sweep off the unitary torus"),
    )),
    "bloch-variety": (cmd_bloch_variety, "recover det(H(chi) - E) as an exact expansion", (
        ("model", None, None, "model JSON file"),
        ("tol", _NUMBER, "1e-8", "held-out residual tolerance"),
        ("seed", _INTEGER, "0", "seed for the held-out sample"),
    )),
    "euclidean": (cmd_euclidean, "flat-torus reference data for tau, k", (
        ("tau", _COMPLEX, None, "torus modulus RE,IM (upper half-plane)"),
        ("k", ("ff?", "a vector (use X,Y)"), "0,0", "wave vector KX,KY"),
        ("bands", _INTEGER, "8", "number of empty-lattice bands"),
    )),
    "higgs-toy": (cmd_higgs_toy, "residues, monodromy, and invariant at (u, m, B)", (
        *_TOY_POINT,
        ("tol", _NUMBER, "1e-9", "z-independence tolerance"),
        ("seed", _INTEGER, "0", "seed for the z samples"),
    )),
    "spectral-curve": (cmd_spectral_curve, "branch divisor and genus of a rank-2 field", (
        ("higgs", None, None, "twisted-field JSON file"),
        *_TOY_POINT,
    )),
    "cover-check": (cmd_cover_check, "compare supercell vs induced-momentum spectra", (
        ("model", None, None, "base model JSON file"),
        ("cover", None, None, "cover JSON file"),
        ("trials", _INTEGER, "20", "number of random unitary characters"),
        ("tol", _NUMBER, "1e-9", "relative spectral tolerance"),
        ("seed", _INTEGER, "0", "seed for the characters"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperband",
        description="band structures on genus-g translation groups and friends",
    )
    subs = parser.add_subparsers(dest="command")
    for command, (_, summary, options) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        for name, _, default, text in options:
            sub.add_argument(f"--{name}", help=text if default is None else f"{text} (default {default})")
        sub.add_argument("--config", help="JSON file supplying defaults for these options")
        sub.add_argument("--out", help="output path (default: stdout)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call of a process, not at import."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command][0](_Options(args))
    except (NumericalCheckFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
