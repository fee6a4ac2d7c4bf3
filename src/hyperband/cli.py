"""Command-line interface.

Subcommands: bands, bloch-variety, euclidean, higgs-toy, spectral-curve,
cover-check.  Exit codes: 0 success, 2 bad input (arguments, files, domain
violations), 3 a numerical or structural check failed.  Every diagnostic goes
to stderr; data goes to --out (or stdout).

A JSON config file (--config) may supply any long option of the subcommand by
its name, e.g. {"model": "cell.json", "grid": "16,16"}, and no other key;
explicit flags win over the config, which wins over built-in defaults.  The
same inputs, config, and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import covers_quivers, euclidean, higgs_toy, spectra, spectral_curve, tight_binding
from .errors import NumericalCheckFailure
from ._serialize import complex_to_json, matrix_to_json
from .momenta import AbelianMomentum

__all__ = ["main"]


# ---------------------------------------------------------------------------
# option parsing helpers (config values and flag strings share these)
# ---------------------------------------------------------------------------


def _parse_complex(value, name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, str):
        parts = value.split(",")
        try:
            if len(parts) == 1:
                return complex(float(parts[0]))
            if len(parts) == 2:
                return complex(float(parts[0]), float(parts[1]))
        except ValueError:
            pass
    raise ValueError(f"cannot read {name}={value!r} as a complex number (use RE or RE,IM)")


def _parse_counts(value, name: str) -> list:
    if isinstance(value, int):
        return [value]
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    if isinstance(value, str):
        try:
            return [int(p) for p in value.split(",")]
        except ValueError:
            pass
    raise ValueError(f"cannot read {name}={value!r} as grid counts (use N or N,N,...)")


def _parse_region(value, name: str):
    if isinstance(value, (list, tuple)) and len(value) == 3:
        return float(value[0]), float(value[1]), int(value[2])
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) == 3:
            try:
                return float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError:
                pass
    raise ValueError(
        f"cannot read {name}={value!r} as a log-modulus region (use LO:HI:COUNT)"
    )


def _parse_real_pair(value, name: str):
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return float(value[0]), float(value[1])
    if isinstance(value, str):
        parts = value.split(",")
        if len(parts) == 2:
            try:
                return float(parts[0]), float(parts[1])
            except ValueError:
                pass
        if len(parts) == 1:
            try:
                return float(parts[0]), 0.0
            except ValueError:
                pass
    raise ValueError(f"cannot read {name}={value!r} as a vector (use X,Y)")


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


def _write_text(text: str, out_path) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bands(args) -> int:
    opts = _Options(args)
    model = tight_binding.read_model(opts.require("model"))
    counts = _parse_counts(opts.get("grid", "8"), "grid")
    region = opts.get("region")
    if region is None:
        grid = spectra.unitary_grid(model.genus, counts)
    else:
        lo, hi, nm = _parse_region(region, "region")
        grid = spectra.complex_region_grid(model.genus, counts, (lo, hi), nm)
    bands = spectra.sweep(model, grid)
    import io

    buf = io.StringIO()
    spectra.write_bands_csv(bands, buf)
    _write_text(buf.getvalue(), opts.get("out"))
    return 0


def cmd_bloch_variety(args) -> int:
    opts = _Options(args)
    model = tight_binding.read_model(opts.require("model"))
    tol = float(opts.get("tol", 1e-8))
    seed = int(opts.get("seed", 0))
    variety = spectra.bloch_variety(model, tol=tol, seed=seed)
    _write_text(_dump_json(variety.to_json()), opts.get("out"))
    return 0


def cmd_euclidean(args) -> int:
    opts = _Options(args)
    tau = _parse_complex(opts.require("tau"), "tau")
    kx, ky = _parse_real_pair(opts.get("k", "0,0"), "k")
    n_bands = int(opts.get("bands", 8))
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
        m=_parse_complex(opts.require("m"), "m"),
        u=_parse_complex(opts.require("u"), "u"),
        B=_parse_complex(opts.get("B", 1.0), "B"),
    )
    tol = float(opts.get("tol", 1e-9))
    seed = int(opts.get("seed", 0))
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
            m=_parse_complex(opts.require("m"), "m"),
            u=_parse_complex(u, "u"),
            B=_parse_complex(opts.get("B", 1.0), "B"),
        )
        phi = spectral_curve.toy_to_twisted(point)
    info = spectral_curve.curve_info(phi)
    _write_text(_dump_json(spectral_curve.curve_report(info)), opts.get("out"))
    return 0


def cmd_cover_check(args) -> int:
    opts = _Options(args)
    model = tight_binding.read_model(opts.require("model"))
    cover = covers_quivers.read_cover(opts.require("cover"))
    trials = int(opts.get("trials", 20))
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    tol = float(opts.get("tol", 1e-9))
    seed = int(opts.get("seed", 0))
    table = covers_quivers.CoverPushforward(model, cover)
    rng = np.random.default_rng(seed)
    worst = None
    for _ in range(trials):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=2 * table.genus_cover)
        chi = AbelianMomentum(np.exp(1j * phases))
        report = table.check(chi, tol)
        if worst is None or report.spectral_distance > worst.spectral_distance:
            worst = report
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


def main(argv=None) -> int:
    parser = build_parser()
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
