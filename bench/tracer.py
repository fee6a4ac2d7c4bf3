"""Spans around the program's public functions, patched in from outside.

The tracer wraps each public function named in TRACED in every module
namespace that binds it (the defining module, the `hyperband` package and any
module that imported the name), so internal calls are caught as well as the
benchmark's own.  Classes are traced through their `__init__` (construction),
methods on their class.  Nothing under `src/` changes; `uninstall` puts every
original object back.

A span is (id, name, start, end, parent id, job id).  Spans are kept in memory
and written once when the run ends.  Self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time

#: public functions to wrap: "<module>.<name>" under hyperband, or a numpy path
TRACED = (
    "cli.main",
    "tight_binding.read_model",
    "tight_binding.bloch_abelian",
    "tight_binding.bloch_nonabelian",
    "tight_binding.adjoint_momentum",
    "momenta.AbelianMomentum",
    "momenta.NonabelianMomentum",
    "surface_group.evaluate_word",
    "surface_group.free_reduce",
    "spectra.unitary_grid",
    "spectra.complex_region_grid",
    "spectra.sweep",
    "spectra.detect_crossings",
    "spectra.write_bands_csv",
    "spectra.bloch_variety",
    "spectra.eigenvalues",
    "spectra.BlochVariety.evaluate",
    "covers_quivers.read_cover",
    "covers_quivers.UnbranchedCover",
    "covers_quivers.cover_genus",
    "covers_quivers.supercell",
    "covers_quivers.induce",
    "covers_quivers.pushforward_check",
    "covers_quivers.quiver_from_model",
    "covers_quivers.reassemble",
    "euclidean.reciprocal",
    "euclidean.empty_lattice_bands",
    "euclidean.two_torsion_points",
    "euclidean.modular_lambda",
    "higgs_toy.hitchin_coordinate",
    "spectral_curve.curve_info",
    "numpy.linalg.eigvalsh",
    "numpy.linalg.eigvals",
    "numpy.linalg.det",
    "numpy.fft.fftn",
    "numpy.tensordot",
)

#: kernel time counted separately when it runs inside a given layer
SCOPED = {
    ("numpy.linalg.eigvalsh", "spectra.sweep"): "numpy.linalg.eigvalsh.in_sweep",
    ("numpy.linalg.eigvals", "spectra.sweep"): "numpy.linalg.eigvals.in_sweep",
    ("numpy.linalg.eigvals", "spectra.bloch_variety"): "numpy.linalg.eigvals.in_bloch_variety",
}

#: counters summed per job; margins are kept as the run's maximum
COUNTERS = (
    "spectra.sweep.stack_bytes",
    "spectra.detect_crossings.groups",
    "spectra.write_bands_csv.bytes",
    "covers_quivers.refused",
    "euclidean.reciprocal.warnings",
    "cli.output_bytes",
)
MARGINS = ("spectra.bloch_variety.holdout_margin", "covers_quivers.pushforward.margin")


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []  # [span id, time covered by children]
        self._depth = {}
        self._next = 0
        self.calls = {}
        self.seconds = {}
        self.self_seconds = {}
        self.counters = {name: 0.0 for name in COUNTERS}
        self.margins = {name: 0.0 for name in MARGINS}
        self.per_job_calls = {}
        self.unmeasured = []
        self._patches = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def _resolve(self, spec: str):
        """(owner, attribute, original) or None when the name is gone."""
        parts = spec.split(".")
        if parts[0] == "numpy":
            for cut in range(len(parts) - 1, 0, -1):
                try:
                    owner = importlib.import_module(".".join(parts[:cut]))
                except ImportError:
                    continue
                rest = parts[cut:]
                break
            else:
                return None
        else:
            try:
                owner = importlib.import_module("hyperband." + parts[0])
            except ImportError:
                return None
            rest = parts[1:]
        for name in rest[:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        original = getattr(owner, rest[-1], None)
        if original is None:
            return None
        if isinstance(original, type):
            # trace construction: wrap __init__ on the class itself
            return original, "__init__", original.__dict__.get("__init__")
        if isinstance(owner, type):
            return owner, rest[-1], owner.__dict__.get(rest[-1])
        return owner, rest[-1], original

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hyperband" or name.startswith("hyperband."))]
        for spec in TRACED:
            found = self._resolve(spec)
            if found is None or found[2] is None:
                self.unmeasured.append(spec)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, spec)
            targets = [(owner, attr)]
            if not isinstance(owner, type):
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original and (module, name) != (owner, attr):
                            targets.append((module, name))
            for target, name in targets:
                self._patches.append((target, name, original))
                setattr(target, name, wrapper)

    def uninstall(self) -> bool:
        """Restore every patched attribute; True when all are originals again."""
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        restored = all(getattr(t, n) is o or t.__dict__.get(n) is o for t, n, o in self._patches)
        self._patches = []
        return restored

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        clock = time.perf_counter
        scoped = [(parent, metric) for (child, parent), metric in SCOPED.items() if child == name]

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth = tracer._depth
            depth[name] = depth.get(name, 0) + 1
            before = tracer._before(name, args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((sid, name, t0, t1, parent, tracer.job))
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_seconds[name] = tracer.self_seconds.get(name, 0.0) + duration - frame[1]
                if depth[name] == 0:
                    # recursion: count the outermost span only
                    tracer.seconds[name] = tracer.seconds.get(name, 0.0) + duration
                for outer, metric in scoped:
                    if depth.get(outer, 0) > 0:
                        tracer.seconds[metric] = tracer.seconds.get(metric, 0.0) + duration
                job_calls = tracer.per_job_calls.setdefault(tracer.job, {})
                job_calls[name] = job_calls.get(name, 0) + 1
            tracer._after(name, args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _before(self, name, args, kwargs):
        if name == "spectra.write_bands_csv" and len(args) > 1:
            try:
                return args[1].tell()
            except (AttributeError, OSError):
                return None
        return None

    def _after(self, name, args, kwargs, result, before) -> None:
        # counters read public attributes; a later layout that lacks them
        # leaves the counter alone instead of failing the run
        try:
            if name == "spectra.sweep":
                model, grid = args[0], args[1]
                self.counters["spectra.sweep.stack_bytes"] += grid.n_points * model.dim ** 2 * 16
            elif name == "spectra.detect_crossings":
                self.counters["spectra.detect_crossings.groups"] += len(result)
            elif name == "spectra.write_bands_csv" and before is not None:
                self.counters["spectra.write_bands_csv.bytes"] += args[1].tell() - before
            elif name == "spectra.bloch_variety":
                tol = kwargs.get("tol", args[2] if len(args) > 2 else 1e-8)
                margin = result.holdout_residual / tol
                key = "spectra.bloch_variety.holdout_margin"
                self.margins[key] = max(self.margins[key], margin)
            elif name == "covers_quivers.pushforward_check":
                margin = result.spectral_distance / (result.tolerance * max(result.spectral_radius, 1e-12))
                key = "covers_quivers.pushforward.margin"
                self.margins[key] = max(self.margins[key], margin)
        except (AttributeError, IndexError, TypeError, ZeroDivisionError):
            pass

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,job\n")
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(f"{sid},{name},{t0!r},{t1!r},{parent},{job}\n")


def layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for spec in TRACED:
        names += [f"{spec}.calls", f"{spec}.s", f"{spec}.self_s"]
    names += [f"{metric}.s" for metric in SCOPED.values()]
    names += list(COUNTERS) + list(MARGINS)
    names += [
        "covers_quivers.supercell.calls_per_trial",
        "spectra.BlochVariety.evaluate.calls_per_job",
        "trace.unmeasured",
        "trace.overhead",
        "cli.output_changed",
    ]
    return names
