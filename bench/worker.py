"""Runs one job stream in this process and writes what happened as JSON.

    python3 bench/worker.py MANIFEST RESULT [--seconds S | --rounds N]
                            [--warmup MANIFEST] [--trace SPANS] [--reference MANIFEST]

Started by bench/run.py with the BLAS pool already pinned in the environment.
A single client drives the program in a closed loop: each job starts when
the previous one has been checked.  With --seconds, one untimed round of the
stream warms the process up first.  The stream is run in whole rounds, and a
new round starts only while it is expected to end within --seconds, so every
run times the same mix of jobs.  Job time covers only the calls into the
program; output checks and hashing happen between jobs.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402  (binds its numpy kernels before any patching)
import tracer as tracing  # noqa: E402
from reference import Reference  # noqa: E402  (likewise)

import hyperband  # noqa: E402
import hyperband.cli  # noqa: E402

#: reciprocal() warns with this text for skew tau
RECIPROCAL_WARNING = "closed-form reciprocal basis"


class Client:
    """Executes jobs against the program's public entry points."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.tracer = None
        self.reference = Reference()
        self.warnings = {"reciprocal": 0, "other": 0}
        warnings.simplefilter("always")
        warnings.showwarning = self._on_warning

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        if str(message).startswith(RECIPROCAL_WARNING):
            self.warnings["reciprocal"] += 1
            if self.tracer is not None:
                self.tracer.count("euclidean.reciprocal.warnings")
        else:
            self.warnings["other"] += 1

    def cli(self, argv: list, name: str) -> tuple:
        """(exit code, stdout, stderr, output bytes or None, seconds)."""
        out_path = self.out_dir / name
        argv = [str(out_path) if a == "{out}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = hyperband.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        seconds = time.perf_counter() - t0
        data = None
        if out_path.exists():
            data = out_path.read_bytes()
            out_path.unlink()
        return code, out.getvalue(), err.getvalue(), data, seconds

    # -- one job -------------------------------------------------------------

    def run(self, job: dict) -> dict:
        """Execute and check one job; returns its record (timing, hashes, verdict)."""
        rec = {"id": job["id"], "units": job["units"], "seconds": None, "ok": False,
               "error": None, "hashes": {}}
        try:
            getattr(self, "_" + job["kind"])(job, rec)
            rec["ok"] = True
        except Exception as exc:  # any failure of one job is counted, the run goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"[:500]
        return rec

    def _cli_job(self, job, rec, argv, name):
        code, stdout, stderr, data, seconds = self.cli(argv, name)
        rec["seconds"] = (rec["seconds"] or 0.0) + seconds
        rec["hashes"][f"cli:{name}"] = hashlib.sha256(data).hexdigest() if data is not None else "absent"
        rec["hashes"][f"cli:{name}:stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        if self.tracer is not None:
            self.tracer.count("cli.output_bytes", len(data or b"") + len(stdout.encode()))
        if job["kind"] != "cover_cli":  # cover checks may expect a refusal
            oracles.require(code == 0, f"exit code {code}: {stderr.strip()[:300]}")
        return code, stdout, stderr, data

    def _bands_cli(self, job, rec):
        _, _, _, data = self._cli_job(job, rec, job["argv"], f"{job['id']}.csv")
        oracles.check_bands_csv(data, job)

    def _variety_cli(self, job, rec):
        _, _, _, data = self._cli_job(job, rec, job["argv"], f"{job['id']}.json")
        oracles.check_variety(data.decode("utf-8"), job)

    def _cover_cli(self, job, rec):
        code, stdout, stderr, data = self._cli_job(job, rec, job["argv"], f"{job['id']}.json")
        if code == 3 and self.tracer is not None:
            self.tracer.count("covers_quivers.refused")
        oracles.check_cover(code, None if data is None else data.decode("utf-8"), stdout, stderr, job)

    def _scan(self, job, rec):
        genus, counts, region = job["genus"], job["counts"], job["region"]
        t0 = time.perf_counter()
        model = hyperband.read_model(job["model"])
        if region is None:
            grid = hyperband.unitary_grid(genus, counts)
        else:
            grid = hyperband.complex_region_grid(genus, counts, (region[0], region[1]), region[2])
        bands = hyperband.sweep(model, grid)
        groups = hyperband.detect_crossings(bands)
        rec["seconds"] = time.perf_counter() - t0
        values = np.asarray(bands.bands)
        digest = hashlib.sha256(values.tobytes())
        for g in groups:
            digest.update(repr((g.flat_index, g.band_indices, g.multiplicity, g.eigenvalue)).encode())
        rec["hashes"]["lib:scan"] = digest.hexdigest()
        oracles.check_scan(values, groups, job)

    def _pointwise(self, job, rec):
        sub = job["sub"]
        if sub.startswith("cli_"):
            for j, call in enumerate(job["calls"]):
                _, _, _, data = self._cli_job(job, rec, call["argv"], f"{job['id']}-{j}.json")
                oracles.check_cli_pointwise(sub, call["check"], json.loads(data))
            return
        results = getattr(self, "_point_" + sub)(job, rec)
        rec["hashes"]["lib:" + sub] = hashlib.sha256(repr(results).encode()).hexdigest()

    def _point_bloch(self, job, rec):
        chis = [oracles.momentum_values(row) for row in job["momenta"]]
        out = []
        t0 = time.perf_counter()
        model = hyperband.read_model(job["model"])
        for values in chis:
            chi = hyperband.AbelianMomentum(values)
            H = hyperband.bloch_abelian(model, chi)
            ev = hyperband.eigenvalues(H)
            H_adj = hyperband.bloch_abelian(model, hyperband.adjoint_momentum(chi))
            out.append((H.matrix, ev, H_adj.matrix))
        rec["seconds"] = time.perf_counter() - t0
        oracles.check_bloch(job, out)
        return [(H.tobytes(), ev.tobytes(), A.tobytes()) for H, ev, A in out]

    def _point_quiver(self, job, rec):
        chis = [oracles.momentum_values(row) for row in job["momenta"]]
        out = []
        t0 = time.perf_counter()
        model = hyperband.read_model(job["model"])
        quiver = hyperband.quiver_from_model(model, job["nodes"])
        for values in chis:
            chi = hyperband.AbelianMomentum(values)
            out.append((hyperband.reassemble(quiver, chi), hyperband.bloch_abelian(model, chi).matrix))
        rec["seconds"] = time.perf_counter() - t0
        oracles.check_quiver(job, out)
        return [(R.tobytes(), H.tobytes()) for R, H in out]

    @staticmethod
    def _points(job):
        return [dict(zip(("m", "u", "B"), (complex(*z) for z in p))) for p in job["points"]]

    def _point_toy_curve(self, job, rec):
        points = self._points(job)
        infos = []
        t0 = time.perf_counter()
        for p in points:
            infos.append(hyperband.curve_info(hyperband.toy_to_twisted(hyperband.ToyModelPoint(**p))))
        rec["seconds"] = time.perf_counter() - t0
        out = [(info.curve_genus, info.smooth,
                [(None if math.isinf(abs(bp.point)) else complex(bp.point), bp.multiplicity)
                 for bp in info.branch_points]) for info in infos]
        oracles.check_toy_curve(job, out)
        return out

    def _point_hitchin(self, job, rec):
        points = self._points(job)
        out = []
        t0 = time.perf_counter()
        for p, seed in zip(points, job["seeds"]):
            out.append(hyperband.hitchin_coordinate(hyperband.ToyModelPoint(**p), seed=seed))
        rec["seconds"] = time.perf_counter() - t0
        oracles.check_hitchin(job, out)
        return out

    def _point_lattice(self, job, rec):
        specs = [(complex(*s["tau"]), tuple(s["k"]), s["bands"]) for s in job["lattices"]]
        out = []
        t0 = time.perf_counter()
        for tau, k, n in specs:
            lattice = hyperband.EuclideanLattice(tau)
            bands = hyperband.empty_lattice_bands(lattice, k, n)
            torsion = hyperband.two_torsion_points(lattice)
            out.append((bands, torsion, hyperband.modular_lambda(tau)))
        rec["seconds"] = time.perf_counter() - t0
        out = [(np.asarray(b.energies), [np.asarray(t) for t in ts], lam) for b, ts, lam in out]
        oracles.check_lattice(job, out)
        return [(e.tobytes(), [t.tobytes() for t in ts], lam) for e, ts, lam in out]


def run_stream(client: Client, jobs: list, sink, seconds: float = None, rounds: int = None,
               tracer=None) -> int:
    """Whole rounds of the stream, one JSON record per job line to `sink`; returns rounds run.

    Records go to disk as they are made, so keeping them does not raise the
    peak memory of the process being measured.
    """
    first = {}
    start = time.perf_counter()
    done = 0
    while True:
        for job in jobs:
            ref_s = client.reference.before_job()
            if tracer is not None:
                tracer.job = f"{done}:{job['id']}"
            rec = client.run(job)
            rec["ref_s"] = ref_s
            if tracer is not None:
                tracer.job = None
            rec["round"] = done
            # the program promises the same bytes for the same inputs
            if job["id"] in first and rec["ok"] and first[job["id"]] != rec["hashes"]:
                rec["ok"], rec["error"] = False, "output changed between rounds"
            first.setdefault(job["id"], rec["hashes"])
            sink.write(json.dumps(rec) + "\n")
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            break
    return done


def read_records(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def environment() -> dict:
    env = {name: os.environ.get(name) for name in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env.update(
        python=platform.python_version(),
        numpy=np.__version__,
        blas=blas.get("name"),
        blas_version=blas.get("version"),
        nproc=len(os.sched_getaffinity(0)),
        cpu_count=os.cpu_count(),
        openblas_threads=None,
        openblas_config=None,
    )
    # the runtime thread count, read from the OpenBLAS that numpy loaded
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    env["openblas_threads"] = get_threads()
                    env["openblas_config"] = get_config().decode()
                    return env
    return env


def trace_summary(tr, jobs: list, records: list) -> dict:
    by_id = {job["id"]: job for job in jobs}
    supercell = evaluate = trials = variety_jobs = 0
    checks = {"supercell_calls_eq_trials": [0, 0], "evaluate_calls_eq_20": [0, 0]}
    for rec in records:
        job = by_id[rec["id"]]
        calls = tr.per_job_calls.get(f"{rec['round']}:{rec['id']}", {})
        if job["kind"] == "cover_cli":
            n = calls.get("covers_quivers.supercell", 0)
            want = 0 if job["props"]["refused"] else job["trials"]
            checks["supercell_calls_eq_trials"][0] += n == want
            checks["supercell_calls_eq_trials"][1] += 1
            if not job["props"]["refused"]:
                supercell += n
                trials += job["trials"]
        elif job["kind"] == "variety_cli":
            n = calls.get("spectra.BlochVariety.evaluate", 0)
            checks["evaluate_calls_eq_20"][0] += n == 20
            checks["evaluate_calls_eq_20"][1] += 1
            evaluate += n
            variety_jobs += 1
    return {
        "calls": tr.calls, "seconds": tr.seconds, "self_seconds": tr.self_seconds,
        "counters": tr.counters, "margins": tr.margins, "unmeasured": tr.unmeasured,
        "spans": len(tr.spans), "call_checks": checks,
        "supercell_calls_per_trial": supercell / trials if trials else 0.0,
        "evaluate_calls_per_job": evaluate / variety_jobs if variety_jobs else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--warmup")
    parser.add_argument("--trace", help="write spans to this file and trace the stream")
    parser.add_argument("--reference", help="after the stream, run this manifest once for its hashes")
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.rounds is None):
        parser.error("give exactly one of --seconds and --rounds")

    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    manifest = load(args.manifest)
    result_path = Path(args.result)
    out_dir = result_path.with_name(result_path.stem + "-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = result_path.with_suffix(".records.jsonl")
    client = Client(out_dir)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        if args.warmup:
            run_stream(client, load(args.warmup)["jobs"], sink, rounds=1)
        if args.seconds is not None:
            # one untimed round of the stream itself: in a fresh process the
            # first round of sweep runs about 1.3x slower than later ones,
            # while the process's memory grows to the stream's array sizes
            run_stream(client, manifest["jobs"], sink, rounds=1)
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        client.tracer = tr
    with open(records_path, "w", encoding="utf-8") as sink:
        rounds = run_stream(client, manifest["jobs"], sink, seconds=args.seconds,
                            rounds=args.rounds, tracer=tr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"records": str(records_path), "rounds": rounds, "peak_rss_mb": peak_kb / 1024.0,
              "env": environment(), "warnings": client.warnings,
              "reference_samples": client.reference.samples}
    if tr is not None:
        client.tracer = None
        result["restored"] = tr.uninstall()
        result["trace"] = trace_summary(tr, manifest["jobs"], read_records(records_path))
        tr.write_spans(args.trace)
    if args.reference:
        reference_path = result_path.with_suffix(".reference.jsonl")
        with open(reference_path, "w", encoding="utf-8") as sink:
            run_stream(client, load(args.reference)["jobs"], sink, rounds=1)
        result["reference"] = str(reference_path)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
