"""The hyperband benchmark: four seeded closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]
    python3 bench/run.py --smoke     # tiny streams: metric names, determinism
    python3 bench/run.py --record    # re-record bench/expected_sha256.json

Run from the root of a checkout; the program is imported from its `src/`.
Each run generates its inputs from the seed, times the set-up with several
cold starts, runs the workload in a fresh process with the BLAS pool pinned
to one thread, checks every output, and prints one line per metric followed,
as the last line, by a JSON result.  Job times are scored as multiples of a
reference kernel timed next to them (reference.py), because the shared
host's speed drifts between runs.  With --trace 1 a second, traced process
runs the same stream and the result holds the per-layer metrics instead.
bench/README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import SCOPED, TRACED, layer_metric_names
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
RECORD = BENCH / "expected_sha256.json"

#: pinned before numpy is imported in every timed process
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: cold starts per run; setup_s is their median
SETUP_STARTS = 9
#: the seed whose CLI outputs are recorded byte for byte
RECORDED_SEED = 0
#: job_ref.tail percentile per workload: the highest with at least ten jobs
#: beyond it in every run at the commit that defined the benchmark, held
#: fixed so that later commits are compared at the same percentile
TAIL_PERCENTILE = {"sweep": 90.0, "variety": 95.0, "covers": 90.0, "pointwise": 99.0}

#: the scored metrics; job costs are in multiples of the reference kernel's
#: time (reference.py), measured next to each job
END_TO_END_UNITS = {
    "setup_s": "s",
    "job_ref.p50": "ref",
    "job_ref.tail": "ref",
    "work_per_ref": "units/ref",
    "peak_rss_mb": "MB",
}
#: the same job statistics in plain seconds, printed for information: they
#: move with the host's load, so they are not scored
SECONDS_UNITS = {"job_s.p50": "s", "job_s.tail": "s", "work_per_s": "units/s", "ref_s.p50": "s"}
WORK_UNITS = {
    "sweep": "requested eigenvalues (grid points x dim)",
    "variety": "models recovered",
    "covers": "characters x states requested (trials x N x d)",
    "pointwise": "public calls",
}
SHARES = {
    "sweep": ("off_torus", "degenerate"),
    "variety": ("rank_deficient",),
    "covers": ("trials_gt_1", "refused"),
    "pointwise": (),
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".calls_per_job"):
        return "calls/job"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s/job"
    return {
        "spectra.sweep.stack_bytes": "B/job",
        "spectra.detect_crossings.groups": "groups/job",
        "spectra.write_bands_csv.bytes": "B/job",
        "covers_quivers.refused": "refusals/job",
        "euclidean.reciprocal.warnings": "warnings/job",
        "cli.output_bytes": "B/job",
        "covers_quivers.supercell.calls_per_trial": "calls/trial",
        "trace.unmeasured": "count",
        "cli.output_changed": "count",
    }.get(name, "ratio")


def _spawn(argv: list, env: dict, timeout: float) -> float:
    """Run a Python script to completion; returns its wall time in seconds.

    The wait blocks in waitpid (a timeout passed to subprocess would poll in
    steps of up to 50 ms and quantize the time); a timer kills a process
    that overruns.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=sys.stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    seconds = time.perf_counter() - t0
    if code != 0:
        raise BenchError(f"{argv[0]} exited with code {code}")
    return seconds


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path.relative_to(ROOT))


def _load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_result(path) -> dict:
    """A worker's result with its JSON-lines record files read in."""
    result = _load(path)
    for key in ("records", "reference"):
        if key in result:
            with open(result[key], "r", encoding="utf-8") as fh:
                result[key] = [json.loads(line) for line in fh]
    return result


def percentile(times: list, q: float) -> tuple:
    """(nearest-rank value at percentile q, number of jobs beyond it)."""
    xs = sorted(times)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def timed(records: list) -> list:
    return [r["seconds"] for r in records if r["seconds"] is not None]


def job_costs(records: list) -> dict:
    """Each job's median cost over the rounds of a run, by job id.

    A job run's cost is its time divided by the reference kernel's time
    measured just before it.
    """
    costs = {}
    for r in records:
        if r["seconds"] is not None:
            costs.setdefault(r["id"], []).append(r["seconds"] / r["ref_s"])
    return {job_id: statistics.median(xs) for job_id, xs in costs.items()}


def shares(name: str, jobs: dict, records: list) -> dict:
    props = [jobs[r["id"]]["props"] for r in records]
    n = len(props)
    out = {}
    for key in SHARES[name]:
        if key == "trials_gt_1":
            hits = sum(p["trials"] > 1 for p in props)
        else:
            hits = sum(bool(p[key]) for p in props)
        out[key] = hits / n
    if name == "covers":
        hist = {}
        for p in props:
            hist[p["N"]] = hist.get(p["N"], 0) + 1
        out["N_histogram"] = {str(k): hist[k] for k in sorted(hist)}
    if name == "pointwise":
        hist = {}
        for p in props:
            hist[p["sub"]] = hist.get(p["sub"], 0) + 1
        out["kind_histogram"] = hist
    return out


def output_changed(name: str, reference: list) -> int:
    """CLI output files whose sha256 differs from the recorded one."""
    record = _load(RECORD) if RECORD.exists() else {}
    changed = 0
    for rec in reference:
        for key, digest in rec["hashes"].items():
            if key.startswith("cli:") and record.get(f"{name}/{rec['id']}/{key}") != digest:
                changed += 1
    return changed


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    pinned = dict(os.environ, **PIN)
    default_threads = {k: v for k, v in os.environ.items() if k not in PIN}

    manifest = generate(name, seed, ROOT, inputs, tiny=tiny)
    warm = generate(name, seed, ROOT, inputs / "warmup", tiny=True)
    stream = _write_json(work / "stream.json", manifest)
    warmup = _write_json(work / "warmup.json", warm)
    jobs = {job["id"]: job for job in manifest["jobs"]}
    # a traced run splits its time between an untraced and a traced pass
    length = ["--rounds", "1"] if tiny else ["--seconds", str(seconds / 2 if trace else seconds)]

    starts = [_spawn(["bench/setup_probe.py", stream], pinned, 60) for _ in range(SETUP_STARTS)]

    _spawn(["bench/worker.py", stream, str(work / "untraced.json"), *length, "--warmup", warmup],
           pinned, 150)
    untraced = _load_result(work / "untraced.json")
    records = untraced["records"]
    all_records = list(records)
    times = timed(records)
    if not times:
        raise BenchError(f"no {name} job got as far as a timing; first error: {records[0]['error']}")
    q = TAIL_PERCENTILE[name]
    tail_s, beyond = percentile(times, q)
    tail_ref, _ = percentile([r["seconds"] / r["ref_s"] for r in records if r["seconds"] is not None], q)
    cost = job_costs(records)
    failing = {r["id"] for r in records if not r["ok"]}
    passed = [job_id for job_id in cost if job_id not in failing]
    passed_ref = sum(cost[job_id] for job_id in passed)
    passed_units = sum(jobs[job_id]["units"] for job_id in passed)
    ok_units = sum(r["units"] for r in records if r["ok"])
    per_job = f"{len(cost)} jobs, each its median of {untraced['rounds']} rounds"
    samples = untraced["reference_samples"]
    report = {
        "workload": name, "seed": seed, "trace": int(trace), "tiny": tiny,
        "loop": "closed, 1 client", "rounds": untraced["rounds"], "jobs": len(records),
        "env": untraced["env"], "shares": shares(name, jobs, records),
        "setup_starts": starts, "warnings": untraced["warnings"],
        "end_to_end": {
            "setup_s": (statistics.median(starts), f"median of {len(starts)} cold starts"),
            "job_ref.p50": (statistics.median(cost.values()), f"median of {per_job}"),
            "job_ref.tail": (tail_ref, f"p{q:g} of every job run, {beyond} jobs beyond, n={len(times)}"),
            "work_per_ref": (passed_units / passed_ref if passed_ref else 0.0,
                             f"units: {WORK_UNITS[name]}; {len(passed)} passing jobs at their median cost"),
            "peak_rss_mb": (untraced["peak_rss_mb"], "workload process"),
        },
        "seconds": {
            "job_s.p50": (statistics.median(times), f"n={len(times)}"),
            "job_s.tail": (tail_s, f"p{q:g}, {beyond} jobs beyond, n={len(times)}"),
            "work_per_s": (ok_units / sum(times), f"n={len(times)} jobs, {sum(times):.3f} s of jobs"),
            "ref_s.p50": (statistics.median(samples), f"reference kernel, n={len(samples)}"),
        },
    }

    if name == "variety" and not trace and not tiny:
        # information only: the same stream once with the default BLAS threads
        _spawn(["bench/worker.py", stream, str(work / "default_threads.json"), "--rounds", "1",
                "--warmup", warmup], default_threads, 150)
        free = _load_result(work / "default_threads.json")
        # in plain seconds on both sides: the default-thread pass is one round
        p50 = statistics.median(timed(free["records"]))
        pinned = statistics.median(times)
        report["default_threads"] = {
            "openblas_threads": free["env"]["openblas_threads"], "job_s.p50": p50,
            "pinned_job_s.p50": pinned, "ratio": p50 / pinned, "n": len(free["records"]),
        }

    metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
               for key, (value, _) in report["end_to_end"].items()}
    correct = True
    if trace:
        recorded = generate(name, RECORDED_SEED, ROOT, work / "reference", tiny=tiny)
        reference = _write_json(work / "reference.json", recorded)
        _spawn(["bench/worker.py", stream, str(work / "traced.json"), *length, "--warmup", warmup,
                "--trace", str(work / "spans.csv"), "--reference", reference], pinned, 150)
        traced = _load_result(work / "traced.json")
        summary = traced["trace"]
        all_records += traced["records"] + traced["reference"]
        first = {r["id"]: r["hashes"] for r in records if r["round"] == 0}
        mismatched = sorted(r["id"] for r in traced["records"]
                            if r["round"] == 0 and r["hashes"] != first.get(r["id"]))
        n = len(traced["records"])
        metrics = {}
        for spec in TRACED:
            metrics[f"{spec}.calls"] = summary["calls"].get(spec, 0) / n
            metrics[f"{spec}.s"] = summary["seconds"].get(spec, 0.0) / n
            metrics[f"{spec}.self_s"] = summary["self_seconds"].get(spec, 0.0) / n
        for metric in SCOPED.values():
            metrics[f"{metric}.s"] = summary["seconds"].get(metric, 0.0) / n
        for key, value in summary["counters"].items():
            metrics[key] = value / n
        metrics.update(summary["margins"])
        metrics["covers_quivers.supercell.calls_per_trial"] = summary["supercell_calls_per_trial"]
        metrics["spectra.BlochVariety.evaluate.calls_per_job"] = summary["evaluate_calls_per_job"]
        metrics["trace.unmeasured"] = len(summary["unmeasured"])
        metrics["trace.overhead"] = (statistics.median(job_costs(traced["records"]).values())
                                     / statistics.median(cost.values()))
        metrics["cli.output_changed"] = output_changed(name, traced["reference"])
        metrics = {key: {"value": metrics[key], "unit": layer_unit(key)} for key in layer_metric_names()}
        report["tracing"] = {
            "jobs": n, "rounds": traced["rounds"], "spans": summary["spans"],
            "restored": traced["restored"], "unmeasured": summary["unmeasured"],
            "outputs_identical_to_untraced": not mismatched, "mismatched_jobs": mismatched,
            "call_checks": summary["call_checks"],
        }
        correct = traced["restored"] and not mismatched

    failed = [r for r in all_records if not r["ok"]]
    report["fail_frac"] = (len(failed) / len(all_records), f"{len(failed)} of {len(all_records)} jobs")
    report["failures"] = [f"{r['id']}: {r['error']}" for r in failed[:20]]
    report["metrics"] = metrics
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    for sub in ("inputs", "reference", "untraced-out", "traced-out", "default_threads-out"):
        shutil.rmtree(work / sub, ignore_errors=True)
    return {"report": report, "result": {
        "correct": bool(correct and not failed), "attempted": len(all_records),
        "failed": len(failed), "metrics": metrics}}


def print_report(report: dict) -> None:
    say = sys.stdout.write
    say(f"hyperband bench: workload={report['workload']} seed={report['seed']} "
        f"trace={report['trace']} loop={report['loop']} rounds={report['rounds']} "
        f"jobs={report['jobs']}\n")
    for key, (value, note) in report["end_to_end"].items():
        say(f"  {key:<12} {value:<14.6g} {END_TO_END_UNITS[key]:<9} {note}\n")
    say("  in seconds, moving with the host's load (information only):\n")
    for key, (value, note) in report["seconds"].items():
        say(f"  {key:<12} {value:<14.6g} {SECONDS_UNITS[key]:<9} {note}\n")
    frac, note = report["fail_frac"]
    say(f"  {'fail_frac':<12} {frac:<14.6g} {'ratio':<9} {note}\n")
    say(f"  shares       {json.dumps(report['shares'])}\n")
    if "default_threads" in report:
        say(f"  default BLAS threads (information only): {json.dumps(report['default_threads'])}\n")
    if "tracing" in report:
        say(f"  tracing      {json.dumps(report['tracing'])}\n")
    say(f"  env          {json.dumps(report['env'])}\n")
    for line in report["failures"]:
        say(f"  FAILED {line}\n")


def check_names(result: dict, trace: bool) -> list:
    """Differences between a result's metrics and BENCHMARK.json."""
    spec = _load(ROOT / "BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    return sorted(set(declared.items()) ^ set(emitted.items()))


def smoke() -> int:
    """Tiny streams of every workload, untraced and traced."""
    problems = []
    for name in WORKLOADS:
        base = OUT / "smoke" / name
        shutil.rmtree(base, ignore_errors=True)
        made = {}
        for label, seed in (("a", 7), ("b", 7), ("c", 8)):
            manifest = generate(name, seed, ROOT, base / label)
            text = json.dumps(manifest["jobs"]).replace(str((base / label).relative_to(ROOT)), "DIR")
            files = {p.name: p.read_bytes() for p in sorted((base / label).iterdir())}
            made[label] = (text, files)
        if made["a"] != made["b"]:
            problems.append(f"{name}: seed 7 gave two different streams")
        if made["a"] == made["c"]:
            problems.append(f"{name}: seeds 7 and 8 gave the same stream")
        shutil.rmtree(base, ignore_errors=True)
        for trace in (False, True):
            out = run_workload(name, RECORDED_SEED, 1, trace, tiny=True)
            print_report(out["report"])
            result = out["result"]
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: not correct")
            diff = check_names(result, trace)
            if diff:
                problems.append(f"{name} trace={int(trace)}: metric names differ from BENCHMARK.json: {diff}")
            if trace and result["metrics"]["cli.output_changed"]["value"] != 0:
                problems.append(f"{name}: recorded CLI outputs changed")
    for line in problems:
        print(f"smoke: {line}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def record() -> int:
    """Store the sha256 of every CLI output of the recorded seed's streams."""
    digests = {}
    for name in WORKLOADS:
        for tiny in (False, True):
            work = OUT / "record" / f"{name}{'-tiny' if tiny else ''}"
            shutil.rmtree(work, ignore_errors=True)
            manifest = generate(name, RECORDED_SEED, ROOT, work / "inputs", tiny=tiny)
            stream = _write_json(work / "stream.json", manifest)
            _spawn(["bench/worker.py", stream, str(work / "result.json"), "--rounds", "1"],
                   dict(os.environ, **PIN), 300)
            for rec in _load_result(work / "result.json")["records"]:
                if not rec["ok"]:
                    raise BenchError(f"{rec['id']} failed: {rec['error']}")
                for key, digest in rec["hashes"].items():
                    if key.startswith("cli:"):
                        digests[f"{name}/{rec['id']}/{key}"] = digest
            shutil.rmtree(work, ignore_errors=True)
    RECORD.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} CLI outputs in {RECORD.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperband benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hyperband" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'hyperband'} is missing", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.record:
            return record()
        if args.workload is None:
            parser.error("give --workload, --smoke or --record")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(out["report"])
            results[name] = out["result"]
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(results[names[0]] if len(names) == 1 else results) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
