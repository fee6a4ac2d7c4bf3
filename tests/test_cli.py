"""End-to-end checks of the command-line interface."""

import argparse
import contextlib
import errno
import io
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperband
from hyperband import cli, spectra
from hyperband.covers_quivers import CoverPushforward, PushforwardReport, UnbranchedCover, cover_to_json
from hyperband.euclidean import EuclideanLattice, empty_lattice_bands
from hyperband.tight_binding import TightBindingModel, _assemble, model_to_json, read_model, write_model


@pytest.fixture
def single_site_model(tmp_path):
    # one state, zero on-site, both hops = 1: the standard graph Laplacian
    # minus degree, spectrum 2 cos(ka) + 2 cos(kb) in [-4, 4]
    model = TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]])
    path = tmp_path / "single.json"
    write_model(model, path)
    return path


@pytest.fixture
def two_state_model(tmp_path):
    rng = np.random.default_rng(7)
    onsite = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    onsite = onsite + onsite.conj().T
    hops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    model = TightBindingModel(1, onsite, hops)
    path = tmp_path / "pair.json"
    write_model(model, path)
    return path


@pytest.fixture
def swap_cover(tmp_path):
    cover = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(cover_to_json(cover)), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------


def test_bands_csv_shape_and_extremes(single_site_model, tmp_path):
    out = tmp_path / "bands.csv"
    code = cli.main(
        ["bands", "--model", str(single_site_model), "--grid", "16,16", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert comments and "model_hash" in comments[1]
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "i0,i1,band,re,im"
    rows = data[1:]
    assert len(rows) == 16 * 16
    energies = [float(r.split(",")[-2]) for r in rows]
    assert abs(max(energies) - 4.0) < 1e-12
    assert abs(min(energies) + 4.0) < 1e-12


def csv_rows(text):
    return [l for l in text.strip().splitlines() if l and not l.startswith("#")][1:]


def test_bands_to_stdout(single_site_model, capsys):
    code = cli.main(["bands", "--model", str(single_site_model), "--grid", "4,4"])
    assert code == 0
    captured = capsys.readouterr()
    assert len(csv_rows(captured.out)) == 16


def test_bands_deterministic(two_state_model, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert (
            cli.main(["bands", "--model", str(two_state_model), "--grid", "6,6", "--out", str(out)])
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_bands_region_grid(two_state_model, tmp_path):
    out = tmp_path / "bands.csv"
    code = cli.main(
        [
            "bands",
            "--model",
            str(two_state_model),
            "--grid",
            "4,4",
            "--region=-0.1:0.1:3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = csv_rows(out.read_text())
    # 3 moduli shells per axis: (4*3) * (4*3) points, 2 bands each
    assert len(rows) == 144 * 2


def test_bands_missing_model_is_usage_error(capsys):
    code = cli.main(["bands"])
    assert code == 2
    assert "model" in capsys.readouterr().err


def test_bands_nonexistent_file(tmp_path, capsys):
    code = cli.main(["bands", "--model", str(tmp_path / "nope.json")])
    assert code == 2


@pytest.mark.parametrize("field, value", [("genus", 1.8), ("genus", True), ("dim", 1.5), ("dim", True)])
def test_bands_refuses_non_integer_model_fields(tmp_path, capsys, field, value):
    doc = model_to_json(TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]]))
    doc[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["bands", "--model", str(path), "--grid", "2,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field} must be an integer, got {value!r}\n"


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _setting(path, value):
    """A change that sets the item at `path` (keys and indices) of a document copy."""
    def change(doc):
        doc = json.loads(json.dumps(doc))
        item = doc
        for step in path[:-1]:
            item = item[step]
        item[path[-1]] = value
        return doc
    return change


_NOT_A_NUMBER = "must be a number or [re, im] in the float range, got"


@pytest.mark.parametrize(
    "command, kind, change, error",
    [
        ("bands", "model", lambda doc: [1, 2], "not a model document (expected hyperband_model: 1)"),
        ("bloch-variety", "model", lambda doc: None, "not a model document (expected hyperband_model: 1)"),
        (
            "bands", "model", _setting(["hyperband_model"], True),
            "not a model document (expected hyperband_model: 1)",
        ),
        ("cover-check", "model", lambda doc: "model", "not a model document (expected hyperband_model: 1)"),
        ("cover-check", "cover", lambda doc: [1, 2], "not a cover document (expected hyperband_cover: 1)"),
        ("spectral-curve", "higgs", lambda doc: None, "not a higgs document (expected hyperband_higgs: 1)"),
        ("bloch-variety", "model", _without("hops"), "model document has no 'hops'"),
        ("cover-check", "cover", _without("perms"), "cover document has no 'perms'"),
        ("spectral-curve", "higgs", _without("entries"), "higgs document has no 'entries'"),
        ("bands", "model", _setting(["hops", 0, 0, 0], "12"), f"an entry in hops {_NOT_A_NUMBER} '12'"),
        (
            "bloch-variety", "model", _setting(["hops", 1, 0, 0], True),
            f"an entry in hops {_NOT_A_NUMBER} True",
        ),
        ("bands", "model", _setting(["onsite", 0, 0], None), f"an entry in onsite {_NOT_A_NUMBER} None"),
        (
            "bands", "model", _setting(["onsite", 0, 0], [0.0, "1"]),
            f"an entry in onsite {_NOT_A_NUMBER} [0.0, '1']",
        ),
        (
            "bloch-variety", "model", _setting(["onsite", 0, 0], 10**400),
            f"an entry in onsite {_NOT_A_NUMBER} {10**400}",
        ),
        (
            "spectral-curve", "higgs", _setting(["entries", 0, 0, 0], "10"),
            f"a coefficient in entries {_NOT_A_NUMBER} '10'",
        ),
        (
            "spectral-curve", "higgs", _setting(["entries", 1, 1, 0], True),
            f"a coefficient in entries {_NOT_A_NUMBER} True",
        ),
        (
            "spectral-curve", "higgs", _setting(["entries", 0, 1, 0], None),
            f"a coefficient in entries {_NOT_A_NUMBER} None",
        ),
    ],
    ids=lambda value: value.split(" must")[0].split(" (")[0] if isinstance(value, str) else "change",
)
def test_commands_refuse_bad_documents_and_entries(tmp_path, capsys, command, kind, change, error):
    from hyperband.higgs_toy import ToyModelPoint
    from hyperband.spectral_curve import higgs_to_json, toy_to_twisted

    documents = {
        "model": model_to_json(TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]])),
        "cover": cover_to_json(UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))),
        "higgs": higgs_to_json(toy_to_twisted(ToyModelPoint(m=3.0, u=2.0, B=1.0))),
    }
    documents[kind] = change(documents[kind])
    for name, doc in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    inputs = {
        "bands": ["--model", "model.json", "--grid", "2"],
        "bloch-variety": ["--model", "model.json"],
        "cover-check": ["--model", "model.json", "--cover", "cover.json"],
        "spectral-curve": ["--higgs", "higgs.json"],
    }[command]
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in inputs]
    assert cli.main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_bands_bad_grid(single_site_model, capsys):
    code = cli.main(["bands", "--model", str(single_site_model), "--grid", "a,b"])
    assert code == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_bands_overflowing_region_is_refused(tmp_path, capsys):
    # |chi| = exp(709) times a hop of 3 overflows to inf: refused before the solve
    path = tmp_path / "strong.json"
    write_model(TightBindingModel(1, [[0.0]], [[[3.0]], [[3.0]]]), path)
    code = cli.main(["bands", "--model", str(path), "--grid", "4,4", "--region=-709:709:2"])
    assert code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and "non-finite" in errors[0]


@pytest.mark.parametrize("region", ["0:800:3", "1e308:1e308:2", "-800:-700:2"])
def test_bands_region_with_an_unrepresentable_modulus_is_refused_quietly(single_site_model, capsys, region):
    # exp(800) and exp(1e308) overflow and exp(-800) is zero: one error line, no numpy warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["bands", "--model", str(single_site_model), "--grid", "2", f"--region={region}"])
    assert code == 2 and caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: region moduli exp(") and err.count("\n") == 1


@pytest.mark.parametrize("scale, shown", [(1e160, "1.414e+160"), (1e200, "1.414e+200")])
@pytest.mark.parametrize("command", ["bands", "bloch-variety", "cover-check"])
def test_huge_non_hermitian_onsite_is_refused_quietly(tmp_path, capsys, command, scale, shown):
    # ||M||^2 overflows: the Hermitian test read inf > 1e-8 inf, False, and
    # every command symmetrized M with a numpy overflow warning
    zero = [[0.0, 0.0], [0.0, 0.0]]
    model = {"hyperband_model": 1, "genus": 1, "dim": 2, "onsite": [[scale, scale], [0.0, scale]], "hops": [zero, zero]}
    (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
    cover = cover_to_json(UnbranchedCover(sheets=2, perms=((2, 1), (1, 2))))
    (tmp_path / "cover.json").write_text(json.dumps(cover), encoding="utf-8")
    argv = [command, "--model", str(tmp_path / "model.json")] + {
        "bands": ["--grid", "2"], "bloch-variety": [], "cover-check": ["--cover", str(tmp_path / "cover.json")],
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code == 2 and caught == []
    assert capsys.readouterr().err == (
        f"error: onsite matrix is not Hermitian (residual {shown}); "
        "symmetrization only absorbs residuals below 1e-08 relative\n"
    )


def test_huge_hermitian_model_fails_the_variety_quietly(tmp_path, capsys):
    # entries of 1e160 overflow the characteristic polynomial: one numerical
    # failure line, without the multiply and FFT warnings it once printed first
    s = 1e160
    model = {
        "hyperband_model": 1, "genus": 1, "dim": 2, "onsite": [[s, s], [s, s]],
        "hops": [[[s, 0.0], [0.0, s]], [[0.0, s], [s, 0.0]]],
    }
    (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["bloch-variety", "--model", str(tmp_path / "model.json")])
    assert code == 3 and caught == []
    assert capsys.readouterr().err == (
        "numerical failure: Bloch-variety coefficients are not finite (largest magnitude nan): "
        "the characteristic polynomial overflows\n"
    )


# ---------------------------------------------------------------------------
# bands: the grid is solved on the calling thread while a worker writes the CSV
# ---------------------------------------------------------------------------

#: the worker thread `bands` writes its CSV on
CSV_THREAD = "hyperband-bands-csv"


def _patched_solver(monkeypatch, solver, before):
    """Patch np.linalg.`solver` to run `before(calls, a)` first, which may
    raise, on each stack or matrix `a`; return the list of calls."""
    solve = getattr(np.linalg, solver)
    calls = []

    def patched(a):
        calls.append(a.shape)
        before(calls, a)
        return solve(a)

    monkeypatch.setattr(np.linalg, solver, patched)
    return calls


def _late_failure_run(tmp_path, monkeypatch, out):
    """A d = 16 sweep of a 20 x 40 grid, 120 points a box, whose point 700,
    in the sixth box, fails to solve; the sixth box waits for the worker to
    start writing the fifth, the last one solved before it."""
    from test_tight_binding import random_model
    write_model(random_model(np.random.default_rng(9), 1, 16), tmp_path / "model.json")
    model, axes = read_model(tmp_path / "model.json"), spectra.unitary_grid(1, [20, 40]).axes
    chi = np.array([axes[0][17], axes[1][20]])
    target = _assemble(model, chi[:, None, None], (1.0 / chi)[:, None, None])
    written = []

    def fail_at_point_700(calls, a):
        if len(calls) == 6:
            deadline = time.monotonic() + 10.0
            while len(written) < 5 and time.monotonic() < deadline:
                time.sleep(0.001)
        if np.any(np.all(a == target, axis=(-2, -1))):
            raise np.linalg.LinAlgError("forced")

    writer = spectra._rows_text
    monkeypatch.setattr(spectra, "_rows_text", lambda *a: written.append(1) or writer(*a))
    calls = _patched_solver(monkeypatch, "eigvalsh", fail_at_point_700)
    argv = ["bands", "--model", str(tmp_path / "model.json"), "--grid", "20,40"]
    return calls, written, cli.main(argv + ([] if out is None else ["--out", str(out)]))


#: the line the sweep's sixth box prints, as it did with the CSV written after the sweep
LATE_FAILURE = "numerical failure: eigensolver failed at grid index (17, 20): eigensolver did not converge: forced\n"


@pytest.mark.parametrize("out", ["new", "existing", "symlink", "/dev/null", "stdout"])
def test_bands_failing_at_a_late_box_leaves_no_partial_csv(tmp_path, monkeypatch, capsys, out):
    # the failing point of the sequential run: sixth box, (17, 20), exit 3
    path = {"new": tmp_path / "bands.csv", "existing": tmp_path / "bands.csv", "symlink": tmp_path / "link.csv",
            "/dev/null": Path("/dev/null"), "stdout": None}[out]
    if out in ("existing", "symlink"):
        (tmp_path / "bands.csv").write_text("old bands\n", encoding="utf-8")
    if out == "symlink":
        path.symlink_to(tmp_path / "bands.csv")
    before = sorted(os.listdir(tmp_path))
    calls, written, code = _late_failure_run(tmp_path, monkeypatch, path)
    captured = capsys.readouterr()
    assert (code, captured.err) == (3, LATE_FAILURE)
    assert len(written) == 5 and len(calls) > 6  # five boxes went out; the failing box was solved alone
    assert sorted(os.listdir(tmp_path)) == sorted(before + ["model.json"])
    if out in ("existing", "symlink"):
        assert (tmp_path / "bands.csv").read_text(encoding="utf-8") == "old bands\n"
    if out == "symlink":
        assert path.is_symlink()
    if out == "/dev/null":
        assert path.is_char_device()
    if out == "stdout":  # the rows of the five boxes solved before the failure
        rows = csv_rows(captured.out)
        assert len(rows) == 5 * 120 * 16 and rows[-1].startswith("14,39,15,")
    else:
        assert captured.out == ""
    assert not [t for t in threading.enumerate() if t.name == CSV_THREAD]


def test_bands_interrupted_during_the_sweep_stops_its_worker(tmp_path, monkeypatch):
    from test_tight_binding import random_model
    model = tmp_path / "model.json"
    write_model(random_model(np.random.default_rng(9), 1, 4), model)
    out = tmp_path / "bands.csv"

    def interrupt(calls, a):
        if len(calls) == 3:
            raise KeyboardInterrupt

    _patched_solver(monkeypatch, "eigvalsh", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["bands", "--model", str(model), "--grid", "64,64", "--out", str(out)])
    assert not [t for t in threading.enumerate() if t.name == CSV_THREAD]
    assert os.listdir(tmp_path) == ["model.json"]


def test_bands_worker_failing_to_write_stops_the_sweep(tmp_path, monkeypatch, capsys):
    # the first CSV box passes the text buffer, so /dev/full refuses it at
    # once; the sweep stops at its next box, with the line the sequential
    # run printed when it wrote after the sweep
    model = tmp_path / "model.json"
    write_model(TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]]), model)

    def wait_for_the_worker(calls, a):  # hold the second box until the worker is gone
        if len(calls) == 2:
            deadline = time.monotonic() + 10.0
            while any(t.name == CSV_THREAD for t in threading.enumerate()) and time.monotonic() < deadline:
                time.sleep(0.001)

    calls = _patched_solver(monkeypatch, "eigvalsh", wait_for_the_worker)
    code = cli.main(["bands", "--model", str(model), "--grid", "256,256", "--out", "/dev/full"])
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 28] No space left on device\n")
    assert len(calls) == 2  # of 16 boxes
    assert Path("/dev/full").is_char_device()


def _hyperband(argv, redirect="", **kwargs):
    """`python -m hyperband argv` in a new process, this package importable,
    its stdout redirected by the shell's `redirect` (e.g. ">> log") if given."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperband.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "hyperband", *argv]
    if redirect:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
    return subprocess.run(command, env=env, **kwargs)


@pytest.mark.parametrize("out", ["/dev/stdout", "/dev/fd/1"])
def test_bands_out_naming_a_piped_stdout_writes_to_the_pipe(single_site_model, out):
    # the link resolves to a "pipe:[...]" entry that is no file, the pipe
    # stdout is open on: it is written through stdout, as with no --out, and
    # no file is made to replace it
    argv = ["bands", "--model", str(single_site_model), "--grid", "5"]
    plain = _hyperband(argv, capture_output=True)
    piped = _hyperband(argv + ["--out", out], capture_output=True)
    assert (plain.returncode, plain.stderr) == (0, b"")
    assert (piped.returncode, piped.stderr, piped.stdout) == (0, b"", plain.stdout)
    assert len(csv_rows(plain.stdout.decode())) == 25


def test_bands_refuses_an_unwritable_out_path_before_the_sweep(single_site_model, tmp_path, monkeypatch, capsys):
    calls = _patched_solver(monkeypatch, "eigvalsh", lambda calls, a: None)
    out = tmp_path / "missing" / "bands.csv"
    assert cli.main(["bands", "--model", str(single_site_model), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert calls == []


def test_bands_refuses_an_empty_out_path_before_the_sweep(single_site_model, tmp_path, monkeypatch, capsys):
    # "" named the working directory, and the CSV went to a new file in its
    # parent that failed to replace it only after the whole sweep
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(spectra, "_sampled_spectra", sweep)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    before = sorted(os.listdir(tmp_path)), sorted(os.listdir(tmp_path.parent))
    assert cli.main(["bands", "--model", str(single_site_model), "--out", ""]) == 2
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
    assert (sorted(os.listdir(tmp_path)), sorted(os.listdir(tmp_path.parent))) == before
    assert os.listdir(work) == []


def test_bands_with_stdout_closed_writes_its_out_file(single_site_model, tmp_path):
    # fd 1 closed is no file --out can name; the CSV's new file may take fd 1
    out = tmp_path / "bands.csv"
    out.write_text("old bands\n", encoding="utf-8")
    argv = ["bands", "--model", str(single_site_model), "--grid", "5"]
    plain = _hyperband(argv, capture_output=True)
    closed = _hyperband(argv + ["--out", str(out)], ">&-", stderr=subprocess.PIPE)
    assert (closed.returncode, closed.stderr) == (0, b"")
    assert out.read_bytes() == plain.stdout and len(csv_rows(plain.stdout.decode())) == 25


@pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["no-out", "out-dash"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_stdout_closed_at_start_up_is_refused(command, out, single_site_model, two_state_model, swap_cover):
    # with fd 1 closed Python sets sys.stdout to None, and writing to it
    # died with an AttributeError traceback, exit 1
    argv = [command, *_required_inputs(command, single_site_model, two_state_model, swap_cover), *out]
    closed = _hyperband(argv, ">&-", stderr=subprocess.PIPE)
    assert (closed.returncode, closed.stderr) == (2, b"error: [Errno 9] Bad file descriptor: '<stdout>'\n")


# ---------------------------------------------------------------------------
# --out: one writer for every subcommand
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_out_replaces_an_existing_file_keeping_its_mode_and_links(
    command, single_site_model, two_state_model, swap_cover, tmp_path, capsys
):
    argv = [command, *_required_inputs(command, single_site_model, two_state_model, swap_cover), "--out"]
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    target, link, fresh = outputs / "out.txt", outputs / "link.txt", outputs / "fresh.txt"
    target.write_text("old output\n", encoding="utf-8")
    target.chmod(0o640)
    link.symlink_to(target)
    assert cli.main(argv + [str(fresh)]) == 0
    assert cli.main(argv + [str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes() != b""
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(outputs)) == ["fresh.txt", "link.txt", "out.txt"]


@pytest.mark.parametrize("command", [command for command in cli._COMMANDS if command != "bands"])
def test_out_failing_to_replace_leaves_the_target_untouched(
    command, single_site_model, two_state_model, swap_cover, tmp_path, monkeypatch, capsys
):
    def full(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    outputs = tmp_path / "outputs"
    outputs.mkdir()
    target = outputs / "out.json"
    target.write_text("old output\n", encoding="utf-8")
    monkeypatch.setattr(os, "replace", full)
    argv = [command, *_required_inputs(command, single_site_model, two_state_model, swap_cover)]
    assert cli.main(argv + ["--out", str(target)]) == 2
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
    assert target.read_text(encoding="utf-8") == "old output\n"
    assert os.listdir(outputs) == ["out.json"]


@pytest.mark.parametrize("command, redirect", [("bands", ">>"), ("euclidean", ">>"), ("cover-check", ">")])
def test_out_naming_a_redirected_stdout_writes_through_it(
    command, redirect, single_site_model, two_state_model, swap_cover, tmp_path
):
    # `--out /dev/stdout >> log` kept none of the log (bands renamed a new
    # file over it, the JSON commands truncated it), and `> f` took the
    # JSON at offset 0 and cover-check's PASS line over its start
    argv = [command, *_required_inputs(command, single_site_model, two_state_model, swap_cover)]
    argv += ["--out", "/dev/stdout"]
    piped = _hyperband(argv, capture_output=True)
    assert (piped.returncode, piped.stderr) == (0, b"") and piped.stdout
    log = tmp_path / "log"
    log.write_bytes(b"earlier line\n")
    run = _hyperband(argv, f"{redirect} {shlex.quote(str(log))}", stderr=subprocess.PIPE)
    assert (run.returncode, run.stderr) == (0, b"")
    assert log.read_bytes() == (b"earlier line\n" if redirect == ">>" else b"") + piped.stdout


# ---------------------------------------------------------------------------
# bloch-variety
# ---------------------------------------------------------------------------


def test_bloch_variety_json(two_state_model, tmp_path):
    out = tmp_path / "var.json"
    code = cli.main(["bloch-variety", "--model", str(two_state_model), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["hyperband_bloch_variety"] == 1
    assert doc["genus"] == 1
    assert doc["dim"] == 2
    assert doc["holdout_residual"] <= 1e-8


def test_bloch_variety_impossible_tolerance(two_state_model, capsys):
    code = cli.main(
        ["bloch-variety", "--model", str(two_state_model), "--tol", "1e-30"]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# euclidean
# ---------------------------------------------------------------------------


def test_euclidean_square_lattice_degeneracy(tmp_path):
    out = tmp_path / "e.json"
    code = cli.main(
        ["euclidean", "--tau", "0,1", "--k", "0.5,0.5", "--bands", "8", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["hyperband_euclidean"] == 1
    groups = doc["band_groups"]
    assert abs(groups[0][0] - 0.5) < 1e-12 and groups[0][1] == 4
    lam = doc["modular_lambda"]
    assert abs(complex(lam[0], lam[1]) - 0.5) < 1e-12
    assert doc["formula_discrepancy"] < 1e-12


def test_euclidean_lower_half_plane_rejected(capsys):
    code = cli.main(["euclidean", "--tau", "0,-1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--tau", "0,1", "--k", "1e400,0"], "k must be finite, got [inf, 0.0]"),
        (["--tau", "0,1", "--k", "0,nan"], "k must be finite, got [0.0, nan]"),
        (["--tau", "nan,1"], "tau must be finite, got (nan+1j)"),
        (["--tau", "0,1e400"], "tau must be finite, got infj"),
        (["--tau=-inf,1"], "tau must be finite, got (-inf+1j)"),
    ],
)
def test_euclidean_refuses_non_finite_tau_and_k(capsys, argv, error):
    assert cli.main(["euclidean", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("tau, k", [("0,1", "1000,1000"), ("0.3,1.1", "500,500")])
def test_euclidean_far_k_is_served(tmp_path, tau, k):
    # the window sits about k: a far k costs no more than k = 0 (the window
    # about the origin asked 2.0 GB for the first and took 1.4 s for the second)
    out = tmp_path / "e.json"
    assert cli.main(["euclidean", "--tau", tau, "--k", k, "--out", str(out)]) == 0
    lattice = EuclideanLattice(complex(*map(float, tau.split(","))))
    expected = empty_lattice_bands(lattice, tuple(map(float, k.split(","))), 8)
    doc = json.loads(out.read_text())
    assert doc["bands"] == expected.energies.tolist()
    assert [tuple(g) for g in doc["band_groups"]] == list(expected.groups)
    if tau == "0,1":  # k on a lattice point
        assert doc["band_groups"] == [[0.0, 1], [1.0, 4], [2.0, 4]]

def test_euclidean_k_too_far_out_to_resolve_ties_exits_2(capsys):
    # the window about k would be cheap, but at these lattice coordinates the
    # rounding of G moves the energies by several tie tolerances
    assert cli.main(["euclidean", "--tau", "0.3,1.1", "--k", "1e8,1e8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: k out of range: its lattice coordinates [100000000.0, 140000000.0] are too far out to resolve ties\n"
    )


def test_euclidean_bad_tau_string(capsys):
    code = cli.main(["euclidean", "--tau", "one"])
    assert code == 2
    assert "tau" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# higgs-toy
# ---------------------------------------------------------------------------


def test_higgs_toy_invariant_value(tmp_path):
    out = tmp_path / "h.json"
    code = cli.main(
        ["higgs-toy", "--u", "2", "--m", "3", "--B", "1", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    c = complex(*doc["hitchin"])
    assert abs(c - 2.0) < 1e-10
    closed = complex(*doc["hitchin_closed_form"])
    assert abs(c - closed) < 1e-10
    assert set(doc["connection_residues"]) == {"0", "1", "m", "infinity"}
    mono_inf = [complex(*v) for v in doc["connection_monodromy"]["infinity"]]
    assert all(abs(v + 1.0) < 1e-12 for v in mono_inf)


def test_higgs_toy_colliding_puncture_rejected(capsys):
    code = cli.main(["higgs-toy", "--u", "2", "--m", "1"])
    assert code == 2
    assert "m must stay away" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, err",
    [
        # exited 0 after 3 warnings, writing "hitchin": [NaN, NaN]
        (["--u", "0.3", "--m", "2", "--B", "1e200"], 3,
         "numerical failure: the invariant is not finite ((nan+nanj)): it overflows the float range\n"),
        # the invariant is finite here, but -B^2 overflows in the closed form
        (["--u", "1e-200", "--m", "2", "--B", "1e200"], 3,
         "numerical failure: the closed form of the invariant is not finite ((nan+nanj)): "
         "it overflows the float range\n"),
        # exited 2 with "residues must sum to zero exactly; got total [[0j, (nan+nanj)], ...]"
        (["--u", "1e200", "--m", "2"], 2,
         "error: the residue at (2+0j) is not finite: it overflows the float range\n"),
    ],
)
def test_higgs_toy_overflow_is_refused_quietly(capsys, argv, code, err):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cli.main(["higgs-toy", *argv])
    assert (got, caught, capsys.readouterr()) == (code, [], ("", err))


def test_higgs_toy_large_finite_invariant_is_written(capsys):
    code = cli.main(["higgs-toy", "--u", "0.3", "--m", "2", "--B", "1e150"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["hitchin_closed_form"] == [-3.569999999999999e+299, 0.0]
    assert abs(complex(*doc["hitchin"]) - complex(*doc["hitchin_closed_form"])) <= 1e-9 * 3.57e299


@pytest.mark.parametrize("u", ["1e9", "1e10", "1e11"])
def test_higgs_toy_large_u_writes_quarter_monodromy(capsys, u):
    # exited 2 from 1e10 on: "residue has a repeated eigenvalue but is not scalar"
    code = cli.main(["higgs-toy", "--u", u, "--m", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    for pole in ("0", "1", "m"):
        assert np.allclose([complex(*v) for v in doc["connection_monodromy"][pole]], [-1j, 1j], atol=1e-12)


def test_higgs_toy_requires_u_and_m(capsys):
    code = cli.main(["higgs-toy", "--u", "2"])
    assert code == 2
    assert "--m" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spectral-curve
# ---------------------------------------------------------------------------


def test_spectral_curve_from_toy_point(tmp_path):
    out = tmp_path / "c.json"
    code = cli.main(["spectral-curve", "--u", "2", "--m", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["degenerate"] is False
    assert doc["smooth"] is True
    assert doc["genus"] == 1
    finite = sorted(
        complex(*b["point"]).real for b in doc["branch_points"] if b["point"] != "infinity"
    )
    assert np.allclose(finite, [0.0, 1.0, 3.0], atol=1e-7)


def test_spectral_curve_degenerate_point_still_succeeds(tmp_path):
    # u at a puncture: the curve degenerates but the report is still data
    out = tmp_path / "c.json"
    code = cli.main(["spectral-curve", "--u", "1", "--m", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["degenerate"] is True


def test_spectral_curve_near_degenerate_field_succeeds(tmp_path, capsys):
    # the constant field ((1, e), (e, 1)) with e^2 = 5e-13: a discriminant
    # below the root finder's trim tolerance is reported degenerate
    from hyperband.spectral_curve import Rank2TwistedHiggs, higgs_to_json

    e = np.sqrt(5e-13)
    higgs, out = tmp_path / "higgs.json", tmp_path / "c.json"
    higgs.write_text(json.dumps(higgs_to_json(Rank2TwistedHiggs(1, 1, (([1.0], [e]), ([e], [1.0]))))))
    code = cli.main(["spectral-curve", "--higgs", str(higgs), "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    doc = json.loads(out.read_text())
    assert (doc["degenerate"], doc["smooth"], doc["genus"], doc["branch_points"]) == (True, False, None, [])


#: the four overflowing toy and field inputs: each exits with one stderr line
OVERFLOW_CURVE = "numerical failure: the characteristic polynomial overflows: a1, a2 or the discriminant a1^2 - 4 a2 has a coefficient past the float range\n"


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_spectral_curve_overflowing_field_is_refused_quietly(tmp_path, capsys, scale):
    # a2 = p11 p22 - p12 p21 overflows: 9 (or 5) numpy warnings and an
    # OverflowError traceback from the discriminant's scale, exit 1, before
    higgs = {"hyperband_higgs": 1, "genus": 1, "k": 1, "entries": [[[scale, 2, 3], [1, 1, 1]], [[2, 1, 1], [3, 1, scale]]]}
    (tmp_path / "higgs.json").write_text(json.dumps(higgs), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["spectral-curve", "--higgs", str(tmp_path / "higgs.json")])
    assert (code, caught, capsys.readouterr()) == (3, [], ("", OVERFLOW_CURVE))


def test_spectral_curve_overflowing_toy_point_is_refused_quietly(capsys):
    # 7 numpy warnings, then numpy's "Array must not contain infs or NaNs", before
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["spectral-curve", "--u", "0.3", "--m", "2", "--B", "1e200"])
    assert (code, caught, capsys.readouterr()) == (3, [], ("", OVERFLOW_CURVE))


@pytest.mark.parametrize("B", ["1e90", "1e140", "1e152"])
def test_spectral_curve_large_toy_point_keeps_its_branch_points(capsys, B):
    # from about B = 1e86 the squares in the Cayley-Hamilton norms passed the
    # float range, which failed the check with a residual of inf though a1
    # and a2 are finite
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["spectral-curve", "--u", "0.3", "--m", "2", "--B", B])
    out, err = capsys.readouterr()
    assert (code, caught, err) == (0, [], "")
    doc = json.loads(out)
    finite = sorted(complex(*b["point"]).real for b in doc["branch_points"] if b["point"] != "infinity")
    assert doc["genus"] == 1 and np.allclose(finite, [0.0, 1.0, 2.0], atol=1e-12)


def test_spectral_curve_input_exclusivity(tmp_path, capsys):
    code = cli.main(["spectral-curve"])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err
    code = cli.main(
        ["spectral-curve", "--u", "2", "--m", "3", "--higgs", str(tmp_path / "x.json")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "extra, config",
    [
        (["--m", "5"], None),
        (["--m", "5", "--B", "3"], None),
        (["--B", "1"], None),  # B given at its table default still counts
        (["--u", "2"], None),
        ([], {"m": "5"}),
        ([], {"B": "3"}),
        ([], {"B": None}),
    ],
)
def test_spectral_curve_higgs_file_refuses_toy_options(tmp_path, capsys, extra, config):
    from hyperband.higgs_toy import ToyModelPoint
    from hyperband.spectral_curve import higgs_to_json, toy_to_twisted

    path = tmp_path / "phi.json"
    path.write_text(json.dumps(higgs_to_json(toy_to_twisted(ToyModelPoint(m=3.0, u=2.0)))))
    argv = ["spectral-curve", "--higgs", str(path), *extra]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give exactly one input: --higgs FILE, or --u/--m[/--B]\n"

def test_spectral_curve_from_higgs_file(tmp_path):
    from hyperband.higgs_toy import ToyModelPoint
    from hyperband.spectral_curve import higgs_to_json, toy_to_twisted

    phi = toy_to_twisted(ToyModelPoint(m=3.0, u=2.0, B=1.0))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(higgs_to_json(phi)), encoding="utf-8")
    out = tmp_path / "c.json"
    assert cli.main(["spectral-curve", "--higgs", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["genus"] == 1


@pytest.mark.parametrize("field, value", [("genus", 1.5), ("k", True)])
def test_spectral_curve_refuses_non_integer_fields(tmp_path, capsys, field, value):
    from hyperband.higgs_toy import ToyModelPoint
    from hyperband.spectral_curve import higgs_to_json, toy_to_twisted

    doc = higgs_to_json(toy_to_twisted(ToyModelPoint(m=3.0, u=2.0, B=1.0)))
    doc[field] = value
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["spectral-curve", "--higgs", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {field} must be an integer, got {value!r}\n"


def test_spectral_curve_rejects_non_higgs_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"something": "else"}', encoding="utf-8")
    assert cli.main(["spectral-curve", "--higgs", str(path)]) == 2


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_spectral_curve_refuses_non_finite_coefficients(tmp_path, capsys, bad):
    from hyperband.higgs_toy import ToyModelPoint
    from hyperband.spectral_curve import higgs_to_json, toy_to_twisted

    doc = higgs_to_json(toy_to_twisted(ToyModelPoint(m=3.0, u=2.0, B=1.0)))
    doc["entries"][1][0][2] = [float(bad), 0.0]
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert bad in path.read_text()
    assert cli.main(["spectral-curve", "--higgs", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: entry coefficients must be finite\n"


# ---------------------------------------------------------------------------
# cover-check
# ---------------------------------------------------------------------------


def test_cover_check_pass_line(two_state_model, swap_cover, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        [
            "cover-check",
            "--model",
            str(two_state_model),
            "--cover",
            str(swap_cover),
            "--trials",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out
    assert line.startswith("PASS: 5 characters, 4 states")
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["genus_cover"] == 1
    assert doc["max_spectral_distance"] <= 1e-9 * doc["spectral_radius"]


def test_cover_check_impossible_tolerance_fails(two_state_model, swap_cover, capsys):
    code = cli.main(
        [
            "cover-check",
            "--model",
            str(two_state_model),
            "--cover",
            str(swap_cover),
            "--trials",
            "5",
            "--tol",
            "1e-30",
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL")
    assert "numerical failure" in captured.err


def _report(distance, radius, tol=1e-9, matrix_distance=0.0):
    passed = distance <= tol * max(radius, 1e-12)
    return PushforwardReport(matrix_distance, distance, radius, tol, passed)


def test_cover_verdict_fails_when_any_trial_fails():
    # each trial's tolerance scales with its own radius: the largest distance
    # (2e-9 at radius 4) passes, the smaller 1.5e-9 at radius 1 fails
    reports = [
        _report(1e-9, 2.0, matrix_distance=1e-16), _report(2e-9, 4.0),
        _report(1.5e-9, 1.0), _report(2e-9, 1.0, matrix_distance=3e-16),
    ]
    worst, matrix_distance, failure = cli._cover_verdict(reports)
    assert worst is reports[1] and worst.passed
    # the matrix distance is the largest of any trial, not the worst trial's
    assert matrix_distance == 3e-16
    assert failure[0] == 2 and failure[1] is reports[2]
    # all passing: the first largest-distance report, and no failure
    worst, matrix_distance, failure = cli._cover_verdict(iter(reports[:2] + [_report(2e-9, 8.0)]))
    assert worst is reports[1] and matrix_distance == 1e-16 and failure is None


def test_cover_check_prints_fail_when_a_smaller_distance_fails(
    two_state_model, swap_cover, tmp_path, monkeypatch, capsys
):
    reports = [_report(1.5e-9, 1.0), _report(2e-9, 4.0)]
    monkeypatch.setattr(CoverPushforward, "check_batch", lambda self, chi, chi_inv, tol: iter(reports))
    out = tmp_path / "report.json"
    argv = ["cover-check", "--model", str(two_state_model), "--cover", str(swap_cover), "--trials", "2"]
    assert cli.main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL: 2 characters, 4 states, max spectral distance 2.000e-09")
    assert "trial 0 has distance 1.500e-09 at radius 1.000e+00" in captured.err
    assert json.loads(out.read_text())["passed"] is False


def test_cover_check_names_the_first_failing_trial(tmp_path, capsys):
    # an 8-sheet cover cycled by a1 over a genus-2, d = 2 model: trial 58
    # fails at a smaller distance than the largest, which passes
    from test_tight_binding import random_model

    model, cover, out = tmp_path / "model.json", tmp_path / "cover.json", tmp_path / "out.json"
    write_model(random_model(np.random.default_rng(4), 2, 2), model)
    cycle = (2, 3, 4, 5, 6, 7, 8, 1)
    still = tuple(range(1, 9))
    cover.write_text(json.dumps(cover_to_json(UnbranchedCover(8, (cycle, still, still, still)))))
    argv = ["cover-check", "--model", str(model), "--cover", str(cover), "--trials", "200"]
    assert cli.main(argv + ["--tol", "2.1e-15", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == (
        "FAIL: 200 characters, 16 states, max spectral distance 2.576e-14 "
        "(tolerance 2.1e-15 x radius 1.236e+01)\n"
    )
    assert captured.err == (
        "numerical failure: pushforward routes disagree: trial 58 has distance 2.309e-14 "
        "at radius 1.094e+01 (distance/radius 2.111e-15 > tolerance 2.1e-15)\n"
    )
    doc = json.loads(out.read_text())
    assert doc["passed"] is False and doc["max_spectral_distance"] == 2.5757174171303632e-14


def test_cover_check_keeps_one_slice_of_reports(two_state_model, swap_cover, tmp_path, capsys):
    # the characters are held whole (chi and 1/chi, 32 B per entry), the
    # reports one slice at a time: about 230 B per trial, 23 MB here, if all kept
    import tracemalloc

    trials, n_chars = 100_000, 2
    argv = ["cover-check", "--model", str(two_state_model), "--cover", str(swap_cover)]
    argv += ["--trials", str(trials), "--out", str(tmp_path / "out.json")]
    cli.main(argv[:-4] + ["--trials", "2"])  # the modules imported before tracing
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith(f"PASS: {trials} characters, 4 states")
    assert peak < 32 * trials * n_chars + 6e6


def test_cover_check_unsupported_cover(two_state_model, tmp_path, capsys):
    cover = UnbranchedCover(sheets=3, perms=((3, 1, 2), (2, 3, 1)))
    path = tmp_path / "bad_cover.json"
    path.write_text(json.dumps(cover_to_json(cover)), encoding="utf-8")
    code = cli.main(
        ["cover-check", "--model", str(two_state_model), "--cover", str(path)]
    )
    # a structurally unsupported cover is a failed check, not a usage error
    assert code == 3
    assert "directions" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cover_check_rejects_fewer_than_one_trial(two_state_model, swap_cover, trials, capsys):
    code = cli.main(
        [
            "cover-check",
            "--model",
            str(two_state_model),
            "--cover",
            str(swap_cover),
            "--trials",
            trials,
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "--trials" in captured.err


@pytest.mark.parametrize(
    "sheets, perms, name, value",
    [
        (2.9, [[2.7, 1.2], [True, 2]], "sheets", 2.9),
        (2, [[2.7, 1.2], [1, 2]], "a sheet in perms", 2.7),
        (2, [[2, 1], [True, 2]], "a sheet in perms", True),
        (False, [[1], [1]], "sheets", False),
    ],
)
def test_cover_check_refuses_non_integer_cover_fields(
    two_state_model, tmp_path, capsys, sheets, perms, name, value
):
    # read with int(), the first document was the valid swap cover ((2, 1), (1, 2))
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"hyperband_cover": 1, "sheets": sheets, "perms": perms}))
    code = cli.main(["cover-check", "--model", str(two_state_model), "--cover", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must be an integer, got {value!r}\n"


def test_cover_check_reads_integral_floats_as_integers(two_state_model, swap_cover, tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"hyperband_cover": 1, "sheets": 2.0, "perms": [[2.0, 1], [1, 2.0]]}))
    outputs = []
    for cover in (swap_cover, path):
        assert cli.main(["cover-check", "--model", str(two_state_model), "--cover", str(cover)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cover_check_leaves_numpy_ma_unimported(two_state_model, swap_cover):
    # numpy.ma costs about 20 ms to import; the library never needs it
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperband.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from hyperband import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.exit(code if 'numpy.ma' not in sys.modules else 'numpy.ma was imported')\n"
    )
    argv = ["cover-check", "--model", str(two_state_model), "--cover", str(swap_cover), "--trials", "3"]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS: 3 characters")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bloch-variety", "--model", "{model}"],
        ["higgs-toy", "--u", "2", "--m", "3"],
        ["cover-check", "--model", "{model}", "--cover", "{cover}", "--trials", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_tolerance_that_would_disable_its_check_is_refused(
    two_state_model, swap_cover, capsys, argv, tol
):
    argv = [a.format(model=two_state_model, cover=swap_cover) for a in argv]
    assert cli.main([*argv, f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be a finite number >= 0, got {float(tol)!r}\n"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_config_supplies_options(single_site_model, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": str(single_site_model), "grid": "4,4"}), encoding="utf-8"
    )
    out = tmp_path / "bands.csv"
    code = cli.main(["bands", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert len(csv_rows(out.read_text())) == 16


def test_flags_override_config(single_site_model, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": str(single_site_model), "grid": "4,4"}), encoding="utf-8"
    )
    out = tmp_path / "bands.csv"
    code = cli.main(
        ["bands", "--config", str(cfg), "--grid", "2,2", "--out", str(out)]
    )
    assert code == 0
    assert len(csv_rows(out.read_text())) == 4


def test_config_native_json_types(single_site_model, tmp_path):
    # config may use JSON-native values, not just strings
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": str(single_site_model), "grid": [4, 4]}), encoding="utf-8"
    )
    out = tmp_path / "bands.csv"
    assert cli.main(["bands", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(csv_rows(out.read_text())) == 16


def test_config_must_be_object(single_site_model, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]", encoding="utf-8")
    code = cli.main(["bands", "--config", str(cfg), "--model", str(single_site_model)])
    assert code == 2


def test_config_rejects_unknown_keys(single_site_model, tmp_path, capsys):
    # a typo must not fall back to the default 8x8 grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": str(single_site_model), "gird": "64,64"}), encoding="utf-8"
    )
    out = tmp_path / "bands.csv"
    code = cli.main(["bands", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'gird'" in err
    assert all(name in err for name in ("grid", "model", "out", "region"))


# ---------------------------------------------------------------------------
# option values: one table per option, flag strings and config values alike
# ---------------------------------------------------------------------------


def _run_with_option(tmp_path, argv, option, value, source):
    """cli.main with `option` set by a flag string or a config value; (code, out path)."""
    out = tmp_path / "out"
    if source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}), encoding="utf-8")
        argv = argv + ["--config", str(cfg)]
    else:
        argv = argv + [f"--{option}={value}"]
    return cli.main(argv + ["--out", str(out)]), out


def _assert_refused(code, out, option, capsys):
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert code == 2 and not out.exists()
    assert len(errors) == 1 and f"cannot read {option}=" in errors[0]


@pytest.mark.parametrize(
    "source, value, points",
    [
        ("flag", "4", 16),
        ("flag", "3,5", 15),
        ("flag", " 3 ,5", 15),
        ("flag", "4.5", None),
        ("flag", "a,b", None),
        ("config", "3,5", 15),
        ("config", 4, 16),
        ("config", [3, 5], 15),
        ("config", ["3", 5], 15),
        ("config", [4.0, 4], 16),
        ("config", [4.5, 4], None),  # used to run a 4 x 4 grid
        ("config", True, None),  # used to run a 1 x 1 grid
        ("config", [True, 4], None),
        ("config", [None, 4], None),
    ],
)
def test_grid_option_values(single_site_model, tmp_path, capsys, source, value, points):
    argv = ["bands", "--model", str(single_site_model)]
    code, out = _run_with_option(tmp_path, argv, "grid", value, source)
    if points is None:
        _assert_refused(code, out, "grid", capsys)
    else:
        assert code == 0 and len(csv_rows(out.read_text())) == points


@pytest.mark.parametrize(
    "source, value, moduli",
    [
        ("flag", "-0.1:0.1:3", 3),
        ("flag", "-0.1:0.1:2.7", None),
        ("flag", "-0.1:0.1", None),
        ("flag", "-0.1,0.1,3", None),
        ("config", "-0.1:0.1:3", 3),
        ("config", [-0.1, 0.1, 3], 3),
        ("config", [-0.1, 0.1, 3.0], 3),
        ("config", ["-0.1", 0.1, "2"], 2),
        ("config", [-0.1, 0.1, 2.7], None),  # used to sweep 2 moduli
        ("config", [-0.1, 0.1, True], None),
        ("config", [-0.1, 0.1], None),
        ("config", 3, None),
    ],
)
def test_region_option_values(single_site_model, tmp_path, capsys, source, value, moduli):
    argv = ["bands", "--model", str(single_site_model), "--grid", "2"]
    code, out = _run_with_option(tmp_path, argv, "region", value, source)
    if moduli is None:
        _assert_refused(code, out, "region", capsys)
    else:
        assert code == 0 and len(csv_rows(out.read_text())) == (2 * moduli) ** 2


@pytest.mark.parametrize(
    "source, value, expected",
    [
        ("flag", "2", [2.0, 0.0]),
        ("flag", "2,0.5", [2.0, 0.5]),
        ("flag", "2,-0.0", [2.0, -0.0]),
        ("flag", "two", None),
        ("flag", "2,0.5,1", None),
        ("config", "2,0.5", [2.0, 0.5]),
        ("config", 2, [2.0, 0.0]),
        ("config", [2, 0.5], [2.0, 0.5]),
        ("config", ["2", "0.5"], [2.0, 0.5]),
        ("config", [2], None),
        ("config", [True, 1], None),  # used to read 1+1j
        ("config", [2, None], None),
    ],
)
def test_complex_option_values(tmp_path, capsys, source, value, expected):
    code, out = _run_with_option(tmp_path, ["higgs-toy", "--u", "0.3"], "m", value, source)
    if expected is None:
        _assert_refused(code, out, "m", capsys)
    else:
        assert code == 0
        m = json.loads(out.read_text())["m"]
        assert m == expected and [np.signbit(x) for x in m] == [np.signbit(x) for x in expected]


@pytest.mark.parametrize(
    "source, value, expected",
    [
        ("flag", "0.5,0.25", [0.5, 0.25]),
        ("flag", "0.5", [0.5, 0.0]),
        ("flag", "a,b", None),
        ("flag", "1,2,3", None),
        ("config", "0.5,0.25", [0.5, 0.25]),
        ("config", [0.5, 0.25], [0.5, 0.25]),
        ("config", 0.5, [0.5, 0.0]),  # a lone number reads like the flag "0.5"
        ("config", [0.5], None),
        ("config", [False, 0.5], None),  # used to read (0.0, 0.5)
        ("config", {"x": 0.5}, None),
    ],
)
def test_vector_option_values(tmp_path, capsys, source, value, expected):
    code, out = _run_with_option(tmp_path, ["euclidean", "--tau", "0,1"], "k", value, source)
    if expected is None:
        _assert_refused(code, out, "k", capsys)
    else:
        assert code == 0 and json.loads(out.read_text())["k"] == expected


@pytest.mark.parametrize(
    "option, source, value, expected",
    [
        ("trials", "flag", "3", 3),
        ("trials", "flag", "2.5", None),
        ("trials", "flag", "abc", None),
        ("trials", "config", 3, 3),
        ("trials", "config", "3", 3),
        ("trials", "config", 3.0, 3),
        ("trials", "config", 2.5, None),  # used to run 2 trials
        ("trials", "config", True, None),  # used to run 1 trial
        ("trials", "config", None, None),
        ("tol", "flag", "1e-6", 1e-6),
        ("tol", "flag", "tight", None),
        ("tol", "config", 1e-6, 1e-6),
        ("tol", "config", "1e-6", 1e-6),
        ("tol", "config", True, None),  # used to read 1.0
        ("seed", "flag", "7", 7),
        ("seed", "flag", "7.5", None),
        ("seed", "config", 7, 7),
        ("seed", "config", True, None),  # used to run seed 1
    ],
)
def test_cover_check_scalar_option_values(
    two_state_model, swap_cover, tmp_path, capsys, option, source, value, expected
):
    argv = ["cover-check", "--model", str(two_state_model), "--cover", str(swap_cover)]
    code, out = _run_with_option(tmp_path, argv, option, value, source)
    if expected is None:
        _assert_refused(code, out, option, capsys)
        return
    assert code == 0
    reference = tmp_path / "reference"
    assert cli.main(argv + [f"--{option}={expected}", "--out", str(reference)]) == 0
    assert out.read_text() == reference.read_text()
    doc = json.loads(out.read_text())
    assert {"trials": doc["trials"], "tol": doc["tolerance"]}.get(option, expected) == expected


@pytest.mark.parametrize(
    "source, value, count",
    [
        ("flag", "3", 3),
        ("flag", "3.9", None),
        ("config", 3, 3),
        ("config", 3.9, None),  # used to print 3 bands
        ("config", False, None),
    ],
)
def test_bands_count_option_values(tmp_path, capsys, source, value, count):
    code, out = _run_with_option(tmp_path, ["euclidean", "--tau", "0,1"], "bands", value, source)
    if count is None:
        _assert_refused(code, out, "bands", capsys)
    else:
        assert code == 0 and len(json.loads(out.read_text())["bands"]) == count


# ---------------------------------------------------------------------------
# the option table: defaults, --help, oversized inputs
# ---------------------------------------------------------------------------

#: every defaulted option, as the README states it and as a JSON config value
DEFAULTS = {
    "bands": {"grid": ("8", 8)},
    "bloch-variety": {"tol": ("1e-8", 1e-8), "seed": ("0", 0)},
    "euclidean": {"k": ("0,0", [0, 0]), "bands": ("8", 8)},
    "higgs-toy": {"B": ("1", 1), "tol": ("1e-9", 1e-9), "seed": ("0", 0)},
    "spectral-curve": {"B": ("1", [1, 0])},
    "cover-check": {"trials": ("20", 20), "tol": ("1e-9", 1e-9), "seed": ("0", 0)},
}


def _required_inputs(command, single_site_model, two_state_model, swap_cover):
    return {
        "bands": ["--model", str(single_site_model)],
        "bloch-variety": ["--model", str(two_state_model)],
        "euclidean": ["--tau", "0.2,1.1"],
        "higgs-toy": ["--u", "2", "--m", "3,0.5"],
        "spectral-curve": ["--u", "2", "--m", "3,0.5"],
        "cover-check": ["--model", str(two_state_model), "--cover", str(swap_cover)],
    }[command]


def test_table_declares_the_stated_defaults():
    declared = {
        command: {name for name, _, default, _ in options if default is not None}
        for command, (_, _, options) in cli._COMMANDS.items()
    }
    assert declared == {command: set(options) for command, options in DEFAULTS.items()}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_explicit_defaults_give_the_same_bytes(
    command, single_site_model, two_state_model, swap_cover, tmp_path, capsys
):
    # required inputs alone; then every default given by flag; then by config
    required = _required_inputs(command, single_site_model, two_state_model, swap_cover)
    flags = [f"--{name}={text}" for name, (text, _) in DEFAULTS[command].items()]
    config = tmp_path / "defaults.json"
    config.write_text(json.dumps({n: v for n, (_, v) in DEFAULTS[command].items()}))
    runs = []
    for extra in ([], flags, ["--config", str(config)]):
        out = tmp_path / f"out{len(runs)}"
        assert cli.main([command, *required, *extra, "--out", str(out)]) == 0
        runs.append((out.read_bytes(), capsys.readouterr()))
    assert runs[0][0] and runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_help_shows_every_table_default(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "400")  # one line per option
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, (text, _) in DEFAULTS[command].items():
        (line,) = [l for l in lines if l.lstrip().startswith(f"--{name} ")]
        assert line.endswith(f"(default {text})"), line


def test_oversized_bands_grid_is_refused_before_any_hamiltonian_is_assembled(
    single_site_model, monkeypatch, capsys
):
    from hyperband import spectra

    def unreachable(*args):
        raise AssertionError("a Hamiltonian was assembled")

    monkeypatch.setattr(spectra, "_assemble", unreachable)
    code = cli.main(["bands", "--model", str(single_site_model), "--grid", "1000000,1000000"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: bands grid too large: about 16000.0 GB of bands")
    assert "1000000000000 points" in err and "the limit is 1.1 GB" in err


def test_long_bands_axis_is_refused_before_any_axis_is_built(single_site_model, monkeypatch, capsys):
    # 60,000,002 axis entries keep 0.96 GB but would peak near 2.5 GB while built
    from hyperband import spectra

    def unreachable(*args):
        raise AssertionError("an axis was built")

    monkeypatch.setattr(spectra, "_roots_of_unity", unreachable)
    code = cli.main(["bands", "--model", str(single_site_model), "--grid", "2,60000000"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: bands grid too large: about 2.9 GB of axes of 60000002 entries; the limit is 1.1 GB\n"
    )


def test_oversized_cover_check_is_refused_before_the_characters_are_drawn(
    two_state_model, swap_cover, monkeypatch, capsys
):
    def unreachable(*args):
        raise AssertionError("characters drawn")

    monkeypatch.setattr(np.random, "default_rng", unreachable)
    argv = ["cover-check", "--model", str(two_state_model), "--cover", str(swap_cover)]
    code = cli.main(argv + ["--trials", "10000000000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cover check too large: about ")
    assert "10000000000 trials (cover genus 1)" in captured.err


# ---------------------------------------------------------------------------
# counts past any array: one size rule refuses each, before it is built
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def count_inputs(tmp_path_factory):
    """A one-state genus-1 model, the swap cover, and a file for each case's config or cover."""
    root = tmp_path_factory.mktemp("counts")
    paths = {name: root / f"{name}.json" for name in ("model", "cover", "case")}
    write_model(TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]]), paths["model"])
    paths["cover"].write_text(json.dumps(cover_to_json(UnbranchedCover(2, ((2, 1), (1, 2))))))
    return {name: str(path) for name, path in paths.items()}


def _refused_in_one_line(argv, inputs) -> str:
    """Run `argv` in-process; assert exit 2, no output, one `error:` line within 2 s; that line."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([arg.format(**inputs) for arg in argv])
    elapsed = time.perf_counter() - start
    lines = err.getvalue().splitlines()
    assert code == 2 and out.getvalue() == "" and elapsed < 2.0
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


#: each count option: its subcommand's other arguments and, for a count N,
#: the option's flag value and its config value as JSON text
COUNT_OPTIONS = [
    ("grid", ["bands", "--model", "{model}"], "{n}", "{n}"),
    ("grid", ["bands", "--model", "{model}"], "3,{n}", "[3, {n}]"),
    ("region", ["bands", "--model", "{model}", "--grid", "2"], "0:1:{n}", "[0, 1, {n}]"),
    ("trials", ["cover-check", "--model", "{model}", "--cover", "{cover}"], "{n}", "{n}"),
    ("bands", ["euclidean", "--tau", "0,1"], "{n}", "{n}"),
]
COVER_DOCUMENT = '{{"hyperband_cover": 1, "sheets": {n}, "perms": [[2, 1], [1, 2]]}}'


@settings(max_examples=80)
@given(
    case=st.sampled_from([*range(len(COUNT_OPTIONS))] * 2 + ["sheets"]),
    source=st.sampled_from(["flag", "config"]),
    lead=st.integers(1, 9),
    zeros=st.integers(10, 5000),
)
# the longest int a flag or a JSON document may hold has 4300 digits
@example(case=0, source="flag", lead=9, zeros=4299)
@example(case=0, source="config", lead=9, zeros=4299)
@example(case="sheets", source="flag", lead=9, zeros=4299)
@example(case=3, source="config", lead=1, zeros=4300)
def test_property_counts_past_any_array_exit_2_in_one_line(count_inputs, case, source, lead, zeros):
    # counts from 10^10 to thousands of digits, as flags, config values and
    # cover sheets: a clear refusal, never a traceback, an allocation or a hang
    n = f"{lead}{'0' * zeros}"
    if case == "sheets":
        with open(count_inputs["case"], "w", encoding="utf-8") as fh:
            fh.write(COVER_DOCUMENT.format(n=n))
        argv = ["cover-check", "--model", "{model}", "--cover", "{case}"]
    else:
        option, argv, flag, config = COUNT_OPTIONS[case]
        if source == "flag":
            argv = argv + [f"--{option}={flag.format(n=n)}"]
        else:
            with open(count_inputs["case"], "w", encoding="utf-8") as fh:
                fh.write(f'{{"{option}": {config.format(n=n)}}}')
            argv = argv + ["--config", "{case}"]
    _refused_in_one_line(argv, count_inputs)


#: inputs that used to end in a traceback, a memory error or a hang, and the
#: start of their refusal
CRASH_PATHS = {
    "bands grid": (["bands", "--model", "{model}", "--grid", "1" + "0" * 400], "bands grid too large"),
    "cover sheets": (["cover-check", "--model", "{model}", "--cover", "{case}"], "entry 1 is not a permutation"),
    "euclidean bands": (["euclidean", "--tau", "0,1", "--bands", "1" + "0" * 30], "empty-lattice window too large"),
    "cover-check trials": (
        ["cover-check", "--model", "{model}", "--cover", "{cover}", "--trials", "1" + "0" * 400],
        "cover check too large",
    ),
    "euclidean k": (["euclidean", "--tau", "0,1", "--k", "1e300,0"], "k out of range"),
    "euclidean bands slow": (["euclidean", "--tau", "0,1", "--bands", "100000000"], "empty-lattice window too large"),
    "tau underflow": (["euclidean", "--tau", "0,1e-320"], "tau out of range"),
    "tau overflow": (["euclidean", "--tau", "1e300,1"], "tau out of range"),
}


@pytest.mark.parametrize("path", CRASH_PATHS)
def test_crash_paths_exit_2_in_one_line(count_inputs, path):
    argv, refusal = CRASH_PATHS[path]
    with open(count_inputs["case"], "w", encoding="utf-8") as fh:
        fh.write(COVER_DOCUMENT.format(n="1" + "0" * 400))
    assert _refused_in_one_line(argv, count_inputs).startswith(f"error: {refusal}")


def test_large_cover_check_is_refused_before_any_stack_is_built(tmp_path, monkeypatch):
    # a cyclic genus-2 cover of 8192 sheets at d = 1: 56 (dN)^2 B = 3.8 GB per trial
    from hyperband import covers_quivers

    def unreachable(*args):
        raise AssertionError("a stack was built")

    monkeypatch.setattr(covers_quivers, "_assemble_monomial", unreachable)
    inputs = {"model": str(tmp_path / "model.json"), "cover": str(tmp_path / "cover.json")}
    write_model(TightBindingModel(2, [[0.5]], [[[1.0]], [[0.5j]], [[0.3]], [[0.2j]]]), inputs["model"])
    n = 8192
    perms = [[(s + 1) % n + 1 for s in range(n)]] + [list(range(1, n + 1))] * 3
    Path(inputs["cover"]).write_text(json.dumps({"hyperband_cover": 1, "sheets": n, "perms": perms}))
    line = _refused_in_one_line(["cover-check", "--model", "{model}", "--cover", "{cover}"], inputs)
    assert line == (
        "error: cover check too large: about 3.8 GB of Hamiltonians of 8192 states per trial; "
        "the limit is 1.1 GB"
    )


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    calls, original = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or original())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert cli.main(["euclidean", "--tau", "0,1"]) == 0
        assert cli.main([]) == 2
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_no_subcommand_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# installed entry points
# ---------------------------------------------------------------------------


def test_module_entry_point(single_site_model):
    # the child imports the same hyperband as this process, installed or not
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperband.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hyperband", "euclidean", "--tau", "0,1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["hyperband_euclidean"] == 1


# ---------------------------------------------------------------------------
# documentation
# ---------------------------------------------------------------------------


def test_readme_usage_block_names_every_option():
    # each subcommand's line in README's command-line block names each of its
    # long options; --config and --out are described once for all of them
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = {line.split()[1]: line for line in usage.splitlines() if line.startswith("hyperband ")}
    parser = cli.build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(lines) == sorted(subcommands.choices)
    for name, sub in subcommands.choices.items():
        options = [o for a in sub._actions for o in a.option_strings if o.startswith("--")]
        for option in sorted(set(options) - {"--config", "--out", "--help"}):
            assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", lines[name]), (name, option)
