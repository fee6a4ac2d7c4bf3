"""The six subcommands' output bytes, pinned by sha256 digests.

Each subcommand runs on tiny fixed inputs, every matrix at most 16 x 16 so
that no eigensolve depends on the BLAS thread count, in a fresh interpreter
with OPENBLAS_NUM_THREADS=1 and in one with the variable unset.  The digests
of stdout and of the --out file, and the exit code, must match the recorded
ones.  A changed digest means changed output bytes: re-record `DIGESTS` only
for an intended output change, and say so.  To measure them, run this file:
`python tests/test_output_digests.py` prints the digests under each BLAS
setting and exits 1 if the two disagree.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
if __name__ == "__main__":  # run as a script, outside pytest's pythonpath
    sys.path.insert(0, SRC)

from hyperband.covers_quivers import UnbranchedCover, cover_to_json
from hyperband.spectral_curve import Rank2TwistedHiggs, higgs_to_json
from hyperband.tight_binding import TightBindingModel, write_model

from test_tight_binding import random_model

# case name -> argv after the input paths are filled in; {out} is the --out file
CASES = {
    "bands": ["bands", "--model", "{pair}", "--grid", "3,4", "--out", "{out}"],
    "bands-stdout": ["bands", "--model", "{pair}", "--grid", "2"],
    "bands-region": ["bands", "--model", "{pair}", "--grid", "2,3", "--region=-0.3:0.2:2", "--out", "{out}"],
    "bands-degenerate": ["bands", "--model", "{doubled}", "--grid", "3", "--out", "{out}"],
    "bloch-variety": ["bloch-variety", "--model", "{pair}", "--seed", "3", "--out", "{out}"],
    "bloch-variety-genus-2": ["bloch-variety", "--model", "{genus2}", "--out", "{out}"],
    "euclidean": ["euclidean", "--tau", "0.3,1.1", "--k", "0.1,-0.2", "--bands", "6", "--out", "{out}"],
    "higgs-toy": ["higgs-toy", "--u", "0.7,0.2", "--m", "2,0.5", "--seed", "5", "--out", "{out}"],
    "spectral-curve": ["spectral-curve", "--u", "0.7,0.2", "--m", "2,0.5", "--out", "{out}"],
    "spectral-curve-higgs": ["spectral-curve", "--higgs", "{higgs}", "--out", "{out}"],
    "cover-check": ["cover-check", "--model", "{pair}", "--cover", "{swap}", "--trials", "7", "--seed", "1", "--out", "{out}"],
    "cover-check-fail": ["cover-check", "--model", "{genus2}", "--cover", "{cycle}", "--trials", "4", "--tol", "1e-30", "--out", "{out}"],
}

# runs every case in one interpreter: argv[1] is a JSON {case: argv} map,
# stdout gets a JSON {case: [exit code, sha256 of stdout, sha256 of --out]}
DRIVER = """
import contextlib, hashlib, io, json, os, sys
from hyperband import cli
digests = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = next((a for a, flag in zip(argv[1:], argv) if flag == "--out"), None)
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    data = open(out, "rb").read() if out else b""
    digests[name] = [code, hashlib.sha256(buf.getvalue().encode()).hexdigest(),
                     hashlib.sha256(data).hexdigest()]
print(json.dumps(digests, sort_keys=True))
"""

#: case -> [exit code, sha256 of stdout, sha256 of the --out file]
EMPTY = hashlib.sha256(b"").hexdigest()
DIGESTS = {
    "bands": [
        0,
        EMPTY,
        "70162d5c75f9e1e5b1878952405aac15737c19c600ca690687ced2bb9eb986db",
    ],
    "bands-degenerate": [
        0,
        EMPTY,
        "17acf06ece041bb5cca2dd064518395818e6f738876bd0ea04a3005efe039817",
    ],
    "bands-region": [
        0,
        EMPTY,
        "b118381f9229d886205dff02401b70be71c00c8c841707433d4dc254397a6c23",
    ],
    "bands-stdout": [
        0,
        "bc0e9a8fae8465fe066be36769ae45ee6adeb8d2bcaa5ae42bea427b6ec9f505",
        EMPTY,
    ],
    "bloch-variety": [
        0,
        EMPTY,
        "b9fd7b4f7896ca2669e7e49b80b811439527a8948428924bca50d91525cc8e0e",
    ],
    "bloch-variety-genus-2": [
        0,
        EMPTY,
        "81c9c5d7d3f0fdcdab460f504f9821711281dad1d42e284832b853329fdea3cc",
    ],
    "cover-check": [
        0,
        "6c0481e4bb5bcc0eca3afa96b37386e8b6937efb1c23f7f98b649855470169b7",
        "9bd74290942740805710bb569efd17882cbd0a7bf6a7078178a7bdd6dc4b4779",
    ],
    "cover-check-fail": [
        3,
        "093148719b0c7de89d468ed011fe291625fd48aed586ceca16c266cd5000bfa5",
        "de3d71a04e7fe326a245ca5470232d807aab3a574f02cfa04b8cf0f5557ea9fc",
    ],
    "euclidean": [
        0,
        EMPTY,
        "f07bdac485b8b500a9e28a55a2a7ecc286a81fd9554e25f173d5285bcf70e44d",
    ],
    "higgs-toy": [
        0,
        EMPTY,
        "b2ed6f83cea2bb57a74f2451448b56b23357ce64240c3eefc941efe29ea2c940",
    ],
    "spectral-curve": [
        0,
        EMPTY,
        "4dd2876e2876e476c8003a38e5638ed7ded13accfb5bd1f3ec18339b55b6df9d",
    ],
    "spectral-curve-higgs": [
        0,
        EMPTY,
        "1a2f4ec396a02b8ac14f057458ed5906f487f6506f59b70d7f5d6ecb38d12cf1",
    ],
}


def write_cases(root: Path) -> dict:
    """Write the fixed inputs under `root`; return each case's argv."""
    pair = random_model(np.random.default_rng(11), 1, 2)
    paths = {name: root / f"{name}.json" for name in ("pair", "doubled", "genus2", "swap", "cycle", "higgs")}
    write_model(pair, paths["pair"])
    base = random_model(np.random.default_rng(12), 1, 1)  # M (+) M: degenerate everywhere
    doubled = TightBindingModel(1, np.kron(np.eye(2), base.onsite), [np.kron(np.eye(2), h) for h in base.hops])
    write_model(doubled, paths["doubled"])
    write_model(random_model(np.random.default_rng(13), 2, 2), paths["genus2"])
    swap = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))
    cycle = UnbranchedCover(sheets=4, perms=((2, 3, 4, 1), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)))
    for name, cover in (("swap", swap), ("cycle", cycle)):
        paths[name].write_text(json.dumps(cover_to_json(cover)), encoding="utf-8")
    rng = np.random.default_rng(14)
    entries = tuple(tuple(rng.normal(size=n) + 1j * rng.normal(size=n) for n in row) for row in ((3, 3), (3, 3)))
    paths["higgs"].write_text(json.dumps(higgs_to_json(Rank2TwistedHiggs(2, 1, entries))), encoding="utf-8")
    fill = {name: str(path) for name, path in paths.items()}
    return {
        name: [arg.format(out=str(root / f"{name}.out"), **fill) for arg in argv]
        for name, argv in CASES.items()
    }


def measure(case_argv: dict, threads) -> dict:
    """Every case's [exit code, stdout digest, --out digest], run by `DRIVER` in
    a fresh interpreter with OPENBLAS_NUM_THREADS=threads (None: unset)."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(case_argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(run.stdout)


@pytest.fixture(scope="module")
def case_argv(tmp_path_factory):
    return write_cases(tmp_path_factory.mktemp("digests"))


@pytest.mark.parametrize("threads", ["1", None], ids=["one-blas-thread", "blas-threads-unset"])
def test_cli_output_digests(case_argv, threads):
    assert measure(case_argv, threads) == DIGESTS


def test_script_fails_when_the_blas_settings_disagree(monkeypatch, capsys):
    runs = {"1": DIGESTS, None: {**DIGESTS, "bands": [0, EMPTY, EMPTY]}}
    monkeypatch.setitem(globals(), "write_cases", lambda root: {})
    monkeypatch.setitem(globals(), "measure", lambda case_argv, threads: runs[threads])
    assert main() == 1
    out, err = capsys.readouterr()
    assert "# differ from DIGESTS: none" in out and err == "the two BLAS settings disagree\n"
    runs[None] = DIGESTS
    assert main() == 0


def main() -> int:
    """Print the measured digests under both BLAS settings, name the cases
    that differ from `DIGESTS`, and return 1 if the two settings disagree."""
    with tempfile.TemporaryDirectory() as root:
        case_argv = write_cases(Path(root))
        measured = {threads: measure(case_argv, threads) for threads in ("1", None)}
    for threads, digests in measured.items():
        print(f"# OPENBLAS_NUM_THREADS={threads or 'unset'}")
        for name in sorted(digests):
            print(f"    {json.dumps(name)}: {json.dumps(digests[name])},")
    changed = sorted(name for name in measured["1"] if measured["1"][name] != DIGESTS.get(name))
    print(f"# differ from DIGESTS: {', '.join(changed) or 'none'}")
    if measured["1"] != measured[None]:
        print("the two BLAS settings disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
