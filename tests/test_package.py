"""The package namespace: its public names are exactly its modules' lists,
and a module is imported only when one of its names is first used."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hyperband


def test_public_names_are_the_union_of_module_lists():
    # every public module but the command-line entry point is re-exported
    modules = [
        importlib.import_module(f"hyperband.{info.name}")
        for info in pkgutil.iter_modules(hyperband.__path__)
        if not info.name.startswith("_") and info.name != "cli"
    ]
    assert len(modules) == 9
    union = {"__version__"}.union(*(module.__all__ for module in modules))
    assert len(hyperband.__all__) == len(set(hyperband.__all__)) == len(union)
    assert set(hyperband.__all__) == union
    for module in modules:
        for name in module.__all__:
            assert getattr(hyperband, name) is getattr(module, name)
    # the one export that was missing from its module's list
    assert "INFINITY" in hyperband.__all__ and hyperband.INFINITY == float("inf")
    assert isinstance(hyperband.__version__, str)


def test_library_imports_only_the_standard_library_numpy_and_itself():
    # the library is numpy only; the tests and the benchmark may use more
    allowed = set(sys.stdlib_module_names) | {"numpy", "hyperband"}
    sources = sorted(Path(hyperband.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """A new interpreter that imports this process's hyperband, installed or not."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperband.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_package_imports_a_module_when_one_of_its_names_is_first_used():
    script = (
        "import json, sys, hyperband\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('hyperband.'))\n"
        "first = loaded()\n"
        "hyperband.read_model\n"
        "second = loaded()\n"
        "assert 'read_model' in vars(hyperband)\n"
        "from hyperband import *\n"
        "print(json.dumps([first, second, loaded(), len(hyperband.__all__)]))\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    first, second, last, n_names = json.loads(proc.stdout)
    assert first == []
    assert "hyperband.tight_binding" in second
    assert "hyperband.spectra" not in second and "hyperband.covers_quivers" not in second
    assert "hyperband.covers_quivers" in last
    assert n_names == len(hyperband.__all__)


def test_package_refuses_unknown_names():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hyperband.no_such_name
    assert not hasattr(hyperband, "__wrapped__")


def test_bloch_variety_command_does_not_load_covers(tmp_path):
    from hyperband.tight_binding import TightBindingModel, write_model

    model = tmp_path / "model.json"
    out = tmp_path / "variety.json"
    write_model(TightBindingModel(1, [[0.5]], [[[1.0]], [[0.5j]]]), model)
    # what `python -m hyperband bloch-variety ...` runs, then the loaded modules
    script = (
        "import runpy, sys\n"
        f"sys.argv = ['hyperband', 'bloch-variety', '--model', {str(model)!r}, '--out', {str(out)!r}]\n"
        "try:\n"
        "    runpy.run_module('hyperband', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('hyperband.'))))\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert json.loads(out.read_text())["hyperband_bloch_variety"] == 1
    assert "hyperband.spectra" in loaded
    assert "hyperband.covers_quivers" not in loaded


def test_euclidean_command_warns_once_for_a_skew_lattice():
    # the reciprocal basis is solved once per lattice, so its warning prints once
    proc = _fresh_python("-m", "hyperband", "euclidean", "--tau", "0.3,1.1", "--bands", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("UserWarning: closed-form reciprocal basis") == 1
    assert len(json.loads(proc.stdout)["bands"]) == 3
