"""The package namespace: one table lists its public names, and a module is
imported only when one of its names is first used; the library's imports."""

import ast
import graphlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hyperband


def test_export_table_names_every_public_definition_once():
    # every public module but the command-line entry point is re-exported
    public = [
        info.name for info in pkgutil.iter_modules(hyperband.__path__)
        if not info.name.startswith("_") and info.name != "cli"
    ]
    assert sorted(hyperband._EXPORTS) == sorted(public) and len(public) == 9
    names = [name for names in hyperband._EXPORTS.values() for name in names]
    assert len(names) == len(set(names))
    assert hyperband.__all__ == ["__version__", *names]
    for module_name, exported in hyperband._EXPORTS.items():
        module = importlib.import_module(f"hyperband.{module_name}")
        for name in exported:
            assert getattr(hyperband, name) is getattr(module, name)
        # the functions and classes the module defines, not those it imports
        defined = {
            name for name, value in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert defined <= set(exported), f"{module_name} does not export {defined - set(exported)}"
    assert hyperband.INFINITY == float("inf")
    assert isinstance(hyperband.__version__, str)


#: exported names, and public members (Class.member) of exported classes,
#: that no library code, acceptance test or benchmark reads, each with what it
#: is kept for; every other export and member needs one of those readers
KEPT = {
    "fold": "the reference the tests check two_torsion_points against",
    "torus_action": "the second route the quiver tests take to reassemble's weights",
    "write_model": "writes the model files the CLI tests read",
    "cover_to_json": "writes the cover files the CLI tests read",
    "higgs_to_json": "writes the twisted-field files the CLI tests read",
    "euclidean_character": "ROADMAP items 2 and 3 join spectral data to it",
    "split_complex": "ROADMAP item 3 replaces it with the Higgs split",
    "direct_sum": "ROADMAP item 7 builds polystable momenta with it",
    "commutant_dimension": "ROADMAP item 7 tells stable momenta from polystable ones with it",
    "Word.inverse": "the reference the monomial-cover tests build their Schreier words with",
    "Rank2TwistedHiggs.evaluate": "the pointwise field the spectral-curve tests check char_poly and the Cayley-Hamilton check against",
    "TightBindingModel.onsite_residual": "ROADMAP item 10 reports it through --metrics",
    "DegeneracyGroup.grid_index": "where a crossing lies, in the result detect_crossings returns",
    "DispersionValue.k_real": "the real part of the split k = k_r + i k_i that split_energy is formed from",
    "DispersionValue.k_imag": "the imaginary part of the split k = k_r + i k_i that split_energy is formed from",
}


def _reads(tree, home=None) -> set:
    """The names a module reads (loaded Name ids and Attribute attrs).

    With `home` (the module's stem), a top-level definition's reads of its
    own name are left out when that name is exported from `home`.
    """
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if not (home and name == own and hyperband._HOME.get(name) == home):
                found.add(name)
    return found


def _members(tree, home) -> dict:
    """{"Class.member": its own definition or None} for the public methods,
    properties and fields (annotated in the class body, or set on self in
    `__init__`) of the classes exported from `home`."""
    found = {}
    for top in tree.body:
        if not (isinstance(top, ast.ClassDef) and hyperband._HOME.get(top.name) == home):
            continue
        for node in top.body:
            own = None
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                names = [
                    target.attr for target in ast.walk(node)
                    if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                    and getattr(target.value, "id", None) == "self"
                ]
            elif isinstance(node, ast.FunctionDef):
                names, own = [node.name], node
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            found.update({f"{top.name}.{name}": own for name in names if not name.startswith("_")})
    return found


def _attribute_reads(tree) -> list:
    """(attr, node) for each loaded Attribute of a module."""
    return [
        (node.attr, node) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def test_every_export_has_a_consumer():
    # a consumer is library code outside the name's own definition, the
    # acceptance tests, the benchmark (its code and dotted names such as
    # tracer.TRACED's), or a KEPT entry saying what the name is kept for; a
    # member (Class.member) is read as an attribute of that name, or named
    # Class.member in a dotted string of the benchmark
    repo = Path(__file__).resolve().parents[1]
    library, members, attributes = set(), {}, []
    for path in sorted(Path(hyperband.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        library |= _reads(tree, path.stem)
        members.update(_members(tree, path.stem))
        attributes += _attribute_reads(tree)
    bench = sorted((repo / "bench").glob("*.py"))
    assert bench and members
    outside, outside_attributes, dotted = set(), set(), set()
    for path in [repo / "tests" / "test_acceptance.py", *bench]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside |= _reads(tree)
        outside_attributes |= {attr for attr, _ in _attribute_reads(tree)}
        if path.parent.name != "bench":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                    parts = node.value.split(".")
                    outside.update(parts)
                    dotted.update(map(".".join, zip(parts, parts[1:])))
    read = library | outside

    def member_read(key) -> bool:
        name, own = key.partition(".")[2], members[key]
        inside = set() if own is None else {id(node) for node in ast.walk(own)}
        return key in dotted or name in outside_attributes or any(
            attr == name and id(node) not in inside for attr, node in attributes
        )

    is_read = lambda name: member_read(name) if name in members else name in read
    unread = [name for name in [*hyperband._HOME, *members] if name not in KEPT and not is_read(name)]
    assert not unread, f"exported but read by nothing: {unread}"
    unknown = set(KEPT) - set(hyperband._HOME) - set(members)
    assert not unknown, f"kept but not exported: {unknown}"
    assert not [name for name in KEPT if is_read(name)], "kept names that something now reads"
    assert all(reason for reason in KEPT.values())


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


#: the constructors and functions that take a count from their caller, by module
COUNT_READERS = {
    "surface_group": ("Word.__post_init__", "SurfaceGroup.__post_init__"),
    "tight_binding": ("TightBindingModel.__init__",),
    "covers_quivers": ("UnbranchedCover.__post_init__", "_check_partition"),
    "spectral_curve": ("feasibility", "Rank2TwistedHiggs.__post_init__"),
    "euclidean": ("empty_lattice_bands",),
    "spectra": ("unitary_grid", "complex_region_grid"),
}


def _functions(tree) -> dict:
    """Each function of a module by its qualified name (Class.method or name)."""
    found = {}
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for func in methods:
            if isinstance(func, ast.FunctionDef):
                found[prefix + func.name] = func
    return found


def test_outside_input_is_read_only_through_serialize():
    # JSON text is parsed in one place, and a count is read with `integer`,
    # which refuses what a bare int() would truncate (2.7 -> 2, True -> 1)
    for path in sorted(Path(hyperband.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                module = getattr(node.func.value, "id", None)
                parses = module == "json" and node.func.attr in ("load", "loads")
                assert path.stem == "_serialize" or not parses, f"{path.name}:{node.lineno} parses JSON"
        functions = _functions(tree)
        for name in COUNT_READERS.get(path.stem, ()):
            for node in ast.walk(functions[name]):
                # int() of a name or field is a value handed in; int(np.argmax(...)) is not
                bare = (
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int"
                    and isinstance(node.args[0], (ast.Name, ast.Attribute))
                )
                assert not bare, f"{path.name}:{node.lineno}: {name} reads a count with int()"


def test_only_serialize_holds_the_array_limit():
    # one size rule: every other module calls `refuse_oversized`, and none
    # defines a limit or a guard of its own or compares against the limit
    limits = {1 << 30, 2**30}
    for path in sorted(Path(hyperband.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "_serialize":
            assert "refuse_oversized" in _functions(tree)
            continue
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            assert name != "_MAX_ARRAY_BYTES", f"{path.name}:{node.lineno} reads the limit"
            assert "oversized" not in str(name) or name == "refuse_oversized", f"{path.name}: {name}"
            literal = isinstance(node, ast.Constant) and node.value in limits
            shifted = isinstance(node, ast.BinOp) and ast.unparse(node) in ("1 << 30", "2 ** 30")
            assert not (literal or shifted), f"{path.name}:{node.lineno} holds a size limit"
    # the bands command leaves every size to the library
    cli_tree = ast.parse((Path(hyperband.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    cmd_bands = _functions(cli_tree)["cmd_bands"]
    assert not any(isinstance(node, ast.BinOp) for node in ast.walk(cmd_bands))
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(cmd_bands) if isinstance(node, ast.Call)}
    assert not called & {"refuse_oversized", "_axis_counts", "prod"}
    assert "math" not in {alias.name for node in ast.walk(cli_tree) if isinstance(node, ast.Import)
                          for alias in node.names}


def test_cli_reads_no_private_attribute_but_its_own():
    # the CLI drives the library through its public names; `self._x` is the
    # option table's own state
    cli_tree = ast.parse((Path(hyperband.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"cli.py:{node.lineno} {ast.unparse(node)}" for node in ast.walk(cli_tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr.startswith("_")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert private == []


def test_crossings_and_branch_points_take_their_clusters_from_one_function():
    # `spectra` and `spectral_curve` each import and call `single_linkage`
    # alone from `_clustering`, and `_clustering` exports nothing else
    root = Path(hyperband.__file__).parent
    for stem in ("spectra", "spectral_curve"):
        tree = ast.parse((root / f"{stem}.py").read_text(encoding="utf-8"))
        imported = [
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "_clustering"
            for alias in node.names
        ]
        assert imported == ["single_linkage"], f"{stem} imports {imported} from _clustering"
        called = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "single_linkage"
        ]
        assert len(called) == 1, f"{stem} calls single_linkage {len(called)} times"
    clustering = ast.parse((root / "_clustering.py").read_text(encoding="utf-8"))
    assert [name for name in _functions(clustering) if not name.startswith("_")] == ["single_linkage"]


def _package_imports(node) -> list:
    """The hyperband modules one import statement names; [] for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("hyperband.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level:
        module = node.module or ""
    elif node.module == "hyperband" or node.module.startswith("hyperband."):
        module = node.module.partition(".")[2]
    else:
        return []
    return [module.split(".")[0]] if module else [alias.name for alias in node.names]


def test_library_imports_nothing_deferred_and_no_cycle():
    # a module imports what it needs at its top, and no two modules need
    # each other; the CLI's subcommands each import the modules they run
    graph = {}
    for path in sorted(Path(hyperband.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        deferred = set()
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found = {id(node) for node in ast.walk(func) if _package_imports(node)}
                assert path.stem == "cli" or not found, f"{path.name}: {func.name} imports a module"
                deferred |= found
        graph[path.stem] = {
            module for node in ast.walk(tree) if id(node) not in deferred
            for module in _package_imports(node)
        }
    assert graph["spectral_curve"] >= {"_clustering", "higgs_toy"}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


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


#: each reader and import path (code) and subcommand (argv), run in a fresh
#: interpreter, and the hyperband modules it loads; {model}, {cover} and
#: {higgs} are input files
LOADS = {
    "read_model": (
        "hyperband.read_model({model!r})",
        "_serialize momenta surface_group tight_binding",
    ),
    "read_cover": (
        "hyperband.read_model({model!r}); hyperband.read_cover({cover!r})",
        "_clustering _serialize covers_quivers errors momenta spectra surface_group tight_binding",
    ),
    "higgs_from_json_file": (
        "hyperband.higgs_from_json_file({higgs!r})",
        "_clustering _serialize errors higgs_toy spectral_curve",
    ),
    "__all__": ("hyperband.__all__", ""),
    "from hyperband import cli": ("from hyperband import cli", "_serialize cli errors"),
    "bands": (
        ["bands", "--model", "{model}", "--grid", "3"],
        "_clustering _serialize cli errors momenta spectra surface_group tight_binding",
    ),
    "bloch-variety": (
        ["bloch-variety", "--model", "{model}"],
        "_clustering _serialize cli errors momenta spectra surface_group tight_binding",
    ),
    "euclidean": (["euclidean", "--tau", "0,1"], "_serialize cli errors euclidean"),
    "higgs-toy": (["higgs-toy", "--u", "0.7", "--m", "2"], "_serialize cli errors higgs_toy"),
    "spectral-curve": (
        ["spectral-curve", "--higgs", "{higgs}"],
        "_clustering _serialize cli errors higgs_toy spectral_curve",
    ),
    "cover-check": (
        ["cover-check", "--model", "{model}", "--cover", "{cover}", "--trials", "2"],
        "_clustering _serialize cli covers_quivers errors momenta spectra surface_group tight_binding",
    ),
}


@pytest.fixture(scope="module")
def load_inputs(tmp_path_factory):
    from hyperband.covers_quivers import UnbranchedCover, cover_to_json
    from hyperband.spectral_curve import Rank2TwistedHiggs, higgs_to_json
    from hyperband.tight_binding import TightBindingModel, write_model

    root = tmp_path_factory.mktemp("loads")
    paths = {name: str(root / f"{name}.json") for name in ("model", "cover", "higgs")}
    write_model(TightBindingModel(1, [[0.5]], [[[1.0]], [[0.5j]]]), paths["model"])
    cover = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))
    Path(paths["cover"]).write_text(json.dumps(cover_to_json(cover)), encoding="utf-8")
    phi = Rank2TwistedHiggs(1, 1, (([1.0, 0.0, 1.0], [2.0]), ([1.0], [0.0, -1.0])))
    Path(paths["higgs"]).write_text(json.dumps(higgs_to_json(phi)), encoding="utf-8")
    return paths


@pytest.mark.parametrize("path", LOADS)
def test_each_path_loads_only_the_modules_it_uses(load_inputs, path):
    code, expected = LOADS[path]
    if isinstance(code, list):  # a subcommand, its stdout discarded
        argv = [arg.format(**load_inputs) for arg in code]
        code = (
            "from hyperband import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0"
        )
    else:
        code = code.format(**load_inputs)
    script = (
        f"import contextlib, io, sys, hyperband\n{code}\n"
        "print(' '.join(sorted(m[10:] for m in sys.modules if m.startswith('hyperband.'))))\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected.split()


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
    # the closed form holds for a skew lattice, so nothing is printed; with
    # the solve put off by 1e-6 the warning prints once, as the reciprocal
    # basis is solved once per lattice
    argv = ["euclidean", "--tau", "0.3,1.1", "--bands", "3"]
    proc = _fresh_python("-m", "hyperband", *argv)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert len(json.loads(proc.stdout)["bands"]) == 3
    script = (
        "import sys, numpy as np\n"
        "inv = np.linalg.inv\n"
        "np.linalg.inv = lambda a: inv(a) * (1 + 1e-6)\n"
        "from hyperband import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("UserWarning: closed-form reciprocal basis") == 1
