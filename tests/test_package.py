"""The package namespace: its public names are exactly its modules' lists."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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
