"""The package namespace: its public names are exactly its modules' lists."""

import importlib
import pkgutil

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
