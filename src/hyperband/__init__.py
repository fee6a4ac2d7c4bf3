"""hyperband: band structures for tight-binding models on genus-g translation groups.

The pieces, roughly in dependency order:

  surface_group   words, relators, and matrix evaluation for genus-g groups
  momenta         abelian characters and finite-dimensional representations
  tight_binding   cell data (on-site + hops) and momentum-space Hamiltonians
  spectra         grids, band sweeps, crossings, and the Bloch variety
  euclidean       flat genus-1 reference: reciprocal lattices, free bands,
                  complex dispersion, the modular lambda function
  higgs_toy       the explicit rank-2 family on the 4-punctured sphere
  spectral_curve  rank-2 twisted polynomial fields and their branch data
  covers_quivers  finite unbranched covers, pushforward checks, quivers

Everything numerical is numpy; nothing here needs scipy.

Names are re-exported lazily: `hyperband.read_model` imports `tight_binding`
and what it needs, not `spectra` or `covers_quivers`.
"""

import importlib

__version__ = "0.1.0"

#: the re-exported modules in dependency order; each one's __all__ lists its public names
_MODULES = ("errors", "surface_group", "momenta", "tight_binding", "spectra",
            "euclidean", "higgs_toy", "spectral_curve", "covers_quivers")


def __getattr__(name: str):
    """A module, `__all__`, or a public name from the first module (imported as
    the search in dependency order reaches it) that lists it; bound here once found."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    value = ["__version__"]
    # dunder probes (copy, pickle, inspect) import nothing
    for module_name in _MODULES if name == "__all__" or not name.startswith("__") else ():
        module = importlib.import_module(f"{__name__}.{module_name}")
        if name in module.__all__:
            value = getattr(module, name)
            break
        value += module.__all__
    else:
        if name != "__all__":
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
