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

`_EXPORTS` below is the one list of public names.  `import hyperband`
imports none of the modules: a name is looked up in the table, and its own
module is imported (with what that module imports) on first use, so
`hyperband.read_model` loads `tight_binding`, `momenta` and `surface_group`,
never `spectra` or `covers_quivers`.
"""

import importlib

__version__ = "0.1.0"

#: each re-exported module, in dependency order, and its public names
_EXPORTS = {
    "errors": ("NumericalCheckFailure", "UnsupportedCoverError"),
    "surface_group": (
        "SurfaceGroup", "Word", "make_surface_group", "free_reduce", "evaluate_word",
    ),
    "momenta": (
        "AbelianMomentum", "NonabelianMomentum", "euclidean_character", "direct_sum",
        "split_complex", "abelian_to_nonabelian", "relator_residual", "commutant_dimension",
    ),
    "tight_binding": (
        "TightBindingModel", "BlochHamiltonian", "bloch_abelian", "bloch_nonabelian",
        "adjoint_momentum", "model_to_json", "model_from_json", "read_model", "write_model",
    ),
    "spectra": (
        "MomentumGrid", "unitary_grid", "complex_region_grid", "BandStructure", "eigenvalues",
        "sweep", "spectral_radius", "DegeneracyGroup", "detect_crossings", "BlochVariety",
        "bloch_variety", "write_bands_csv",
    ),
    "euclidean": (
        "EuclideanLattice", "ReciprocalLattice", "reciprocal", "EmptyLatticeBands",
        "empty_lattice_bands", "DispersionValue", "complex_dispersion", "two_torsion_points",
        "fold", "modular_lambda",
    ),
    "higgs_toy": (
        "INFINITY", "ToyModelPoint", "RationalMatrixOneForm", "connection_matrices",
        "higgs_matrices", "connection_form", "higgs_form", "evaluate_form",
        "hitchin_coordinate", "hitchin_closed_form", "local_monodromy_eigenvalues",
    ),
    "spectral_curve": (
        "Rank2TwistedHiggs", "feasibility", "char_poly", "discriminant",
        "BranchPoint", "SpectralCurveInfo", "curve_info",
        "toy_to_twisted", "curve_report", "higgs_to_json", "higgs_from_json",
        "higgs_from_json_file",
    ),
    "covers_quivers": (
        "UnbranchedCover", "cover_genus", "supercell", "induce", "CoverPushforward",
        "PushforwardReport", "pushforward_check", "cover_to_json", "cover_from_json",
        "read_cover", "Quiver", "QuiverArrow", "quiver_from_model", "torus_action", "reassemble",
    ),
}
#: public name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """A submodule (`cli` too), or a public name from its own module, bound here once read."""
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
