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
"""

from .errors import (
    EverywhereSingularError,
    NumericalCheckFailure,
    UnsupportedCoverError,
)
from .surface_group import (
    SurfaceGroup,
    Word,
    abelianize,
    evaluate_word,
    free_reduce,
    make_surface_group,
)
from .momenta import (
    AbelianMomentum,
    MomentumReport,
    NonabelianMomentum,
    abelian_to_nonabelian,
    direct_sum,
    euclidean_character,
    momentum_from_json,
    momentum_to_json,
    split_complex,
    validate,
)
from .tight_binding import (
    BlochHamiltonian,
    TightBindingModel,
    adjoint_momentum,
    bloch_abelian,
    bloch_nonabelian,
    model_from_json,
    model_to_json,
    read_model,
    write_model,
)
from .spectra import (
    BandStructure,
    BlochVariety,
    DegeneracyGroup,
    MomentumGrid,
    bloch_variety,
    complex_region_grid,
    detect_crossings,
    eigenvalues,
    spectral_radius,
    sweep,
    unitary_grid,
    write_bands_csv,
)
from .euclidean import (
    DispersionValue,
    EmptyLatticeBands,
    EuclideanLattice,
    ReciprocalLattice,
    complex_dispersion,
    empty_lattice_bands,
    fold,
    modular_lambda,
    reciprocal,
    two_torsion_points,
)
from .higgs_toy import (
    INFINITY,
    PushforwardConstants,
    RationalMatrixOneForm,
    ToyModelPoint,
    connection_form,
    connection_matrices,
    evaluate_form,
    higgs_form,
    higgs_matrices,
    hitchin_closed_form,
    hitchin_coordinate,
    local_monodromy_eigenvalues,
    parabolic_pushforward_constants,
    residue_at,
    small_stratum_form,
)
from .spectral_curve import (
    BranchPoint,
    Rank2TwistedHiggs,
    SpectralCurveInfo,
    branch_points,
    char_poly,
    curve_genus,
    curve_info,
    curve_report,
    discriminant,
    feasibility,
    higgs_from_json,
    higgs_from_json_file,
    higgs_to_json,
    toy_to_twisted,
)
from .covers_quivers import (
    CoverPushforward,
    PushforwardReport,
    Quiver,
    QuiverArrow,
    UnbranchedCover,
    cover_from_json,
    cover_genus,
    cover_to_json,
    induce,
    pushforward_check,
    quiver_from_model,
    read_cover,
    reassemble,
    supercell,
    torus_action,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NumericalCheckFailure",
    "UnsupportedCoverError",
    "EverywhereSingularError",
    # surface groups
    "SurfaceGroup",
    "Word",
    "make_surface_group",
    "free_reduce",
    "abelianize",
    "evaluate_word",
    # momenta
    "AbelianMomentum",
    "NonabelianMomentum",
    "MomentumReport",
    "euclidean_character",
    "validate",
    "direct_sum",
    "split_complex",
    "abelian_to_nonabelian",
    "momentum_to_json",
    "momentum_from_json",
    # tight binding
    "TightBindingModel",
    "BlochHamiltonian",
    "bloch_abelian",
    "bloch_nonabelian",
    "adjoint_momentum",
    "model_to_json",
    "model_from_json",
    "read_model",
    "write_model",
    # spectra
    "MomentumGrid",
    "unitary_grid",
    "complex_region_grid",
    "BandStructure",
    "eigenvalues",
    "sweep",
    "spectral_radius",
    "DegeneracyGroup",
    "detect_crossings",
    "BlochVariety",
    "bloch_variety",
    "write_bands_csv",
    # euclidean
    "EuclideanLattice",
    "ReciprocalLattice",
    "reciprocal",
    "EmptyLatticeBands",
    "empty_lattice_bands",
    "DispersionValue",
    "complex_dispersion",
    "two_torsion_points",
    "fold",
    "modular_lambda",
    # higgs toy
    "INFINITY",
    "ToyModelPoint",
    "RationalMatrixOneForm",
    "connection_matrices",
    "higgs_matrices",
    "connection_form",
    "higgs_form",
    "evaluate_form",
    "residue_at",
    "hitchin_coordinate",
    "hitchin_closed_form",
    "local_monodromy_eigenvalues",
    "small_stratum_form",
    "PushforwardConstants",
    "parabolic_pushforward_constants",
    # spectral curves
    "Rank2TwistedHiggs",
    "feasibility",
    "char_poly",
    "discriminant",
    "BranchPoint",
    "SpectralCurveInfo",
    "branch_points",
    "curve_genus",
    "curve_info",
    "toy_to_twisted",
    "curve_report",
    "higgs_to_json",
    "higgs_from_json",
    "higgs_from_json_file",
    # covers and quivers
    "UnbranchedCover",
    "cover_genus",
    "supercell",
    "induce",
    "CoverPushforward",
    "PushforwardReport",
    "pushforward_check",
    "cover_to_json",
    "cover_from_json",
    "read_cover",
    "Quiver",
    "QuiverArrow",
    "quiver_from_model",
    "torus_action",
    "reassemble",
]
