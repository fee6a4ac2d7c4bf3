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

from .errors import *  # noqa: F401,F403
from .surface_group import *  # noqa: F401,F403
from .momenta import *  # noqa: F401,F403
from .tight_binding import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .euclidean import *  # noqa: F401,F403
from .higgs_toy import *  # noqa: F401,F403
from .spectral_curve import *  # noqa: F401,F403
from .covers_quivers import *  # noqa: F401,F403
from . import errors, surface_group, momenta, tight_binding, spectra
from . import euclidean, higgs_toy, spectral_curve, covers_quivers

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"] + [
    name
    for module in (
        errors, surface_group, momenta, tight_binding, spectra,
        euclidean, higgs_toy, spectral_curve, covers_quivers,
    )
    for name in module.__all__
]
