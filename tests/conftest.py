"""Shared test settings.

Every hypothesis property runs derandomized (each run draws the same
examples, so a failure reproduces) and without a per-example deadline (the
numerical examples vary widely in cost); each test sets its own
`max_examples`.
"""

from unittest import mock

import pytest
from hypothesis import settings

from hyperband import spectra

settings.register_profile("hyperband", derandomize=True, deadline=None)
settings.load_profile("hyperband")


@pytest.fixture(scope="session")
def chunk_budget():
    """`with chunk_budget(nbytes):` sets the slice budget `spectra._CHUNK_BYTES`.

    Sweeps, Bloch varieties and cover checks all slice their work by it.
    Session-scoped and stateless, so hypothesis properties can use it too.
    """
    return lambda nbytes: mock.patch.object(spectra, "_CHUNK_BYTES", nbytes)
