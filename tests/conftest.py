"""Shared test settings.

Every hypothesis property runs derandomized (each run draws the same
examples, so a failure reproduces) and without a per-example deadline (the
numerical examples vary widely in cost); each test sets its own
`max_examples`.  A test that leaves a non-daemon thread alive fails.
"""

import threading
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


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail the test if a non-daemon thread that was not alive before it still is."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and not t.daemon]
    if left:
        pytest.fail(f"threads left alive: {', '.join(left)}")
