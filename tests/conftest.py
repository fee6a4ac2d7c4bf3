"""Shared test settings.

Every hypothesis property runs derandomized (each run draws the same
examples, so a failure reproduces) and without a per-example deadline (the
numerical examples vary widely in cost); each test sets its own
`max_examples`.
"""

from hypothesis import settings

settings.register_profile("hyperband", derandomize=True, deadline=None)
settings.load_profile("hyperband")
