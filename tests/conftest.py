"""Shared test configuration and helpers.

Hypothesis draws the same examples on every run and has no deadline, so a
property test passes or fails the same way on every run and on a slow host.
"""

import tracemalloc

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def traced_peak(call):
    """The peak of tracemalloc's traced memory, in bytes, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
