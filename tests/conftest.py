"""Shared test configuration.

Hypothesis draws the same examples on every run and has no deadline, so a
property test passes or fails the same way on every run and on a slow host.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
