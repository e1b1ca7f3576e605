"""Shared test configuration and helpers.

Hypothesis draws the same examples on every run and has no deadline, so a
property test passes or fails the same way on every run and on a slow host.
"""

import errno
import os
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


class FullDisk:
    """A file that takes its first ``writes`` writes, then fails each one as a full disk would."""

    def __init__(self, handle, writes):
        self.handle, self.left = handle, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        if not self.left:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.left -= 1
        return self.handle.write(data)


def fill_disk_after(monkeypatch, module, writes):
    """Make every file ``module`` opens a :class:`FullDisk` that takes ``writes`` writes."""
    monkeypatch.setattr(module, "open", lambda *args: FullDisk(open(*args), writes), raising=False)
