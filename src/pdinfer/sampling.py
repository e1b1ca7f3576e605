"""Sequence generation from the one-parameter Poisson-Dirichlet urn scheme.

Observation ``m + 1`` is a brand-new species with probability
``psi / (m + psi)`` and a copy of a uniformly chosen earlier observation
otherwise (equivalently: an existing species with probability proportional
to its count). Species ids are assigned 0, 1, 2, ... in order of first
appearance.

The draw at position ``i`` is new with a probability that depends only on
``i``, and an old draw copies a uniformly random earlier position, so the
whole sequence can be generated vectorized: sample the new/old flags and the
copy sources up front, then resolve the copy chains by pointer doubling
(every chain ends at a new position after O(log n) rounds). This is the
same process as the sequential loop, just a few orders of magnitude faster.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import SpeciesCounts, _check_psi

__all__ = [
    "GeneratedSequence",
    "UrnConfig",
    "derive_seeds",
    "sample_labeled_dataset",
    "sample_sequence",
]

_SEED_LIMIT = 2**64


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


@dataclass(frozen=True)
class UrnConfig:
    """Parameters of one generated sequence: dispersal, length, seed."""

    psi: float
    length: int
    seed: int

    def __post_init__(self) -> None:
        _check_psi(self.psi)
        if int(self.length) < 1:
            raise ValueError(f"length must be at least 1, got {self.length}")
        object.__setattr__(self, "length", int(self.length))
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass(frozen=True, eq=False)
class GeneratedSequence:
    """One generated sequence plus its frequency table and the seed used.

    ``values[i]`` is the species id of observation ``i``; ids form the
    contiguous range ``0 .. k_obs - 1`` in order of first appearance, so
    they are counted directly as indices (``ValueError`` on an id not below
    the sequence length or a gap in the range).
    """

    values: np.ndarray
    counts: SpeciesCounts = field(init=False)
    seed_used: int

    def __post_init__(self) -> None:
        if self.values.size and self.values.max() >= self.values.size:
            raise ValueError("species ids must be the contiguous range 0 .. k_obs - 1")
        counts = np.bincount(self.values)
        object.__setattr__(self, "counts", SpeciesCounts(np.arange(counts.size), counts))


def derive_seeds(master_seed: int, count: int) -> tuple[int, ...]:
    """Derive ``count`` independent 64-bit seeds from one master seed.

    This is the package's single seed-mixing function (the seed-sequence
    expansion of the master seed); dataset and experiment headers record
    the master seed so every derived stream can be reproduced.
    """
    master_seed = _check_seed(master_seed)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    state = np.random.SeedSequence(master_seed).generate_state(count, np.uint64)
    return tuple(int(s) for s in state)


def _urn_values(psi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Generate ``n`` species ids from the urn with the given generator."""
    positions = np.arange(n, dtype=np.int64)
    # independent new/old decisions: P(new at i) = psi / (psi + i)
    is_new = rng.random(n) * (positions + psi) < psi
    # old draws copy a uniform earlier position (never used at i = 0)
    copy_source = (rng.random(n) * positions).astype(np.int64)
    parent = np.where(is_new, positions, copy_source)
    # pointer doubling: after k rounds each position points 2^k steps up its
    # copy chain, clamped at new positions (which point to themselves)
    while not is_new[parent].all():
        parent = parent[parent]
    species_at_root = np.cumsum(is_new) - 1
    return species_at_root[parent]


def sample_sequence(config: UrnConfig) -> GeneratedSequence:
    """Generate one sequence; deterministic given the config."""
    rng = np.random.default_rng(config.seed)
    values = _urn_values(config.psi, config.length, rng)
    return GeneratedSequence(values=values, seed_used=config.seed)


def sample_labeled_dataset(
    psis: Sequence[float], per_class_size: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Generate one independent sequence per class as ``(labels, values)`` arrays.

    Class ``c`` gets its own urn with dispersal ``psis[c]`` and the derived
    seed ``derive_seeds(seed, k)[c]``, so classes are independent and the
    class sizes are exactly balanced; the classes follow one another in
    label order. Species ids are per-class first-appearance ids; id ``i``
    denotes the same feature value in every class, which makes the
    dispersal parameters the only class-separating signal.
    """
    k = len(psis)
    if k < 1:
        raise ValueError("need at least one class")
    if int(per_class_size) < 1:
        raise ValueError(f"per-class size must be at least 1, got {per_class_size}")
    class_seeds = derive_seeds(seed, k)
    labels = np.repeat(np.arange(k, dtype=np.int64), int(per_class_size))
    values = np.concatenate([
        sample_sequence(UrnConfig(psi, int(per_class_size), class_seed)).values
        for psi, class_seed in zip(psis, class_seeds)
    ])
    return labels, values
