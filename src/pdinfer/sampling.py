"""Sequence generation from the one-parameter Poisson-Dirichlet urn scheme.

Observation ``m + 1`` is a brand-new species with probability
``psi / (m + psi)`` and a copy of a uniformly chosen earlier observation
otherwise (equivalently: an existing species with probability proportional
to its count). Species ids are assigned 0, 1, 2, ... in order of first
appearance.

The draw at position ``i`` is new with a probability that depends only on
``i``, and an old draw copies a uniformly random earlier position, so the
whole sequence can be generated vectorized: sample the new/old flags and the
copy sources up front, then resolve the copy chains by pointer doubling.
The new positions (the roots) point to themselves, and the doubling stops at
its fixed point, where every position points to its chain's root, after
O(log n) rounds. The fixed point is found by a sum: every pointer moves only
to an earlier position, so a round can only lower pointers, and a round that
leaves the pointers' sum unchanged has left every pointer unchanged. A root's
species id is its rank among the roots, so the ids follow first appearance.
This is the same process as the sequential loop, just a few orders of
magnitude faster, and it works in three length-n buffers. A sampled sequence
is counted only when its ``counts`` is read.

Labeled data is one urn draw per class, made by ``_sample_classes``: both
:func:`sample_labeled_dataset` and the convergence study's test sets draw
through it. The study's training data is only ever read as frequency tables,
so ``_grown_tables`` draws those and no ids: the first table counts one urn
draw, and each later one grows the last by the exact law of the urn's next
items, so its memory follows the number of species, not of items.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (SpeciesCounts, _as_ids, _as_int, _check_psi, _contiguous,
                   _first_appearance_table, _unchecked)

__all__ = [
    "GeneratedSequence",
    "UrnConfig",
    "derive_seeds",
    "sample_labeled_dataset",
    "sample_sequence",
]

_SEED_LIMIT = 2**64


def _check_seed(seed: int) -> int:
    return _as_int(seed, "seed", 0, _SEED_LIMIT)


@dataclass(frozen=True)
class UrnConfig:
    """Parameters of one generated sequence: dispersal, length, seed."""

    psi: float
    length: int
    seed: int

    def __post_init__(self) -> None:
        _check_psi(self.psi)
        object.__setattr__(self, "length", _as_int(self.length, "length"))
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass(frozen=True, eq=False)
class GeneratedSequence:
    """One generated sequence and the seed used, with its frequency table on demand.

    ``values[i]`` is the species id of observation ``i``, a read-only 1-d int64
    array; ids form the contiguous range ``0 .. k_obs - 1`` in order of first
    appearance. The constructor copies a caller's values through the integer
    gate and counts them at once with :meth:`SpeciesCounts.from_values`, whose
    memory follows the length whatever the ids (``ValueError`` names the first
    id missing from the range); :func:`sample_sequence`, whose ids are
    contiguous by construction, leaves ``counts`` to the first read.
    """

    values: np.ndarray
    seed_used: int

    def __post_init__(self) -> None:
        values = np.array(_as_ids(self.values, ndim=1))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        # the checked table fills the cache
        self.__dict__["counts"] = _contiguous(SpeciesCounts.from_values(values), "species ids")

    @functools.cached_property
    def counts(self) -> SpeciesCounts:
        """Frequency table of ``values``, counted on first read."""
        return _first_appearance_table(np.bincount(self.values), self.values.size)


def derive_seeds(master_seed: int, count: int) -> tuple[int, ...]:
    """Derive ``count`` independent 64-bit seeds from one master seed.

    This is the package's single seed-mixing function (the seed-sequence
    expansion of the master seed); dataset and experiment headers record
    the master seed so every derived stream can be reproduced.
    """
    state = np.random.SeedSequence(_check_seed(master_seed)).generate_state(
        _as_int(count, "count"), np.uint64
    )
    return tuple(int(s) for s in state)


def _urn_values(psi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Generate ``n`` species ids from the urn with the given generator.

    Works in three length-``n`` buffers, allocated in this order: the positions,
    the uniform draws and the returned ids, each reused once its first role ends.
    """
    # float positions are exact below 2^53, so both products match int64 ones
    positions = np.arange(n, dtype=np.float64)
    draws = rng.random(n)
    values = np.empty(n, dtype=np.int64)
    # independent new/old decisions: P(new at i) = psi / (psi + i)
    draws *= np.add(positions, psi, out=values.view(np.float64))
    roots = np.flatnonzero(draws < psi)
    # old draws copy a uniform earlier position (never used at i = 0)
    rng.random(out=draws)
    draws *= positions
    parent = positions.view(np.int64)
    parent[...] = draws  # truncates, as astype(np.int64) does
    parent[roots] = roots
    # pointer doubling: after k rounds each position points 2^k steps up its
    # copy chain, clamped at the roots, the only positions that point to
    # themselves. take(mode="clip") never clips, every index being in range;
    # mode="raise" would buffer ``out``. A pointer only moves to an earlier
    # position, so grand <= parent elementwise and equal sums mean equal
    # arrays; the sums differ by less than n^2 / 2 < 2^64 at any n that fits
    # in memory, so their int64 wrap-around cannot make them meet early
    grand = draws.view(np.int64)
    total = int(parent.sum())
    while True:
        parent.take(parent, out=grand, mode="clip")
        total, previous = int(grand.sum()), total
        if total == previous:
            break
        parent, grand = grand, parent
    # the last gather equals parent, so its buffer is free to map roots to ranks
    grand[roots] = np.arange(roots.size)
    return grand.take(parent, out=values, mode="clip")


def sample_sequence(config: UrnConfig) -> GeneratedSequence:
    """Generate one sequence; deterministic given the config.

    The urn's ids are contiguous first-appearance ids by construction, so the
    result skips the constructor's gate and counting; ``counts`` is built on
    first read.
    """
    rng = np.random.default_rng(config.seed)
    values = _urn_values(config.psi, config.length, rng)
    return _unchecked(GeneratedSequence, values=values, seed_used=config.seed)


def _grown_tables(psi: float, ends: Iterable[int], seed: int) -> Iterator[SpeciesCounts]:
    """The frequency table of one urn draw's first ``end`` items, for each ascending ``end``.

    The draw's ids are never held: the table at the first end counts an urn
    draw of that length, made as :func:`sample_sequence` makes it from
    ``seed``, and each later table grows the last by the exact law of the
    urn's next ``step`` items (Blackwell & MacQueen 1973; Pitman 2006, ch. 3).
    Given counts ``t_1..t_K``, the old species' increments and the total ``x``
    that goes to new species are Dirichlet-multinomial(step; t_1..t_K, psi),
    drawn as normalised gammas and a multinomial, and the ``x`` new items are
    a fresh urn draw of that size with its own first-appearance ids, appended
    as ids ``K, K + 1, ...``: the order in which the whole draw first meets
    them. A repeated end yields the same table again. Preconditions, not
    checked: ``ends`` ascend (repeats allowed) from at least 1.
    """
    rng = np.random.default_rng(seed)
    ends = iter(ends)
    n = next(ends)
    counts = np.bincount(_urn_values(psi, n, rng))
    yield _first_appearance_table(counts, n)
    for end in ends:
        if end > n:
            weights = rng.standard_gamma(np.append(counts, psi))
            grown = rng.multinomial(end - n, weights / weights.sum())
            new = np.bincount(_urn_values(psi, int(grown[-1]), rng))
            grown[:-1] += counts
            counts, n = np.concatenate((grown[:-1], new)), end
        yield _first_appearance_table(counts, n)


def _sample_classes(psis: Sequence[float], size: int, seeds: Sequence[int]) -> list[np.ndarray]:
    """One urn draw of ``size`` ids per class, in label order.

    Class ``c`` draws with dispersal ``psis[c]`` and seed ``seeds[c]``, through
    this module's ``sample_sequence``. Class ids are left to the caller: the
    study's test sets need none.
    """
    return [sample_sequence(UrnConfig(psi, size, seed)).values for psi, seed in zip(psis, seeds)]


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
    per_class_size = _as_int(per_class_size, "per-class size")
    labels = np.repeat(np.arange(k, dtype=np.int64), per_class_size)
    return labels, np.concatenate(_sample_classes(psis, per_class_size, derive_seeds(seed, k)))
