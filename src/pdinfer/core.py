"""Core types and densities for the one-parameter Poisson-Dirichlet model.

A sample of discrete observations is summarized by its abundance partition:
``rho_t`` counts how many distinct species were observed exactly ``t`` times.
Everything downstream (the Ewens sampling formula, maximum likelihood, the
predictive probabilities of the urn scheme) depends on the data only through
that partition, so this module owns the two data containers, the two
probability functions and the sums over ``psi + j`` that every other module
builds on: the rising factorial, :func:`expected_distinct` (whose root is the
MLE) and :func:`fisher_information`, each summed directly up to a size limit
and in closed form beyond it.

Species identifiers are opaque non-negative integers assigned by ingestion
code in order of first appearance; no numeric result may depend on their
values, only on the multiset of frequencies.

All containers are immutable after construction (the arrays of a
:class:`SpeciesCounts` are read-only) and all operations are pure functions,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, polygamma

__all__ = [
    "NEW",
    "Partition",
    "SpeciesCounts",
    "esf_log_pmf",
    "expected_distinct",
    "fisher_information",
    "partition_of",
    "predictive_prob",
]

# Largest sizes summed directly (the sums allocate O(n) temporaries); beyond
# them the log rising factorial takes log-gamma and the other two sums take
# digamma/trigamma forms. These agree with the sums within the bounds of
# tests/test_core.py but not bit for bit, so the limits fix outputs: a log-sum
# limit of 1e6 changes the benchmark's `files` test_lrt digest at seed 2, a
# sum limit of 1e5 its mle and mle_remapped digests at seeds 1 and 2.
_DIRECT_LOG_SUM_LIMIT = 100_000
_DIRECT_SUM_LIMIT = 1_000_000

# ids are stored as int64
_ID_LIMIT = 2**63

# From this psi up, the three sums beyond their limits use the asymptotic
# series of log-gamma, digamma and trigamma, with the leading log as
# log1p(n / psi): the log-gamma, digamma and trigamma differences cancel when
# psi >> n (at n = 1e6 + 1 and psi = 1e10, the digamma form of E[K_n] is
# 3.2e-5 off, against 9e-11 for the series; at n = 1e5 + 1 and psi = 1e10,
# the log-gamma form of the log rising factorial is 1.8e-5 off, against
# 2e-11). Against 50-digit values at n = 1e6 + 1, 3e6 and 1e8,
# the series is the worse form below psi = 50 (at psi = 10: 4e-10 against
# 2e-15), both are at rounding level from 50 to 1e4, and the scipy forms drift
# from there on (at 1e4: 1.9e-11 against 4e-12).
_SERIES_PSI = 1_000.0


class _NewSpecies:
    """Sentinel naming the event "a species not seen before"."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NEW"


#: Pass as the ``species`` argument of :func:`predictive_prob` to ask for the
#: probability that the next observation is a previously unseen species.
NEW = _NewSpecies()


def _as_ids(values: Iterable[int] | np.ndarray) -> np.ndarray:
    """Species ids as an int64 array; never truncates a float or parses a string.

    Raises:
        ValueError: on a non-integer or negative id, or one that does not
            fit int64.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
    ids = np.asarray(values)
    if ids.size == 0:
        return ids.astype(np.int64)
    if ids.dtype.kind not in "iu":
        # numpy holds ints past int64, alone or mixed with smaller ones, as
        # objects or floats
        items = ids.flat if isinstance(values, np.ndarray) else values
        if ids.dtype.kind in "fO" and all(isinstance(v, (int, np.integer)) for v in items):
            raise ValueError("species ids must fit in a signed 64-bit integer")
        raise ValueError(f"species ids must be integers, got {ids.dtype} values")
    if ids.min() < 0:
        raise ValueError("species ids must be non-negative")
    if ids.dtype.kind == "u" and ids.max() >= _ID_LIMIT:
        raise ValueError("species ids must fit in a signed 64-bit integer")
    return ids.astype(np.int64, copy=False)


def _check_psi(psi: float) -> float:
    """Validate a dispersal parameter: positive and finite."""
    psi = float(psi)
    if not math.isfinite(psi) or psi <= 0.0:
        raise ValueError(
            f"dispersal parameter must be a positive finite number, got {psi!r}"
        )
    return psi


@dataclass(frozen=True, eq=False)
class SpeciesCounts:
    """Frequency table of one sample: ``counts[i]`` observations of species ``ids[i]``.

    Both are read-only int64 arrays of equal length; ``ids`` are strictly
    ascending and non-negative, and every count is at least 1 (an absent
    species has no entry). ``n`` is the total sample size. Look counts up
    with :meth:`count_of`; two tables are equal when both arrays are.
    """

    ids: np.ndarray
    counts: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        ids = np.array(self.ids, dtype=np.int64)
        counts = np.array(self.counts, dtype=np.int64)
        if ids.ndim != 1 or ids.shape != counts.shape:
            raise ValueError("species ids and counts must be 1-d arrays of equal length")
        if ids.size and (ids[0] < 0 or (ids[1:] <= ids[:-1]).any()):
            raise ValueError("species ids must be non-negative and strictly ascending")
        if ids.size and counts.min() < 1:
            raise ValueError("every count must be at least 1")
        ids.flags.writeable = counts.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(counts.sum()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpeciesCounts):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.counts, other.counts)

    @classmethod
    def from_values(cls, values: Iterable[int] | np.ndarray) -> "SpeciesCounts":
        """Count occurrences of each species id in a sequence of observations.

        Memory is proportional to the number of observations, whatever the
        size of the ids.

        Raises:
            ValueError: on a non-integer or negative id, an id that does not
                fit int64, or an array that is not 1-d.
        """
        ids = _as_ids(values)
        if ids.ndim != 1:
            raise ValueError("expected a 1-d array of species ids")
        return cls(*np.unique(ids, return_counts=True))

    @property
    def k_obs(self) -> int:
        """Number of distinct species observed."""
        return self.ids.size

    def count_of(self, species: int | Iterable[int] | np.ndarray) -> np.ndarray:
        """Counts of the given integer ids (0 for an absent id), shaped like ``species``."""
        # numpy reads a list holding an int past int64 as floats: check the objects
        ids = species if isinstance(species, np.ndarray) else np.asarray(species, dtype=object)
        if ids.dtype.kind not in "iu" and not all(
            isinstance(v, int | np.integer) for v in ids.flat
        ):
            raise ValueError("species ids must be integers")
        try:
            species = ids.astype(np.int64, copy=False)
        except OverflowError:
            raise ValueError("species ids must fit in a signed 64-bit integer") from None
        if self.ids.size == 0:
            return np.zeros_like(species)
        at = np.searchsorted(self.ids, species)
        found = self.ids.take(at, mode="clip") == species
        return np.where(found, self.counts.take(at, mode="clip"), 0)


@dataclass(frozen=True)
class Partition:
    """Abundance partition of a sample of size ``n``.

    Stored sparsely as ascending ``(t, rho_t)`` pairs with ``rho_t > 0``,
    where ``rho_t`` is the number of species observed exactly ``t`` times.
    The defining constraint is ``sum(t * rho_t) == n``.
    """

    n: int
    rho: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = int(self.n)
        if n < 1:
            raise ValueError(f"sample size must be at least 1, got {n}")
        pairs = tuple((int(t), int(m)) for t, m in self.rho)
        previous_t = 0
        mass = 0
        for t, m in pairs:
            if t <= previous_t:
                raise ValueError("abundance entries must have unique ascending t")
            if t > n:
                raise ValueError(f"abundance {t} exceeds sample size {n}")
            if m < 1:
                raise ValueError(f"stored multiplicity rho_{t} must be positive")
            previous_t = t
            mass += t * m
        if mass != n:
            raise ValueError(
                f"invalid partition: sum(t * rho_t) = {mass} but n = {n}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rho", pairs)

    @classmethod
    def from_dense(cls, rho: Iterable[int]) -> "Partition":
        """Build from a dense ``(rho_1, rho_2, ...)`` vector; trailing zeros ok."""
        pairs = tuple(
            (t, int(m)) for t, m in enumerate(rho, start=1) if int(m) != 0
        )
        n = sum(t * m for t, m in pairs)
        return cls(n=n, rho=pairs)

    def to_dense(self) -> tuple[int, ...]:
        """Dense ``(rho_1, ..., rho_n)`` vector; intended for small ``n``."""
        dense = [0] * self.n
        for t, m in self.rho:
            dense[t - 1] = m
        return tuple(dense)

    @property
    def k_obs(self) -> int:
        """Number of distinct species, ``sum(rho_t)``."""
        return sum(m for _, m in self.rho)


def partition_of(counts: SpeciesCounts) -> Partition:
    """Reduce a frequency table to its abundance partition.

    Raises:
        ValueError: if the sample is empty.
    """
    if counts.n == 0:
        raise ValueError("empty sample")
    multiplicity = np.bincount(counts.counts)
    t = np.flatnonzero(multiplicity)
    return Partition(n=counts.n, rho=tuple(zip(t.tolist(), multiplicity[t].tolist())))


def _log_rising_factorial(psi: float, n: int) -> float:
    """log of psi * (psi + 1) * ... * (psi + n - 1)."""
    if n <= _DIRECT_LOG_SUM_LIMIT:
        return float(np.log(psi + np.arange(n, dtype=np.float64)).sum())
    if psi >= _SERIES_PSI:
        return (
            (psi - 0.5) * math.log1p(n / psi) + n * math.log(psi + n) - n
            + _lgamma_tail(psi + n) - _lgamma_tail(psi)
        )
    return math.lgamma(psi + n) - math.lgamma(psi)


def _lgamma_tail(z: float) -> float:
    """``lgamma(z) - (z - 1/2) log z + z - log(2 pi) / 2`` by its asymptotic series."""
    return 1 / (12 * z) - 1 / (360 * z**3) + 1 / (1260 * z**5)


def _digamma_tail(z: float) -> float:
    """``digamma(z) - log(z)`` by its asymptotic series; rounding-level for ``z >= 50``."""
    return -1 / (2 * z) - 1 / (12 * z**2) + 1 / (120 * z**4) - 1 / (252 * z**6)


def _trigamma_tail(z: float) -> float:
    """``trigamma(z) - 1/z`` by its asymptotic series; rounding-level for ``z >= 50``."""
    return 1 / (2 * z**2) + 1 / (6 * z**3) - 1 / (30 * z**5) + 1 / (42 * z**7)


def _digamma_gap(psi: float, n: int) -> float:
    """``digamma(psi + n) - digamma(psi)`` without cancellation when ``psi >> n``."""
    return math.log1p(n / psi) + _digamma_tail(psi + n) - _digamma_tail(psi)


def expected_distinct(psi: float, n: int) -> float:
    """Expected number of distinct species in a sample of size ``n``.

    Equals ``sum_{j=1..n} psi / (psi + j - 1)``; strictly increasing in
    ``psi`` with range ``(1, n)`` for ``n >= 2``.
    """
    psi = _check_psi(psi)
    n = int(n)
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    if n <= _DIRECT_SUM_LIMIT:
        return float((psi / (psi + np.arange(n, dtype=np.float64))).sum())
    if psi >= _SERIES_PSI:
        return psi * _digamma_gap(psi, n)
    return float(psi * (digamma(psi + n) - digamma(psi)))


def _distinct_and_slope(psi: float, n: int) -> tuple[float, float]:
    """Bit-identical :func:`expected_distinct` and its log-psi slope, psi^2 fisher_information."""
    if n <= _DIRECT_SUM_LIMIT:
        j = np.arange(n, dtype=np.float64)
        share = psi / (psi + j)
        slope = share * share  # psi j / (psi + j)^2 = share^2 j / psi
        slope *= j
        return float(share.sum()), float(slope.sum()) / psi
    return expected_distinct(psi, n), psi * psi * fisher_information(psi, n)


def fisher_information(psi0: float, n: int) -> float:
    """Fisher information ``sum_i (1/(psi0 (psi0+i-1)) - 1/(psi0+i-1)^2)``.

    Computed from the equivalent all-positive form
    ``sum_i (i-1) / (psi0 (psi0+i-1)^2)``, which avoids cancellation.
    Strictly positive for ``n >= 2``; a single observation carries no
    information about ``psi``.
    """
    psi0 = _check_psi(psi0)
    n = int(n)
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    if n == 1:
        raise ValueError("information is zero: test undefined for n=1")
    if n <= _DIRECT_SUM_LIMIT:
        shifted = psi0 + np.arange(1, n, dtype=np.float64)
        return float((np.arange(1, n, dtype=np.float64) / (psi0 * shifted**2)).sum())
    if psi0 >= _SERIES_PSI:
        drop = n / (psi0 + n) + psi0 * (_trigamma_tail(psi0) - _trigamma_tail(psi0 + n))
        return (_digamma_gap(psi0, n) - drop) / psi0
    # the i = 1 terms (1/psi0^2 each) cancel exactly; left in, they swamp the
    # result for small psi0 (2.8e-8 relative error at psi0 = 1e-10, n = 1e6 + 1)
    harmonic = float(digamma(psi0 + n) - digamma(psi0 + 1))
    return harmonic / psi0 - float(polygamma(1, psi0 + 1) - polygamma(1, psi0 + n))


def esf_log_pmf(rho: Partition, psi: float) -> float:
    """Log probability of an abundance partition under the Ewens sampling formula.

    Computes ``log p(rho | psi)`` for

        p = n! / (psi * (psi+1) * ... * (psi+n-1))
            * prod_t (psi / t)^{rho_t} / rho_t!

    entirely in log space so that large samples neither overflow nor
    underflow.

    Raises:
        ValueError: if ``psi`` is not a positive finite number.
    """
    psi = _check_psi(psi)
    log_p = math.lgamma(rho.n + 1) - _log_rising_factorial(psi, rho.n)
    log_psi = math.log(psi)
    for t, m in rho.rho:
        log_p += m * (log_psi - math.log(t)) - math.lgamma(m + 1)
    return log_p


def predictive_prob(
    counts: SpeciesCounts, psi: float, species: int | _NewSpecies = NEW
) -> float:
    """Predictive probability of the next observation given ``counts``.

    An already-observed species ``j`` has probability ``n_j / (n + psi)``;
    :data:`NEW` (or any id absent from ``counts``) has probability
    ``psi / (n + psi)``. Over the observed species plus NEW these sum to one.
    ``counts`` may be empty, in which case NEW has probability 1.
    """
    psi = _check_psi(psi)
    count = 0 if isinstance(species, _NewSpecies) else int(counts.count_of(species))
    return (count or psi) / (counts.n + psi)
