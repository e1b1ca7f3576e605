"""Core types and densities for the one-parameter Poisson-Dirichlet model.

A sample is a frequency table or its abundance partition (``rho_t`` species
seen ``t`` times). Its Ewens likelihood of ``psi`` reads only ``(n, k)``, the
size and the number of distinct species, which :func:`_n_and_k` takes from
either. This module owns the two data containers and the one home of each
formula: the log rising factorial, :func:`_distinct_and_slope` (the only sum
over ``psi + j``, giving ``E[K_n]`` and ``Var[K_n]`` to the fit and both tests)
and the predictive factor :func:`_log_factor`. Each sum adds its first 50 terms
directly and the rest by asymptotic series, in O(1) time and memory; the 50
terms' ``j`` is a slice of one shared read-only array, ``_J``, so no call
builds its own. :func:`_first_appearance_table` is the one build of a table
of first-appearance ids.

Species identifiers are opaque non-negative integers assigned by ingestion
code in order of first appearance; no numeric result may depend on their
values, only on the multiset of frequencies. This module is the package's one
integer gate: :func:`_as_integers` (tables, looked-up ids, partition entries),
:func:`_as_ids` (non-negative ids and labels; "must be a 1-d array" under
``ndim=1``), :func:`_as_labeled` (a labeled pair of id columns, "of equal
length") and :func:`_as_int` (sizes, seeds, sweep counts, degrees of freedom)
are the only conversions of a caller's integers, refusing floats, strings and
bools rather than truncate, parse or read them as 0/1; :func:`_contiguous` holds
ids to exactly 0..k-1 ("must be contiguous 0..k-1, but 7 is missing").

All containers are immutable after construction (the arrays of a
:class:`SpeciesCounts` are read-only) and all operations are pure functions,
so everything here is safe to share across threads. The one memo,
:func:`_distinct_and_slope`'s ``functools.lru_cache`` of at most 4096
``(psi, n)`` pairs (about 1.25 MB), returns the value the sum would, and is
thread-safe: replicate fits and score tests at one ``n`` repeat most pairs.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NEW",
    "Partition",
    "SpeciesCounts",
    "esf_log_pmf",
    "expected_distinct",
    "partition_of",
    "predictive_prob",
]

# The Ewens sums add their first _HEAD terms directly and the rest by Stirling's
# series for log-gamma and its first two derivatives, from psi + _HEAD on. Against
# 90-digit values for psi in [1e-10, 1e15] and n up to 1e11, E[K_n] and the log rising
# factorial are within 3.3e-16 relative, Var[K_n] within 2.4e-14 where n >= 1e-2 psi.
_HEAD = 50
# j = 0 .. _HEAD - 1 of every head, shared read-only; ``_J[:n]`` takes min(n, _HEAD) of them
_J = np.arange(float(_HEAD))
_J.flags.writeable = False

# Where n <= _POWER_SUM_RATIO * psi, Var[K_n] comes from power sums (within 2.3e-16):
# the series difference cancels to about psi / n ulps (8.4e-13 at n = 1e-4 psi).
_POWER_SUM_RATIO = 1e-4

# ids are stored as int64
_ID_LIMIT = 2**63
_INT64 = np.dtype(np.int64)

# Above this largest count, partition_of sorts the counts instead of
# binning them: np.bincount costs about 2.5 us per 1000 of the largest count,
# while np.unique costs 8-15 us for up to 2048 distinct species whatever the
# counts (numpy 2.4, timings in CHANGES.md). A sample of n <= 4096 always
# bins, without a pass for its largest count.
_BINCOUNT_MAX_COUNT = 4096


class _NewSpecies:
    """Sentinel naming the event "a species not seen before"."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NEW"


#: Pass as the ``species`` argument of :func:`predictive_prob` to ask for the
#: probability that the next observation is a previously unseen species.
NEW = _NewSpecies()


def _as_integers(values: int | Iterable[int] | np.ndarray, what: str = "species ids") -> np.ndarray:
    """A caller's integers (one, an iterable or an array of any integer dtype) as int64.

    Floats, strings, bools and ints outside int64 raise ``ValueError`` naming
    ``what``. An integer array is checked by its dtype alone, with no pass over
    its data (a uint64 array by its largest value too); an int64 one comes back
    as it is.
    """
    if isinstance(values, np.ndarray):
        if values.dtype is _INT64:
            return values
        kind = values.dtype.kind
        if kind == "u" and values.dtype.itemsize == 8 and values.size and values.max() >= _ID_LIMIT:
            raise ValueError(f"{what} must fit in a signed 64-bit integer")
        if kind in "iu" or (kind != "O" and not values.size):
            return values.astype(np.int64)
        if kind != "O":
            raise ValueError(f"{what} must be integers, got {values.dtype} values")
    elif isinstance(values, Iterable) and not isinstance(values, (str, bytes)):
        values = list(values)
    # numpy reads [True, 2] as ints and [2**64, 1] as floats: check each item's type
    items = np.asarray(values, dtype=object)
    types = set(map(type, items.flat))
    bad = [t.__name__ for t in types if t is bool or not issubclass(t, (int, np.integer))]
    if bad:
        raise ValueError(f"{what} must be integers, got {'/'.join(sorted(bad))} values")
    try:
        return items.astype(np.int64)
    except OverflowError:
        raise ValueError(f"{what} must fit in a signed 64-bit integer") from None


def _as_ids(
    values: int | Iterable[int] | np.ndarray, what: str = "species ids", ndim: int | None = None
) -> np.ndarray:
    """:func:`_as_integers` for ids and labels: non-negative, and ``ndim``-d if that is given."""
    ids = _as_integers(values, what)
    if ndim is not None and ids.ndim != ndim:
        raise ValueError(f"{what} must be a {ndim}-d array")
    if ids.size and ids.min() < 0:
        raise ValueError(f"{what} must be non-negative")
    return ids


def _as_labeled(labels: Iterable[int] | np.ndarray, values: Iterable[int] | np.ndarray):
    """Class and species ids of a labeled dataset: 1-d :func:`_as_ids` arrays of equal length."""
    labels, values = _as_ids(labels, "class ids", ndim=1), _as_ids(values, ndim=1)
    if labels.shape != values.shape:
        raise ValueError("labels and values must be 1-d arrays of equal length")
    return labels, values


def _contiguous(table: SpeciesCounts, what: str) -> SpeciesCounts:
    """``table`` if its ids are ``0..k-1``, else ``ValueError`` naming the first missing id."""
    gaps = np.flatnonzero(table.ids != np.arange(table.k_obs))
    if gaps.size:
        raise ValueError(f"{what} must be contiguous 0..k-1, but {gaps[0]} is missing")
    return table


def _as_int(value: int, what: str, low: int = 1, high: int = _ID_LIMIT) -> int:
    """A caller's integer as a Python int in ``[low, high)``, refusing floats, strings and bools."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if number < low:
        raise ValueError(f"{what} must be at least {low}, got {number}")
    if number >= high:
        raise ValueError(f"{what} must be below {high}, got {number}")
    return number


def _unchecked(cls: type, **fields: object):
    """``cls(**fields)`` without its ``__post_init__`` checks, for fields the package built valid.

    The public constructors check a caller's data; this is for arrays and tuples
    that are valid by construction (ids ascending, counts positive, mass ``n``).
    Array fields are made read-only, as the checked constructors make them.
    """
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


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
        # copies, so that making them read-only leaves the caller's arrays alone
        ids = np.array(_as_integers(self.ids))
        counts = np.array(_as_integers(self.counts, "counts"))
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

        Ids whose largest is below the number of observations are binned
        (``np.bincount``), others are sorted (``np.unique``); either way memory
        is proportional to the number of observations, whatever the size of
        the ids.

        Raises:
            ValueError: on a non-integer or negative id, an id that does not
                fit int64, or an array that is not 1-d.
        """
        values = _as_ids(values, ndim=1)
        if values.size and values.max() < values.size:
            counts = np.bincount(values)
            ids = np.flatnonzero(counts)
            counts = counts[ids]
        else:
            ids, counts = np.unique(values, return_counts=True)
        # fresh arrays, ascending ids and positive counts: nothing to check or copy
        return _unchecked(cls, ids=ids, counts=counts, n=values.size)

    @property
    def k_obs(self) -> int:
        """Number of distinct species observed."""
        return self.ids.size

    def count_of(self, species: int | Iterable[int] | np.ndarray) -> np.ndarray:
        """Counts of the given integer ids (0 for an absent id), shaped like ``species``."""
        species = _as_integers(species)
        if self.ids.size == 0:
            return np.zeros_like(species)
        at = np.searchsorted(self.ids, species)
        found = self.ids.take(at, mode="clip") == species
        return np.where(found, self.counts.take(at, mode="clip"), 0)


def _first_appearance_table(counts: np.ndarray, n: int) -> SpeciesCounts:
    """The table of ids ``0..k-1`` with these positive ``counts`` of ``n`` first-appearance ids."""
    return _unchecked(SpeciesCounts, ids=np.arange(counts.size), counts=counts, n=n)


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
        n = _as_int(self.n, "sample size")
        entries = _as_integers(self.rho, "abundance entries")
        if entries.size and (entries.ndim != 2 or entries.shape[1] != 2):
            raise ValueError("abundance entries must be (t, rho_t) pairs")
        pairs = tuple(map(tuple, entries.tolist()))
        previous_t = mass = 0
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
            raise ValueError(f"invalid partition: sum(t * rho_t) = {mass} but n = {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rho", pairs)

    @classmethod
    def from_dense(cls, rho: Iterable[int]) -> "Partition":
        """Build from a dense ``(rho_1, rho_2, ...)`` vector; trailing zeros ok."""
        dense = _as_integers(rho, "multiplicities")
        if dense.ndim != 1:
            raise ValueError("multiplicities must be a 1-d vector")
        pairs = tuple((t, m) for t, m in enumerate(dense.tolist(), start=1) if m != 0)
        return cls(n=sum(t * m for t, m in pairs), rho=pairs)

    @property
    def k_obs(self) -> int:
        """Number of distinct species, ``sum(rho_t)``."""
        return sum(m for _, m in self.rho)


def _n_and_k(sample: SpeciesCounts | Partition) -> tuple[int, int]:
    """A sample's size and distinct count, all its likelihood reads; empty raises ``ValueError``."""
    if sample.n == 0:
        raise ValueError("empty sample")
    return sample.n, sample.k_obs


def partition_of(counts: SpeciesCounts) -> Partition:
    """Reduce a frequency table to its abundance partition.

    Raises:
        ValueError: if the sample is empty.
    """
    n, _ = _n_and_k(counts)
    if n > _BINCOUNT_MAX_COUNT and counts.counts.max() > _BINCOUNT_MAX_COUNT:
        t, multiplicity = np.unique(counts.counts, return_counts=True)
    else:
        multiplicity = np.bincount(counts.counts)
        t = np.flatnonzero(multiplicity)
        multiplicity = multiplicity[t]
    # ascending abundances, positive multiplicities and mass n by construction
    return _unchecked(Partition, n=n, rho=tuple(zip(t.tolist(), multiplicity.tolist())))


def _log_rising_factorial(psi: float, n: int) -> float:
    """log of psi * (psi + 1) * ... * (psi + n - 1), in O(1) time and memory."""
    log_head = float(np.add.reduce(np.log(psi + _J[:n])))
    if n <= _HEAD:
        return log_head
    # lgamma(z1) - lgamma(z0), the leading log as log1p
    m, z0, z1 = n - _HEAD, psi + _HEAD, psi + n
    tails = _stirling_tails(z1)[0] - _stirling_tails(z0)[0]
    return log_head + (z0 - 0.5) * math.log1p(m / z0) + m * math.log(z1) - m + tails


def _stirling_tails(z: float) -> tuple[float, float, float]:
    """Stirling's series, at ``z >= 50``, past the leading terms of log-gamma and its derivatives.

    That is ``lgamma(z) - (z - 1/2) log z + z - log(2 pi) / 2``, ``lgamma'(z) - log z`` and
    ``lgamma''(z) - 1/z``, in ``w = 1/z^2`` by Horner's rule so that no power of ``z`` overflows.
    """
    w = 1 / z / z
    return (
        (1 / 12 - w * (1 / 360 - w / 1260)) / z,
        -0.5 / z - w * (1 / 12 - w * (1 / 120 - w / 252)),
        w * (0.5 + (1 / 6 - w * (1 / 30 - w / 42)) / z),
    )


# The memo must hold one job's keys: 200 replicate fits and score tests at one n
# ask for 66-316 distinct (psi, n) pairs in 1230 calls, the study's default run
# for up to 285. An entry holds 230-310 B (tracemalloc), so 4096 are about 1.25 MB.
@functools.lru_cache(maxsize=4096, typed=True)
def _distinct_and_slope(psi: float, n: int) -> tuple[float, float]:
    """Mean ``E = sum_j s_j`` and variance ``V = sum_j s_j j / (psi + j)`` of ``K_n``.

    Sums over ``0 <= j < n`` with ``s_j = psi / (psi + j)``; ``V`` is also
    ``dE / dlog psi`` and ``psi^2`` times the Fisher information. The first
    ``_HEAD`` terms are summed directly (each factor is at most 1, so no
    finite ``psi > 0`` overflows one), the rest in O(1) by series. Memoized
    per ``(psi, n)`` and their types; both results are Python floats.
    """
    psi, n = float(psi), int(n)
    j = _J[:n]
    total = psi + j
    share = psi / total
    slope = np.divide(j, total, out=total)
    slope *= share
    distinct, variance = float(np.add.reduce(share)), float(np.add.reduce(slope))
    if n <= _HEAD:
        return distinct, variance
    # gap = sum of 1 / (psi + j) over _HEAD <= j < n, without cancellation when psi >> n
    m, z0, z1 = n - _HEAD, psi + _HEAD, psi + n
    _, d0, t0 = _stirling_tails(z0)
    _, d1, t1 = _stirling_tails(z1)
    gap = math.log1p(m / z0) + d1 - d0
    distinct += psi * gap
    if n > _POWER_SUM_RATIO * psi:
        return distinct, variance + psi * (gap - psi * (m / z0 / z1 + t0 - t1))
    # V = sum_j x j / (1 + x j)^2 = x S1 - 2 x^2 S2 + 3 x^3 S3 - 4 x^4 S4 + ... with
    # x = 1 / psi and S_p = sum_j j^p, in x S1 by S2 / S1 = (2n - 1) / 3, S3 = S1^2 and
    # S4 / S1 = (2n - 1) (3n (n - 1) - 1) / 15, so that no power of n overflows
    x = 1 / psi
    s1 = x * n * (n - 1) / 2
    d = x * (2 * n - 1)
    return distinct, s1 * (1 - 2 * d / 3 + 3 * x * s1 - 4 * d * (6 * x * s1 - x * x) / 15)


def expected_distinct(psi: float, n: int) -> float:
    """Expected number of distinct species in a sample of size ``n``.

    Equals ``sum_{j=1..n} psi / (psi + j - 1)``; strictly increasing in
    ``psi`` with range ``(1, n)`` for ``n >= 2``.
    """
    return _distinct_and_slope(_check_psi(psi), _as_int(n, "sample size"))[0]


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


def _log_factor(train_count, q, m_c, psi) -> np.ndarray:
    """Log predictive factor of one of ``q`` co-assigned new items sharing a value.

    ``train_count`` is the value's count among the ``m_c`` observations seen
    so far, drawn with dispersal ``psi``; the arguments broadcast. The item's
    ``q - 1`` twins join the numerator only for a value already seen (an
    unseen value keeps ``psi`` there) and always join the denominator.
    ``q = 1`` is the predictive probability of :func:`predictive_prob`.
    """
    numerator = np.where(train_count > 0, train_count + q - 1, psi)
    return np.log(numerator) - np.log(m_c + q - 1 + psi)


def predictive_prob(
    counts: SpeciesCounts, psi: float, species: int | _NewSpecies = NEW
) -> float:
    """Predictive probability of the next observation given ``counts``.

    An already-observed species ``j`` has probability ``n_j / (n + psi)``;
    :data:`NEW` (or any id absent from ``counts``) has probability
    ``psi / (n + psi)``. Over the observed species plus NEW these sum to one.
    ``counts`` may be empty, in which case NEW has probability 1. ``species``
    is one id; a sequence of ids raises ``ValueError``.
    """
    psi = _check_psi(psi)
    count = 0
    if not isinstance(species, _NewSpecies):
        species = _as_ids(species)
        if species.ndim:
            raise ValueError(f"expected one species id, got a sequence of {species.size}")
        count = int(counts.count_of(species))
    return math.exp(_log_factor(count, 1, counts.n, psi))
