"""Brute-force oracles, kept independent of the library implementation.

Expected values in the test suite are computed here by enumeration or exact
rational arithmetic, or from whole partitions where the library works from
``(n, k)`` alone, never by the code paths under test.
"""

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np

from pdinfer import esf_log_pmf
from pdinfer.core import _HEAD, _POWER_SUM_RATIO, _stirling_tails


def integer_partitions(n):
    """All partitions of ``n`` as ``{part size: multiplicity}`` dicts."""

    def parts(remaining, max_part):
        if remaining == 0:
            yield []
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in parts(remaining - first, first):
                yield [first] + rest

    for p in parts(n, n):
        yield dict(Counter(p))


def first_appearance_sequences(n):
    """Every sequence of ``n`` first-appearance ids: the urn's outcomes at that length."""
    sequences = [()]
    for _ in range(n):
        sequences = [seq + (v,) for seq in sequences for v in range(max(seq, default=-1) + 2)]
    return sequences


def urn_probability(sequence, psi):
    """Probability that the urn with dispersal ``psi`` draws exactly ``sequence``."""
    probability, counts = 1.0, []
    for i, species in enumerate(sequence):
        if species == len(counts):
            probability *= psi / (i + psi)
            counts.append(1)
        else:
            probability *= counts[species] / (i + psi)
            counts[species] += 1
    return probability


def urn_values_reference(psi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """The urn sampler in its first vectorized form, kept as the reference for its rewrites.

    Same draws in the same order: new/old flags at ``psi / (psi + i)``, then
    uniform copy sources; copy chains are resolved by pointer doubling until
    every position points to a new one, and species are numbered by a running
    count of the new positions.
    """
    positions = np.arange(n, dtype=np.int64)
    is_new = rng.random(n) * (positions + psi) < psi
    copy_source = (rng.random(n) * positions).astype(np.int64)
    parent = np.where(is_new, positions, copy_source)
    while not is_new[parent].all():
        parent = parent[parent]
    species_at_root = np.cumsum(is_new) - 1
    return species_at_root[parent]


def log_rising_factorial_reference(psi: float, n: int) -> float:
    """``core._log_rising_factorial`` with its head over a fresh ``arange``, as first written.

    Kept as the reference for rewrites of the head: same elementwise operations
    and the same pairwise sum, so results must match bit for bit. The series
    past the head is core's own.
    """
    log_head = float(np.log(psi + np.arange(min(n, _HEAD), dtype=np.float64)).sum())
    if n <= _HEAD:
        return log_head
    m, z0, z1 = n - _HEAD, psi + _HEAD, psi + n
    tails = _stirling_tails(z1)[0] - _stirling_tails(z0)[0]
    return log_head + (z0 - 0.5) * math.log1p(m / z0) + m * math.log(z1) - m + tails


def distinct_and_slope_reference(psi: float, n: int) -> tuple[float, float]:
    """``core._distinct_and_slope`` with its head over a fresh ``arange``, as first written.

    Kept as the reference for rewrites of the head, like
    :func:`log_rising_factorial_reference`.
    """
    j = np.arange(min(n, _HEAD), dtype=np.float64)
    total = psi + j
    share = psi / total
    j /= total
    j *= share
    distinct, variance = float(share.sum()), float(j.sum())
    if n <= _HEAD:
        return distinct, variance
    m, z0, z1 = n - _HEAD, psi + _HEAD, psi + n
    _, d0, t0 = _stirling_tails(z0)
    _, d1, t1 = _stirling_tails(z1)
    gap = math.log1p(m / z0) + d1 - d0
    distinct += psi * gap
    if n > _POWER_SUM_RATIO * psi:
        return distinct, variance + psi * (gap - psi * (m / z0 / z1 + t0 - t1))
    x = 1 / psi
    s1 = x * n * (n - 1) / 2
    d = x * (2 * n - 1)
    return distinct, s1 * (1 - 2 * d / 3 + 3 * x * s1 - 4 * d * (6 * x * s1 - x * x) / 15)


def esf_prob_exact(rho: dict, psi: Fraction) -> Fraction:
    """Exact rational Ewens probability of the partition ``{t: rho_t}``."""
    psi = Fraction(psi)
    n = sum(t * m for t, m in rho.items())
    prob = Fraction(math.factorial(n))
    for j in range(n):
        prob /= psi + j
    for t, m in rho.items():
        prob *= (psi / t) ** m
        prob /= math.factorial(m)
    return prob


def expected_distinct_exact(psi: Fraction, n: int) -> Fraction:
    """Exact rational expected number of distinct species."""
    psi = Fraction(psi)
    return sum(psi / (psi + j) for j in range(n))


def lr_statistic_from_partitions(samples, per_sample_psi, pooled_psi):
    """Likelihood ratio statistic ``2 sum_j [log p(rho_j | psi_j) - log p(rho_j | psi_0)]``.

    Sums whole Ewens log-probabilities of each partition ``rho_j`` at its own
    estimate ``psi_j`` and at the pooled one ``psi_0``, clipped at 0 like the
    library's statistic.
    """
    unrestricted = sum(esf_log_pmf(p, psi) for p, psi in zip(samples, per_sample_psi))
    restricted = sum(esf_log_pmf(p, pooled_psi) for p in samples)
    return max(0.0, 2.0 * (unrestricted - restricted))


def _log_factor(train_counts, class_sizes, psis, c, v, q):
    """Log factor of an item of value ``v`` labeled ``c``, one of ``q`` such items.

    ``train_counts[c]`` maps value -> count in class ``c``'s training data,
    ``class_sizes[c]`` is that class's size and ``psis[c]`` its dispersal.
    The factor is ``(t + q - 1) / (m + q - 1 + psi)`` if
    ``t = train_counts[c][v] > 0``, else ``psi / (m + q - 1 + psi)``.
    """
    t = train_counts[c].get(v, 0)
    numerator = t + q - 1 if t > 0 else psis[c]
    return math.log(numerator) - math.log(class_sizes[c] + q - 1 + psis[c])


def joint_log_score(train_counts, class_sizes, psis, values, labels):
    """The simultaneous classifier's joint log score: every item's log factor, summed.

    An item's ``q`` counts the items of its value with its label, itself
    included; the arguments are those of :func:`_log_factor`.
    """
    size = Counter(zip(labels, values))
    return sum(
        _log_factor(train_counts, class_sizes, psis, c, v, size[c, v])
        for c, v in zip(labels, values)
    )


def greedy_joint_labeling(train_counts, class_sizes, psis, values, max_sweeps=100, eps=1e-12):
    """Plain greedy ascent of :func:`joint_log_score`.

    Starts from the marginal labeling (``q = 1``, lowest class on ties),
    visits the items in input order and moves one to the class that raises
    the joint score most, if by more than ``eps``. Returns the labels, the
    sweep count, whether the last sweep moved nothing, and each item's log
    factor.
    """
    k = len(psis)

    def log_factor(c, v, q):
        return _log_factor(train_counts, class_sizes, psis, c, v, q)

    def group_term(c, v, q):  # the q co-assigned items' share of the joint score
        return q * log_factor(c, v, q) if q else 0.0

    labels = []
    for v in values:
        scores = [log_factor(c, v, 1) for c in range(k)]
        labels.append(scores.index(max(scores)))
    size = Counter(zip(labels, values))
    sweeps, converged = 0, False
    while sweeps < max_sweeps and not converged:
        sweeps += 1
        converged = True
        for i, v in enumerate(values):
            a = labels[i]
            q_a = size[a, v]
            leave = group_term(a, v, q_a - 1) - group_term(a, v, q_a)
            best, best_delta = a, 0.0
            for c in range(k):
                if c != a:
                    delta = leave + group_term(c, v, size[c, v] + 1) - group_term(c, v, size[c, v])
                    if delta > best_delta:
                        best, best_delta = c, delta
            if best_delta > eps:
                size[a, v] -= 1
                size[best, v] += 1
                labels[i] = best
                converged = False
    per_item_log = [log_factor(c, v, size[c, v]) for c, v in zip(labels, values)]
    return labels, sweeps, converged, per_item_log


def dataset_body_reference(values, labels=None) -> bytes:
    """A dataset body made by one Python format call per row: the reference for the digit kernel."""
    rows = map(str, values) if labels is None else map("{}\t{}".format, labels, values)
    return "".join(row + "\n" for row in rows).encode()


def chi_square_sf_reference(x: float, df: int) -> float:
    """Chi-square tail ``P(X > x)``: mpmath's regularized upper gamma ``Q(df/2, x/2)`` at 40 digits.

    Where mpmath's series does not converge (odd ``df`` near ``10^9``), scipy's
    ``gammaincc`` stands in.
    """
    try:
        with mpmath.workdps(40):
            return float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                         regularized=True))
    except mpmath.libmp.NoConvergence:
        from scipy.special import gammaincc

        return float(gammaincc(df / 2, x / 2))
