"""Hypothesis tests for the dispersal parameter.

A Lagrange multiplier (score) test of ``psi = psi0`` for one sample, with
statistic ``(k - E[K_n])^2 / Var[K_n]`` at ``psi0``, and a likelihood ratio
test of a common ``psi`` across ``s`` samples, from each sample's ``(n, k)``
and log rising factorials; chi-square references with 1 and ``s - 1``
degrees of freedom. Both read a sample (a frequency table or its partition)
only through ``(n, k)``, and the sums live in :mod:`pdinfer.core`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from scipy.special import gammaincc

from .core import (Partition, SpeciesCounts, _as_int, _check_psi, _distinct_and_slope,
                   _log_rising_factorial, _n_and_k)
from .estimation import PsiEstimate, fit_psi, fit_psi_pooled

__all__ = [
    "METHOD_LAGRANGE_MULTIPLIER",
    "METHOD_LIKELIHOOD_RATIO",
    "DegenerateSampleError",
    "TestReport",
    "chi_square_sf",
    "lm_test",
    "lr_test",
    "score_U",
]

METHOD_LAGRANGE_MULTIPLIER = "lagrange_multiplier"
METHOD_LIKELIHOOD_RATIO = "likelihood_ratio"


class DegenerateSampleError(ValueError):
    """A sample's MLE sits on the boundary, so the requested test is undefined."""


@dataclass(frozen=True)
class TestReport:
    """Outcome of a hypothesis test: statistic, degrees of freedom, p-value.

    The likelihood ratio test additionally carries the per-sample and pooled
    dispersal estimates it was built from.
    """

    statistic: float
    df: int
    p_value: float
    method: str
    per_sample_psi: tuple[PsiEstimate, ...] | None = None
    pooled_psi: PsiEstimate | None = None


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square survival function ``P(X > x)`` with ``df`` degrees of freedom.

    Evaluated through the regularized upper incomplete gamma function.
    """
    x = float(x)
    df = _as_int(df, "degrees of freedom")
    if not x >= 0.0:
        raise ValueError(f"statistic must be non-negative, got {x}")
    return float(gammaincc(df / 2.0, x / 2.0))


def score_U(sample: SpeciesCounts | Partition, psi0: float) -> float:
    """Log-likelihood gradient ``sum_i (rho_i / psi0 - 1 / (psi0 + i - 1))``.

    Algebraically this is ``(k_obs - E[K_n]) / psi0``, which is how it is
    evaluated; it vanishes at the MLE.
    """
    n, k = _n_and_k(sample)
    psi0 = _check_psi(psi0)
    return (k - _distinct_and_slope(psi0, n)[0]) / psi0


def lm_test(sample: SpeciesCounts | Partition, psi0: float) -> TestReport:
    """Score test of ``H0: psi = psi0`` against a chi-square(1) reference.

    The statistic ``U^2 / I`` is evaluated as ``(k_obs - E[K_n])^2 / Var[K_n]``
    at ``psi0``; a sample of size 1 raises ``ValueError``.
    """
    n, k = _n_and_k(sample)
    psi0 = _check_psi(psi0)
    if n == 1:
        raise ValueError("information is zero: test undefined for n=1")
    distinct, variance = _distinct_and_slope(psi0, n)
    gap = k - distinct
    statistic = gap * gap / variance
    return TestReport(
        statistic=statistic,
        df=1,
        p_value=chi_square_sf(statistic, 1),
        method=METHOD_LAGRANGE_MULTIPLIER,
    )


def lr_test(samples: Sequence[SpeciesCounts | Partition]) -> TestReport:
    """Likelihood ratio test that all samples share one dispersal parameter.

    The statistic is ``-2 log`` of the restricted (pooled-MLE) likelihood
    over the unrestricted (per-sample MLE) likelihood, referred to a
    chi-square with ``len(samples) - 1`` degrees of freedom.

    Raises:
        DegenerateSampleError: if any per-sample or pooled MLE is degenerate.
    """
    s = len(samples)
    if s < 2:
        raise ValueError(f"need at least 2 samples, got {s}")
    fits = [fit_psi(sample) for sample in samples]
    for index, fit in enumerate(fits):
        if not fit.converged:
            raise DegenerateSampleError(
                f"degenerate sample: LRT undefined (sample {index} is {fit.status})"
            )
    pooled = fit_psi_pooled(samples)
    if not pooled.converged:
        raise DegenerateSampleError(
            f"degenerate sample: LRT undefined (pooled fit is {pooled.status})"
        )

    # a log-likelihood depends on psi only through k log psi - log psi^(n); the
    # sum is >= 0, but a term rounds below 0 when psi_hat_j ~ pooled psi_hat
    statistic = max(0.0, 2.0 * sum(
        fit.k_obs * math.log(fit.psi_hat / pooled.psi_hat)
        - _log_rising_factorial(fit.psi_hat, fit.n)
        + _log_rising_factorial(pooled.psi_hat, fit.n)
        for fit in fits
    ))
    df = s - 1
    return TestReport(
        statistic=statistic,
        df=df,
        p_value=chi_square_sf(statistic, df),
        method=METHOD_LIKELIHOOD_RATIO,
        per_sample_psi=tuple(fits),
        pooled_psi=pooled,
    )
