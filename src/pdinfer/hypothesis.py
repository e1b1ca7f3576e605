"""Hypothesis tests for the dispersal parameter.

Two procedures: a Lagrange multiplier (score) test of ``psi = psi0`` for a
single sample, and a likelihood ratio test of a common ``psi`` across
several samples. Both statistics are referred to chi-square distributions
(1 degree of freedom for the score test, ``s - 1`` for the ratio test over
``s`` samples). The sums behind them (:func:`fisher_information`,
:func:`expected_distinct`, the Ewens pmf) live in :mod:`pdinfer.core`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from scipy.special import gammaincc

from .core import Partition, _check_psi, esf_log_pmf, expected_distinct, fisher_information
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
    df = int(df)
    if x < 0.0:
        raise ValueError(f"statistic must be non-negative, got {x}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be at least 1, got {df}")
    return float(gammaincc(df / 2.0, x / 2.0))


def score_U(rho: Partition, psi0: float) -> float:
    """Log-likelihood gradient ``sum_i (rho_i / psi0 - 1 / (psi0 + i - 1))``.

    Algebraically this is ``(k_obs - expected_distinct(psi0, n)) / psi0``,
    which is how it is evaluated; it vanishes at the MLE.
    """
    psi0 = _check_psi(psi0)
    return (rho.k_obs - expected_distinct(psi0, rho.n)) / psi0


def lm_test(rho: Partition, psi0: float) -> TestReport:
    """Score test of ``H0: psi = psi0`` against a chi-square(1) reference."""
    u = score_U(rho, psi0)
    information = fisher_information(psi0, rho.n)
    statistic = u * u / information
    return TestReport(
        statistic=statistic,
        df=1,
        p_value=chi_square_sf(statistic, 1),
        method=METHOD_LAGRANGE_MULTIPLIER,
    )


def lr_test(samples: Sequence[Partition]) -> TestReport:
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
    fits = [fit_psi(p) for p in samples]
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

    unrestricted = sum(
        esf_log_pmf(p, fit.psi_hat) for p, fit in zip(samples, fits)
    )
    restricted = sum(esf_log_pmf(p, pooled.psi_hat) for p in samples)
    # mathematically >= 0; clip float residue from the two near-equal sums
    statistic = max(0.0, 2.0 * (unrestricted - restricted))
    df = s - 1
    return TestReport(
        statistic=statistic,
        df=df,
        p_value=chi_square_sf(statistic, df),
        method=METHOD_LIKELIHOOD_RATIO,
        per_sample_psi=tuple(fits),
        pooled_psi=pooled,
    )
