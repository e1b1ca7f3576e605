"""Maximum likelihood estimation of the dispersal parameter.

The MLE solves "expected number of distinct species = observed number":

    sum_{j=1..n} psi / (psi + j - 1)  =  k_obs

The left side is strictly increasing in ``psi`` and ranges over ``(1, n)``,
so a plain bisection over a wide fixed bracket finds the root whenever
``1 < k_obs < n``. The boundary cases (a single species, or all species
distinct) have no interior root; they are reported as flagged boundary
estimates rather than errors so that downstream consumers such as the
classifiers can keep operating on degenerate training classes. The sum
itself, :func:`expected_distinct`, lives in :mod:`pdinfer.core`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .core import Partition, expected_distinct

__all__ = [
    "MAX_ITERATIONS",
    "PSI_MAX",
    "PSI_MIN",
    "PSI_TOL",
    "RESIDUAL_TOL",
    "STATUS_CONVERGED",
    "STATUS_DEGENERATE_HIGH",
    "STATUS_DEGENERATE_LOW",
    "PsiEstimate",
    "fit_psi",
    "fit_psi_pooled",
]

# Fixed search bracket and stopping rules for the bisection. The bracket
# spans 20 decades, which bisection exhausts in ~67 halvings, well under the
# iteration cap.
PSI_MIN = 1e-10
PSI_MAX = 1e10
PSI_TOL = 1e-10
RESIDUAL_TOL = 1e-8
MAX_ITERATIONS = 200

STATUS_CONVERGED = "converged"
STATUS_DEGENERATE_LOW = "degenerate_low"
STATUS_DEGENERATE_HIGH = "degenerate_high"


@dataclass(frozen=True)
class PsiEstimate:
    """Result of a dispersal-parameter fit.

    ``psi_hat`` is the root for a converged fit and the bracket boundary
    (:data:`PSI_MIN` / :data:`PSI_MAX`) for a degenerate one. ``residual``
    is the remaining gap ``|expected distinct - observed distinct|`` at
    ``psi_hat``. For pooled fits ``k_obs`` and ``n`` are totals across the
    pooled samples.
    """

    psi_hat: float
    k_obs: int
    n: int
    iterations: int
    residual: float
    status: str

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def _expected_total(psi: float, sizes: Sequence[int]) -> float:
    return sum(expected_distinct(psi, n) for n in sizes)


def _bisect(k_total: int, sizes: Sequence[int]) -> tuple[float, int, float]:
    """Bisection for ``sum_s expected_distinct(psi, n_s) = k_total``.

    Assumes the caller has already ruled out the boundary cases, so the
    root lies strictly inside ``(PSI_MIN, PSI_MAX)``.
    """
    lo, hi = PSI_MIN, PSI_MAX
    iterations = 0
    while iterations < MAX_ITERATIONS:
        mid = 0.5 * (lo + hi)
        iterations += 1
        gap = _expected_total(mid, sizes) - k_total
        if abs(gap) <= RESIDUAL_TOL:
            return mid, iterations, abs(gap)
        if gap < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= PSI_TOL:
            break
    mid = 0.5 * (lo + hi)
    return mid, iterations, abs(_expected_total(mid, sizes) - k_total)


def fit_psi_pooled(samples: Sequence[Partition]) -> PsiEstimate:
    """MLE of a dispersal parameter shared by several independent samples.

    Solves the pooled root equation; with a single sample this is identical
    to :func:`fit_psi`. Boundary cases (every sample a single species, or
    every observation distinct in every sample) return flagged boundary
    estimates, mirroring the single-sample behaviour.
    """
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    sizes = [p.n for p in samples]
    k_total = sum(p.k_obs for p in samples)
    n_total = sum(sizes)

    if k_total <= len(samples):
        # every sample consists of a single species: likelihood maximized
        # as psi -> 0
        psi = PSI_MIN
        residual = abs(_expected_total(psi, sizes) - k_total)
        return PsiEstimate(psi, k_total, n_total, 0, residual, STATUS_DEGENERATE_LOW)
    if k_total >= n_total:
        # all observations distinct everywhere: likelihood increases without
        # bound as psi -> infinity
        psi = PSI_MAX
        residual = abs(_expected_total(psi, sizes) - k_total)
        return PsiEstimate(psi, k_total, n_total, 0, residual, STATUS_DEGENERATE_HIGH)

    psi, iterations, residual = _bisect(k_total, sizes)
    return PsiEstimate(psi, k_total, n_total, iterations, residual, STATUS_CONVERGED)


def fit_psi(rho: Partition) -> PsiEstimate:
    """MLE of the dispersal parameter from one sample's abundance partition.

    Never raises for a valid partition: degenerate samples (``k_obs == 1``
    or ``k_obs == n``) come back with ``status`` set and ``psi_hat`` at the
    corresponding bracket boundary.
    """
    return fit_psi_pooled([rho])
