"""Maximum likelihood estimation of the dispersal parameter.

The MLE solves "expected number of distinct species = observed number":

    sum_{j=1..n} psi / (psi + j - 1)  =  k_obs

The left side is strictly increasing in ``psi`` and ranges over ``(1, n)``,
so a root exists whenever ``1 < k_obs < n``. It is found by Newton's method
in ``log psi``, safeguarded by a bisection step whenever a Newton step would
leave a bracket that shrinks around the root. The boundary cases (a single
species, or all species distinct) have no interior root; they are reported
as flagged boundary estimates rather than errors so that downstream
consumers such as the classifiers can keep operating on degenerate training
classes. The fit reads each sample only through ``(n, k)``; the sum and
its slope (``Var[K_n]``) come from :func:`pdinfer.core._distinct_and_slope`,
memoized per ``(psi, n)``, so replicates with one ``(n, k)`` walk the same
iterates and reuse each sum.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .core import Partition, SpeciesCounts, _distinct_and_slope, _n_and_k

__all__ = [
    "MAX_ITERATIONS",
    "PSI_MAX",
    "PSI_MIN",
    "RESIDUAL_TOL",
    "STATUS_CONVERGED",
    "STATUS_DEGENERATE_HIGH",
    "STATUS_DEGENERATE_LOW",
    "STEP_TOL",
    "PsiEstimate",
    "fit_psi",
    "fit_psi_pooled",
]

# Search bracket and stopping rules. The fit stops after a step in log psi of
# at most STEP_TOL that predicts a gap within _residual_tolerance(k) per
# sample, or at a step too small to move log psi. Each decision reads only
# the sign of the gap, gap / slope, gap * step per sample and the per-sample
# means, which doubling the sample list leaves exactly.
PSI_MIN = 1e-10
PSI_MAX = 1e10
STEP_TOL = 1e-6
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


def _residual_tolerance(k: float) -> float:
    """Largest gap per sample of a converged fit with ``k`` distinct species per sample.

    Past ``k = 2^22`` the float sum ``E[K_n]`` cannot resolve ``RESIDUAL_TOL``:
    fits over psi in 1e-3..1e8 and n in 1e2..1e11 stop within 8 ulps of ``k``.
    """
    return max(RESIDUAL_TOL, 16 * math.ulp(k))


def _gap_and_slope(psi: float, k_total: int, sizes: Sequence[int]) -> tuple[float, float]:
    """``sum_s expected_distinct(psi, n_s) - k_total`` and its slope in ``log psi``."""
    # from int 0, left to right, as sum() adds
    distinct = slope = 0
    for n in sizes:
        e, d = _distinct_and_slope(psi, n)
        distinct += e
        slope += d
    return distinct - k_total, slope


def _newton(k_total: int, sizes: Sequence[int]) -> tuple[float, int, float]:
    """Safeguarded Newton in ``log psi`` for ``sum_s expected_distinct(psi, n_s) = k_total``.

    Starts from the larger of two guesses at the per-sample means ``k``, ``n``:
    ``(k - 1) / log1p(n / k)`` and the root's limit as ``k`` nears ``n``. The
    caller has ruled out the boundary cases, which have no root. Returns the
    last ``psi``, the number of evaluations and the signed gap at ``psi``.
    """
    k, n = k_total / len(sizes), sum(sizes) / len(sizes)
    lo, hi = math.log(PSI_MIN), math.log(PSI_MAX)
    guess = max((k - 1.0) / math.log1p(n / k), k * (k - 1.0) / (2.0 * (n - k)))
    u = min(max(math.log(guess), lo), hi)
    tolerance = len(sizes) * _residual_tolerance(k)
    last = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        psi = math.exp(u)
        gap, slope = _gap_and_slope(psi, k_total, sizes)
        step = gap / slope
        if last or u - step == u:
            break
        lo, hi = (u, hi) if gap < 0.0 else (lo, u)
        if not lo < u - step < hi:
            step = u - 0.5 * (lo + hi)
        # after a Newton step the next gap is at most |gap * step| / 2, to second order
        last = abs(step) <= STEP_TOL and abs(gap * step) <= tolerance
        u -= step
    return psi, iterations, gap


def fit_psi_pooled(samples: Sequence[SpeciesCounts | Partition]) -> PsiEstimate:
    """MLE of a dispersal parameter shared by several independent samples.

    Solves the pooled root equation; with a single sample this is identical
    to :func:`fit_psi`. Boundary cases (every sample a single species, or
    every observation distinct in every sample) return flagged boundary
    estimates, mirroring the single-sample behaviour.
    """
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    sizes, distinct = zip(*map(_n_and_k, samples))
    k_total = sum(distinct)
    n_total = sum(sizes)

    if k_total <= len(samples) or k_total >= n_total:
        # every sample a single species: the likelihood is maximized as psi -> 0;
        # all observations distinct: it increases without bound as psi -> infinity
        if k_total <= len(samples):
            psi, status = PSI_MIN, STATUS_DEGENERATE_LOW
        else:
            psi, status = PSI_MAX, STATUS_DEGENERATE_HIGH
        residual = abs(_gap_and_slope(psi, k_total, sizes)[0])
        return PsiEstimate(psi, k_total, n_total, 0, residual, status)

    psi, iterations, gap = _newton(k_total, sizes)
    # A root beyond an edge of the bracket draws every step to that edge, so
    # the search ends within STEP_TOL of it in log psi with the gap pointing
    # out, and the gap at the edge itself has the same sign.
    if gap < 0.0:
        edge, status = PSI_MAX, STATUS_DEGENERATE_HIGH
    else:
        edge, status = PSI_MIN, STATUS_DEGENERATE_LOW
    if abs(math.log(psi / edge)) <= STEP_TOL:
        edge_gap = _gap_and_slope(edge, k_total, sizes)[0]
        if edge_gap * gap > 0.0:
            return PsiEstimate(edge, k_total, n_total, iterations, abs(edge_gap), status)
    return PsiEstimate(psi, k_total, n_total, iterations, abs(gap), STATUS_CONVERGED)


def fit_psi(sample: SpeciesCounts | Partition) -> PsiEstimate:
    """MLE of the dispersal parameter from one sample's ``(n, k)``.

    Never raises for a non-empty sample: degenerate samples (``k_obs == 1``
    or ``k_obs == n``) come back with ``status`` set and ``psi_hat`` at the
    corresponding bracket boundary.
    """
    return fit_psi_pooled([sample])
