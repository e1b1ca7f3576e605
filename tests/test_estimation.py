"""Tests for dispersal-parameter estimation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdinfer import (
    PSI_MAX,
    PSI_MIN,
    Partition,
    UrnConfig,
    derive_seeds,
    expected_distinct,
    fisher_information,
    fit_psi,
    fit_psi_pooled,
    lr_test,
    partition_of,
    sample_sequence,
    score_U,
)
from pdinfer.core import _DIRECT_SUM_LIMIT, _distinct_and_slope
from pdinfer.estimation import RESIDUAL_TOL

from oracles import expected_distinct_exact

SQRT2 = math.sqrt(2.0)


class TestExpectedDistinct:
    def test_single_observation(self):
        assert expected_distinct(0.01, 1) == 1.0
        assert expected_distinct(100.0, 1) == 1.0

    def test_hand_value(self):
        np.testing.assert_allclose(expected_distinct(1.0, 3), 11 / 6, rtol=1e-15)

    def test_root_of_hand_fit(self):
        # 1 + psi/(psi+1) + psi/(psi+2) = 2 reduces to psi^2 = 2
        np.testing.assert_allclose(expected_distinct(SQRT2, 3), 2.0, rtol=1e-14)

    def test_matches_rational_oracle(self):
        from fractions import Fraction

        for psi in (Fraction(1, 3), Fraction(4), Fraction(17, 5)):
            for n in (1, 2, 7, 40):
                np.testing.assert_allclose(
                    expected_distinct(float(psi), n),
                    float(expected_distinct_exact(psi, n)),
                    rtol=1e-12,
                )

    def test_strictly_increasing_in_psi(self):
        values = [expected_distinct(psi, 50) for psi in (0.1, 1.0, 5.0, 80.0)]
        assert values == sorted(values)
        assert all(1.0 < v < 50.0 for v in values[1:])

    @pytest.mark.parametrize("psi", [1e-3, 0.7, 10.0, 1e3, 1e6, 1e8])
    @pytest.mark.parametrize("n", [1, 2, 50, 4000, _DIRECT_SUM_LIMIT + 1, 3 * 10**6])
    def test_slope_helper(self, psi, n):
        # one pass gives E[K_n] bit for bit and its slope in log psi
        distinct, slope = _distinct_and_slope(psi, n)
        assert distinct == expected_distinct(psi, n)
        if n == 1:
            assert slope == 0.0
        else:
            np.testing.assert_allclose(slope, psi**2 * fisher_information(psi, n), rtol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            expected_distinct(-1.0, 5)
        with pytest.raises(ValueError):
            expected_distinct(1.0, 0)


class TestFitPsi:
    def test_hand_root_sqrt2(self):
        fit = fit_psi(Partition.from_dense([1, 1, 0]))
        assert fit.converged
        np.testing.assert_allclose(fit.psi_hat, SQRT2, atol=1e-6)
        assert fit.k_obs == 2 and fit.n == 3

    def test_single_species_degenerate_low(self):
        fit = fit_psi(Partition.from_dense([0, 0, 0, 0, 1]))
        assert fit.status == "degenerate_low"
        assert fit.psi_hat == PSI_MIN
        assert not fit.converged

    def test_all_distinct_degenerate_high(self):
        fit = fit_psi(Partition.from_dense([5]))
        assert fit.status == "degenerate_high"
        assert fit.psi_hat == PSI_MAX

    def test_root_property(self):
        for seed in derive_seeds(21, 20):
            seq = sample_sequence(UrnConfig(3.0, 400, seed))
            fit = fit_psi(partition_of(seq.counts))
            assert fit.converged
            gap = abs(expected_distinct(fit.psi_hat, fit.n) - fit.k_obs)
            assert gap <= RESIDUAL_TOL

    def test_score_zero_at_mle(self):
        for seed in derive_seeds(22, 20):
            rho = partition_of(sample_sequence(UrnConfig(8.0, 600, seed)).counts)
            fit = fit_psi(rho)
            assert abs(score_U(rho, fit.psi_hat)) <= 1e-6

    @pytest.mark.parametrize("psi", [1e-3, 1.0, 10.0, 1e3, 1e6, 1e8])
    @pytest.mark.parametrize("n", [3, 50, 1000, 10**5, _DIRECT_SUM_LIMIT + 1, 3 * 10**6])
    def test_grid_residual_and_iterations(self, psi, n):
        # k near E[K_n] at psi, as a partition with k - 1 singletons and one
        # abundant species; n past the direct-sum limit runs the closed forms
        k = min(max(round(expected_distinct(psi, n)), 2), n - 1)
        rho = Partition(n=n, rho=((1, k - 1), (n - k + 1, 1)))
        fit = fit_psi(rho)
        assert fit.converged
        assert fit.residual <= RESIDUAL_TOL
        assert fit.iterations <= 10
        assert fit.residual == abs(expected_distinct(fit.psi_hat, n) - k)
        assert fit_psi_pooled([rho, rho]).psi_hat == fit.psi_hat

    def test_small_roots_against_exact_oracle(self):
        for n in range(3, 13):
            for k in range(2, n):
                fit = fit_psi(Partition(n=n, rho=((1, k - 1), (n - k + 1, 1))))
                exact_gap = expected_distinct_exact(Fraction(fit.psi_hat), n) - k
                assert abs(exact_gap) <= RESIDUAL_TOL, (n, k)

    def test_bracket_sign_change(self):
        # the fixed bracket must straddle the root of every non-degenerate fit
        for k_obs, n in ((2, 3), (5, 40), (99, 100), (30, 10_000)):
            low_gap = expected_distinct(PSI_MIN, n) - k_obs
            high_gap = expected_distinct(PSI_MAX, n) - k_obs
            assert low_gap < 0 < high_gap


class TestFitPsiPooled:
    def test_single_sample_identical_to_fit_psi(self):
        rho = partition_of(
            sample_sequence(UrnConfig(4.0, 500, 99)).counts
        )
        assert fit_psi_pooled([rho]) == fit_psi(rho)

    def test_two_copies_same_root(self):
        rho = Partition.from_dense([1, 1, 0])
        fit = fit_psi_pooled([rho, rho])
        assert fit.converged
        np.testing.assert_allclose(fit.psi_hat, SQRT2, atol=1e-6)
        assert fit.k_obs == 4 and fit.n == 6

    @settings(max_examples=150)
    @given(
        psi=st.floats(min_value=0.1, max_value=1000.0),
        n=st.integers(min_value=3, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_two_copies_exactly_the_single_fit(self, psi, n, seed):
        # doubling the sample list doubles the gap and its slope exactly, so
        # the solver takes the same steps and the LR statistic is exactly 0
        rho = partition_of(sample_sequence(UrnConfig(psi, n, seed)).counts)
        fit = fit_psi(rho)
        assert fit_psi_pooled([rho, rho]).psi_hat == fit.psi_hat
        assume(fit.converged)
        assert lr_test([rho, rho]).statistic == 0.0

    def test_pooled_root_property(self):
        samples = [
            partition_of(sample_sequence(UrnConfig(6.0, n, seed)).counts)
            for n, seed in zip((200, 350, 500), derive_seeds(23, 3))
        ]
        fit = fit_psi_pooled(samples)
        assert fit.converged
        pooled_expected = sum(expected_distinct(fit.psi_hat, p.n) for p in samples)
        assert abs(pooled_expected - fit.k_obs) <= RESIDUAL_TOL

    def test_all_singletons_everywhere_degenerate_high(self):
        samples = [Partition.from_dense([3]), Partition.from_dense([2])]
        assert fit_psi_pooled(samples).status == "degenerate_high"

    def test_all_monospecific_degenerate_low(self):
        samples = [Partition.from_dense([0, 0, 1]), Partition.from_dense([0, 1])]
        assert fit_psi_pooled(samples).status == "degenerate_low"

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            fit_psi_pooled([])


class TestConsistency:
    def test_estimator_concentrates_at_large_n(self):
        # At psi = 10, n = 1e5 the Fisher information gives an asymptotic
        # standard deviation of about 1.11 for the fit, so +-15% (+-1.5) is
        # a 1.35-sigma band with ~82% coverage and +-30% a 2.7-sigma band
        # with ~99.3%. Bounds sit 3-4 Monte Carlo sigmas below those levels.
        within_15, within_30 = 0, 0
        replicates = 200
        for seed in derive_seeds(24, replicates):
            seq = sample_sequence(UrnConfig(10.0, 10**5, seed))
            fit = fit_psi(partition_of(seq.counts))
            assert fit.converged
            within_15 += abs(fit.psi_hat - 10.0) <= 1.5
            within_30 += abs(fit.psi_hat - 10.0) <= 3.0
        assert within_15 / replicates >= 0.72
        assert within_30 / replicates >= 0.96
