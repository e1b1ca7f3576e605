"""Tests for dispersal-parameter estimation."""

import math

import numpy as np
import pytest

from pdinfer import (
    PSI_MAX,
    PSI_MIN,
    Partition,
    UrnConfig,
    derive_seeds,
    expected_distinct,
    fit_psi,
    fit_psi_pooled,
    partition_of,
    sample_sequence,
    score_U,
)
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
