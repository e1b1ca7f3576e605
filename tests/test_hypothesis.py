"""Tests for the score test, the likelihood ratio test, and their plumbing."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdinfer import (
    DegenerateSampleError,
    Partition,
    UrnConfig,
    chi_square_sf,
    derive_seeds,
    fit_psi,
    lm_test,
    lr_test,
    partition_of,
    sample_sequence,
    score_U,
)
from pdinfer.core import _distinct_and_slope

from conftest import traced_peak
from oracles import chi_square_sf_reference, lr_statistic_from_partitions


class TestScoreU:
    def test_hand_value_n3(self):
        # (1/1 - 1/1) + (1/1 - 1/2) + (0 - 1/3) = 1/6
        np.testing.assert_allclose(
            score_U(Partition.from_dense([1, 1, 0]), 1.0), 1 / 6, atol=1e-12
        )

    def test_hand_value_n2(self):
        # (2/2 - 1/2) + (0 - 1/3) = 1/6
        np.testing.assert_allclose(
            score_U(Partition.from_dense([2]), 2.0), 1 / 6, atol=1e-12
        )

    def test_vanishes_at_mle(self):
        rho = partition_of(sample_sequence(UrnConfig(5.0, 800, 31)).counts)
        fit = fit_psi(rho)
        assert abs(score_U(rho, fit.psi_hat)) <= 1e-6

    def test_rejects_bad_psi(self):
        with pytest.raises(ValueError):
            score_U(Partition.from_dense([2]), 0.0)


class TestFisherInformation:
    """The score test's ``Var[K_n]``, which is ``psi^2`` times the Fisher information."""

    def test_hand_values(self):
        # information 1/4 at (psi, n) = (1, 2) and 17/144 at (2, 3)
        np.testing.assert_allclose(_distinct_and_slope(1.0, 2)[1], 1.0 * 0.25, rtol=1e-14)
        np.testing.assert_allclose(_distinct_and_slope(2.0, 3)[1], 4.0 * 17 / 144, rtol=1e-14)

    def test_n1_undefined(self):
        with pytest.raises(ValueError, match="test undefined for n=1"):
            lm_test(Partition.from_dense([1]), 1.0)

    def test_strictly_positive(self):
        for psi in (0.01, 1.0, 50.0, 1e4):
            for n in (2, 3, 17, 500):
                assert _distinct_and_slope(psi, n)[1] > 0.0


EXTREME_PSI0 = [5e-324, 1e-200, 1e-160, 1e103, 1e200, 1.7e308]


class TestExtremePsi0:
    """The score test and its ``Var[K_n]`` at psi0 near the ends of the doubles.

    Warnings are errors in this suite, so an overflow or underflow warning
    fails these tests as well as a wrong value does.
    """

    SAMPLES = [
        Partition.from_dense([1, 1, 0]),
        Partition.from_dense([3]),
        Partition.from_dense([0, 0, 0, 1]),
        Partition(n=500, rho=((1, 40), (2, 30), (400, 1))),
        Partition(n=2_000_001, rho=((1, 1_000_001), (2, 500_000))),
    ]

    @pytest.mark.parametrize("psi0", EXTREME_PSI0)
    def test_lm_p_value_in_unit_interval(self, psi0):
        for rho in self.SAMPLES:
            report = lm_test(rho, psi0)
            assert report.statistic >= 0.0
            assert 0.0 <= report.p_value <= 1.0

    @pytest.mark.parametrize("psi0", EXTREME_PSI0)
    def test_information_defined(self, psi0):
        for n in (2, 5, 500):
            assert _distinct_and_slope(psi0, n)[1] >= 0.0


class TestChiSquareSf:
    def test_at_zero(self):
        assert chi_square_sf(0.0, 1) == 1.0
        assert chi_square_sf(0.0, 7) == 1.0

    def test_standard_table_values(self):
        np.testing.assert_allclose(chi_square_sf(3.841, 1), 0.05, atol=5e-4)
        np.testing.assert_allclose(chi_square_sf(5.991, 2), 0.05, atol=5e-4)

    def test_df2_closed_form(self):
        for x in (0.5, 2.0, 10.0):
            np.testing.assert_allclose(
                chi_square_sf(x, 2), math.exp(-x / 2), rtol=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi_square_sf(-0.1, 1)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 9, 10, 49, 50, 199, 1000, 5001])
    def test_matches_reference_on_grid(self, df):
        for x in np.geomspace(1e-12, 1e4, 100).tolist():
            reference = chi_square_sf_reference(x, df)
            if reference >= 1e-300:
                assert chi_square_sf(x, df) == pytest.approx(reference, rel=1e-11, abs=0.0), x

    @pytest.mark.parametrize("df", [10**6, 10**6 + 1, 10**9, 10**9 + 1])
    def test_matches_reference_at_large_df(self, df):
        # centre and three standard deviations either side; the cost grows with
        # sqrt(x), not with df, or the 10^9 rows would not finish
        spread = 3.0 * math.sqrt(2.0 * df)
        for x in (df - spread, float(df), df + spread):
            reference = chi_square_sf_reference(x, df)
            assert chi_square_sf(x, df) == pytest.approx(reference, rel=1e-9, abs=0.0), x

    def test_memory_does_not_grow_with_df(self):
        peak = traced_peak(lambda: chi_square_sf(1e9, 10**9))
        assert peak < 10_000


class TestLmTest:
    def test_hand_value(self):
        # U = 1/6 and I = 17/36, so S = (1/36)/(17/36) = 1/17
        report = lm_test(Partition.from_dense([1, 1, 0]), 1.0)
        np.testing.assert_allclose(report.statistic, 1 / 17, rtol=1e-12)
        assert report.df == 1
        np.testing.assert_allclose(
            report.p_value, chi_square_sf(1 / 17, 1), rtol=1e-12
        )
        assert report.method == "lagrange_multiplier"

    def test_at_mle_statistic_vanishes(self):
        rho = partition_of(sample_sequence(UrnConfig(5.0, 1000, 32)).counts)
        report = lm_test(rho, fit_psi(rho).psi_hat)
        assert report.statistic <= 1e-8
        assert report.p_value >= 1.0 - 1e-4

    def test_allowed_on_all_distinct_sample(self):
        # the test evaluates at psi0, so boundary-MLE samples are fine
        report = lm_test(Partition.from_dense([4]), 2.0)
        assert report.statistic >= 0.0

    def test_null_distribution_quantiles(self):
        # coarse goodness of fit of S against chi-square(1) under the null
        from scipy.stats import chi2

        stats = np.array(
            [
                lm_test(
                    partition_of(sample_sequence(UrnConfig(5.0, 500, s)).counts), 5.0
                ).statistic
                for s in derive_seeds(33, 2000)
            ]
        )
        for q in (0.5, 0.9, 0.95):
            empirical = float((stats <= chi2.ppf(q, 1)).mean())
            assert abs(empirical - q) <= 0.05


class TestLrTest:
    def test_duplicated_samples_statistic_exactly_zero(self):
        rho = partition_of(sample_sequence(UrnConfig(4.0, 300, 34)).counts)
        report = lr_test([rho, rho])
        assert report.statistic == 0.0
        assert report.p_value == 1.0
        assert report.df == 1

    def test_statistic_nonnegative_ratio_in_unit_interval(self):
        seeds = derive_seeds(35, 6)
        samples = [
            partition_of(sample_sequence(UrnConfig(psi, 400, s)).counts)
            for psi, s in zip((1.0, 2.0, 8.0, 8.0, 20.0, 3.0), seeds)
        ]
        report = lr_test(samples)
        assert report.statistic >= 0.0
        assert 0.0 < math.exp(-report.statistic / 2.0) <= 1.0
        assert report.df == 5
        assert len(report.per_sample_psi) == 6
        assert report.pooled_psi.converged

    def test_permutation_invariance(self):
        samples = [
            partition_of(sample_sequence(UrnConfig(psi, n, s)).counts)
            for psi, n, s in zip((2.0, 9.0, 5.0), (400, 350, 500), derive_seeds(36, 3))
        ]
        forward = lr_test(samples)
        rotated = lr_test(samples[1:] + samples[:1])
        np.testing.assert_allclose(forward.statistic, rotated.statistic, atol=1e-9)
        assert forward.df == rotated.df
        np.testing.assert_allclose(forward.p_value, rotated.p_value, atol=1e-9)

    def test_degenerate_sample_named(self):
        good = partition_of(sample_sequence(UrnConfig(3.0, 100, 37)).counts)
        degenerate = Partition.from_dense([0, 0, 1])
        with pytest.raises(DegenerateSampleError, match="sample 1"):
            lr_test([good, degenerate])

    def test_needs_two_samples(self):
        rho = Partition.from_dense([1, 1, 0])
        with pytest.raises(ValueError):
            lr_test([rho])

    @settings(max_examples=60)
    @given(
        psis=st.tuples(st.floats(0.5, 200.0), st.floats(0.5, 200.0)),
        sizes=st.tuples(st.integers(20, 3000), st.integers(20, 3000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_partition_oracle(self, psis, sizes, seed):
        # The oracle differences log-likelihoods of up to ~2e4 in size, whose
        # rounding (ulp 3.6e-12, over ~1e3 summed terms) sets the bounds.
        samples = [
            partition_of(sample_sequence(UrnConfig(psi, n, s)).counts)
            for psi, n, s in zip(psis, sizes, derive_seeds(seed, 2))
        ]
        assume(all(fit_psi(p).converged for p in samples))
        report = lr_test(samples)
        expected = lr_statistic_from_partitions(
            samples, [f.psi_hat for f in report.per_sample_psi], report.pooled_psi.psi_hat
        )
        np.testing.assert_allclose(report.statistic, expected, rtol=1e-10, atol=1e-8)

    def test_separated_parameters_detected(self):
        seeds = derive_seeds(38, 2)
        a = partition_of(sample_sequence(UrnConfig(3.0, 2000, seeds[0])).counts)
        b = partition_of(sample_sequence(UrnConfig(30.0, 2000, seeds[1])).counts)
        report = lr_test([a, b])
        assert report.p_value < 1e-6
