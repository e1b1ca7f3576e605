"""Tests for the partition types, the Ewens pmf, and the predictive rule."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdinfer import (
    NEW,
    Partition,
    SpeciesCounts,
    esf_log_pmf,
    expected_distinct,
    fisher_information,
    partition_of,
    predictive_prob,
)
from pdinfer.core import _DIRECT_LOG_SUM_LIMIT, _DIRECT_SUM_LIMIT, _log_rising_factorial

from oracles import esf_prob_exact, integer_partitions


def partition_from_dict(rho: dict) -> Partition:
    return Partition(
        n=sum(t * m for t, m in rho.items()),
        rho=tuple(sorted(rho.items())),
    )


class TestSpeciesCounts:
    def test_totals(self):
        counts = SpeciesCounts({0: 3, 5: 1, 2: 2})
        assert counts.n == 6
        assert counts.k_obs == 3

    def test_empty_allowed(self):
        counts = SpeciesCounts({})
        assert counts.n == 0 and counts.k_obs == 0

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            SpeciesCounts({0: 0})

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            SpeciesCounts({-1: 2})

    def test_from_values_matches_counter(self):
        values = [3, 1, 3, 3, 0]
        assert SpeciesCounts.from_values(values) == SpeciesCounts(
            {3: 3, 1: 1, 0: 1}
        )
        assert SpeciesCounts.from_values(np.array(values)) == SpeciesCounts(
            {3: 3, 1: 1, 0: 1}
        )

    @pytest.mark.parametrize("as_array", [False, True])
    def test_from_values_large_id_small_memory(self, as_array):
        values = [0, 10**10]
        tracemalloc.start()
        try:
            counts = SpeciesCounts.from_values(np.array(values) if as_array else values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == SpeciesCounts({0: 1, 10**10: 1})
        assert peak < 4 * 2**20

    def test_from_values_rejects_id_beyond_int64(self):
        with pytest.raises(ValueError, match="64-bit"):
            SpeciesCounts.from_values([0, 2**64])


class TestPartition:
    def test_all_singletons(self):
        # {a:1, b:1, c:1} -> rho = (3,) with n = 3
        counts = SpeciesCounts({0: 1, 1: 1, 2: 1})
        assert partition_of(counts) == Partition(n=3, rho=((1, 3),))

    def test_single_species(self):
        # {a:3} -> rho_3 = 1
        assert partition_of(SpeciesCounts({7: 3})) == Partition(n=3, rho=((3, 1),))

    def test_mixed(self):
        # {a:2, b:2, c:1}: one species once, two species twice
        counts = SpeciesCounts({0: 2, 1: 2, 2: 1})
        assert partition_of(counts) == Partition(n=5, rho=((1, 1), (2, 2)))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            partition_of(SpeciesCounts({}))

    def test_membership_condition_enforced(self):
        with pytest.raises(ValueError):
            Partition(n=4, rho=((1, 1), (2, 1)))  # sums to 3, not 4

    def test_dense_roundtrip(self):
        p = Partition.from_dense([1, 1, 0])
        assert p.n == 3 and p.k_obs == 2
        assert p.to_dense() == (1, 1, 0)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=1, max_value=6),
            min_size=1,
            max_size=8,
        )
    )
    def test_membership_invariant_holds(self, mapping):
        p = partition_of(SpeciesCounts(mapping))
        assert sum(t * m for t, m in p.rho) == p.n == sum(mapping.values())
        assert 1 <= p.k_obs <= p.n

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=1, max_value=6),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_label_invariance(self, mapping, rng):
        # relabeling species ids must leave the partition (and hence any
        # probability computed from it) unchanged
        ids = list(mapping)
        shuffled = list(ids)
        rng.shuffle(shuffled)
        relabeled = {new: mapping[old] for new, old in zip(shuffled, ids)}
        a = partition_of(SpeciesCounts(mapping))
        b = partition_of(SpeciesCounts(relabeled))
        assert a == b
        assert esf_log_pmf(a, 2.5) == esf_log_pmf(b, 2.5)


class TestEsfLogPmf:
    def test_single_observation_certain(self):
        assert esf_log_pmf(Partition.from_dense([1]), 0.3) == 0.0
        assert esf_log_pmf(Partition.from_dense([1]), 42.0) == 0.0

    def test_hand_values_n2(self):
        # psi = 1: both partitions of 2 have probability 1/2
        np.testing.assert_allclose(
            esf_log_pmf(Partition.from_dense([2, 0]), 1.0), math.log(0.5), rtol=1e-14
        )
        np.testing.assert_allclose(
            esf_log_pmf(Partition.from_dense([0, 1]), 1.0), math.log(0.5), rtol=1e-14
        )

    def test_matches_exact_rational_oracle(self):
        for n in range(1, 9):
            for psi in (Fraction(1, 2), Fraction(1), Fraction(5, 2)):
                for rho in integer_partitions(n):
                    got = esf_log_pmf(partition_from_dict(rho), float(psi))
                    want = math.log(esf_prob_exact(rho, psi))
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_normalization_n5(self):
        total = sum(
            math.exp(esf_log_pmf(partition_from_dict(rho), 2.5))
            for rho in integer_partitions(5)
        )
        assert len(list(integer_partitions(5))) == 7
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    def test_rejects_bad_psi(self):
        p = Partition.from_dense([2, 0])
        for psi in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                esf_log_pmf(p, psi)

    def test_large_sample_path(self):
        # the log-gamma branch must agree with direct summation
        rho = Partition(n=200_000, rho=((1, 100_000), (2, 50_000)))
        got = esf_log_pmf(rho, 7.0)
        direct = (
            math.lgamma(200_001)
            - np.log(7.0 + np.arange(200_000)).sum()
            + 100_000 * math.log(7.0)
            - math.lgamma(100_001)
            + 50_000 * (math.log(7.0) - math.log(2))
            - math.lgamma(50_001)
        )
        np.testing.assert_allclose(got, direct, rtol=1e-12)


class TestSumPaths:
    """Each Ewens sum at its last directly summed size and the first closed-form one.

    The references are the plain float sums, so the closed forms are pinned
    to the sums they replace and the direct paths to their own definition.
    """

    PSIS = (0.5, 10.0, 1234.5)

    def test_log_rising_factorial_both_paths(self):
        for n in (_DIRECT_LOG_SUM_LIMIT, _DIRECT_LOG_SUM_LIMIT + 1):
            for psi in self.PSIS:
                direct = np.log(psi + np.arange(n, dtype=np.float64)).sum()
                np.testing.assert_allclose(_log_rising_factorial(psi, n), direct, rtol=1e-12)

    def test_expected_distinct_both_paths(self):
        for n in (_DIRECT_SUM_LIMIT, _DIRECT_SUM_LIMIT + 1):
            for psi in self.PSIS:
                direct = (psi / (psi + np.arange(n, dtype=np.float64))).sum()
                np.testing.assert_allclose(expected_distinct(psi, n), direct, rtol=0, atol=1e-9)

    def test_fisher_information_both_paths(self):
        for n in (_DIRECT_SUM_LIMIT, _DIRECT_SUM_LIMIT + 1):
            i = np.arange(1, n, dtype=np.float64)
            for psi in self.PSIS:
                direct = (i / (psi * (psi + i) ** 2)).sum()
                np.testing.assert_allclose(fisher_information(psi, n), direct, rtol=1e-9)


class TestPredictiveProb:
    def test_first_draw_is_new(self):
        assert predictive_prob(SpeciesCounts({}), 3.7, NEW) == 1.0

    def test_hand_values(self):
        counts = SpeciesCounts({0: 3, 1: 1})
        assert predictive_prob(counts, 1.0, 0) == pytest.approx(0.6, abs=1e-15)
        assert predictive_prob(counts, 1.0, NEW) == pytest.approx(0.2, abs=1e-15)

    def test_absent_id_behaves_as_new(self):
        counts = SpeciesCounts({0: 3, 1: 1})
        assert predictive_prob(counts, 1.0, 99) == predictive_prob(counts, 1.0, NEW)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=1, max_value=9),
            max_size=10,
        ),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_closure(self, mapping, psi):
        counts = SpeciesCounts(mapping)
        total = predictive_prob(counts, psi, NEW) + sum(
            predictive_prob(counts, psi, species) for species in mapping
        )
        assert abs(total - 1.0) <= 1e-14

    @settings(max_examples=30)
    @given(st.floats(min_value=0.01, max_value=50.0))
    def test_new_probability_increases_with_psi(self, psi):
        counts = SpeciesCounts({0: 4, 1: 2})
        assert predictive_prob(counts, psi * 1.5, NEW) > predictive_prob(
            counts, psi, NEW
        )
