"""Tests for the partition types, the Ewens pmf, and the predictive rule."""

import math
import tracemalloc
from collections import Counter
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
from pdinfer.core import _BINCOUNT_MAX_COUNT, _distinct_and_slope, _log_rising_factorial

from oracles import esf_prob_exact, integer_partitions


def table(mapping: dict) -> SpeciesCounts:
    ids = sorted(mapping)
    return SpeciesCounts(ids, [mapping[i] for i in ids])


def partition_from_dict(rho: dict) -> Partition:
    return Partition(
        n=sum(t * m for t, m in rho.items()),
        rho=tuple(sorted(rho.items())),
    )


def chunked_fsum(term, n: int) -> float:
    """Correctly rounded sum of ``term(j)`` over ``0 <= j < n``, chunk by chunk."""
    chunks = (np.arange(start, min(start + 100_000, n), dtype=np.float64)
              for start in range(0, n, 100_000))
    return math.fsum(x for chunk in chunks for x in term(chunk).tolist())


class TestSpeciesCounts:
    def test_totals(self):
        counts = SpeciesCounts([0, 2, 5], [3, 2, 1])
        assert counts.n == 6
        assert counts.k_obs == 3

    def test_empty_allowed(self):
        counts = SpeciesCounts([], [])
        assert counts.n == 0 and counts.k_obs == 0

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            SpeciesCounts([0], [0])

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            SpeciesCounts([-1], [2])

    @pytest.mark.parametrize("ids", [[1, 0], [0, 0], [-5, 0]])
    def test_rejects_unsorted_duplicate_or_negative_ids(self, ids):
        with pytest.raises(ValueError, match="non-negative and strictly ascending"):
            SpeciesCounts(ids, [1, 1])

    @pytest.mark.parametrize("ids, counts", [([0, 1], [1]), ([[0, 1]], [[1, 1]]), (0, 1)])
    def test_rejects_mismatched_or_non_vector_shapes(self, ids, counts):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            SpeciesCounts(ids, counts)

    def test_arrays_read_only_and_copied(self):
        ids, counts = np.array([2, 4]), np.array([1, 3])
        frequencies = SpeciesCounts(ids, counts)
        for array in (frequencies.ids, frequencies.counts):
            assert array.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        ids[0] = 3
        assert frequencies.ids.tolist() == [2, 4] and ids.flags.writeable

    def test_equality_compares_both_arrays(self):
        assert SpeciesCounts([1, 2], [3, 4]) == SpeciesCounts(np.array([1, 2]), (3, 4))
        assert SpeciesCounts([1, 2], [3, 4]) != SpeciesCounts([1, 2], [3, 5])
        assert SpeciesCounts([1, 2], [3, 4]) != SpeciesCounts([1, 3], [3, 4])
        assert SpeciesCounts([], []) != {}

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=2**63 - 1)
            | st.integers(min_value=2**63 - 4, max_value=2**63 - 1),
            st.integers(min_value=1, max_value=10**6),
            max_size=12,
        ),
        st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1)
            | st.integers(min_value=2**63 - 4, max_value=2**63 - 1),
            max_size=12,
        ),
    )
    def test_count_of_matches_dict_oracle(self, mapping, others):
        counts = table(mapping)
        queries = list(mapping) + others  # others: mostly absent ids
        want = [mapping.get(species, 0) for species in queries]
        assert counts.count_of(queries).tolist() == want
        assert counts.count_of(np.array(queries, dtype=np.int64)).tolist() == want
        assert [int(counts.count_of(species)) for species in queries] == want

    def test_from_values_matches_counter(self):
        values = [3, 1, 3, 3, 0]
        assert SpeciesCounts.from_values(values) == SpeciesCounts([0, 1, 3], [1, 1, 3])
        assert SpeciesCounts.from_values(np.array(values)) == SpeciesCounts([0, 1, 3], [1, 1, 3])

    @given(
        st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=50),
        st.sampled_from(["n - 1", "n", "far"]),
    )
    def test_from_values_both_paths_match_unique(self, values, largest):
        # binned when the largest id is below n, sorted otherwise: the same table either way
        n = len(values)
        top = {"n - 1": n - 1, "n": n, "far": 2**62}[largest]
        values = [min(v, top) for v in values[1:]] + [top]
        want = SpeciesCounts(*np.unique(np.array(values, dtype=np.int64), return_counts=True))
        assert SpeciesCounts.from_values(values) == want
        assert SpeciesCounts.from_values(np.array(values)) == want

    def test_from_values_binned_memory(self):
        # n distinct ids below n, the most bins. At the peak the present ids, their
        # counts and the constructor's two copies are alive: four int64 per observation
        n = 10**6
        values = np.arange(n)
        tracemalloc.start()
        try:
            counts = SpeciesCounts.from_values(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.n == counts.k_obs == n
        assert peak < 4.5 * 8 * n

    @pytest.mark.parametrize("as_array", [False, True])
    def test_from_values_large_id_small_memory(self, as_array):
        values = [0, 10**10]
        tracemalloc.start()
        try:
            counts = SpeciesCounts.from_values(np.array(values) if as_array else values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == SpeciesCounts([0, 10**10], [1, 1])
        assert peak < 4 * 2**20

    def test_count_of_rejects_id_beyond_int64(self):
        # ids are int64 throughout; a larger one is a ValueError, not an OverflowError
        with pytest.raises(ValueError, match="64-bit"):
            SpeciesCounts([0], [1]).count_of([0, 2**63])
        with pytest.raises(ValueError, match="64-bit"):
            predictive_prob(SpeciesCounts([0], [1]), 1.0, 2**63)

    def test_count_of_rejects_float_ids(self):
        # a float id was truncated: count_of([1.9]) read as species 1
        counts = SpeciesCounts([1], [3])
        with pytest.raises(ValueError, match="integers"):
            counts.count_of([1.9])
        with pytest.raises(ValueError, match="integers"):
            predictive_prob(counts, 1.0, 1.5)
        assert counts.count_of([-1, 1, 2]).tolist() == [0, 3, 0]
        assert counts.count_of([]).tolist() == []

    def test_from_values_rejects_id_beyond_int64(self):
        with pytest.raises(ValueError, match="64-bit"):
            SpeciesCounts.from_values([0, 2**64])
        with pytest.raises(ValueError, match="64-bit"):
            SpeciesCounts.from_values(np.array([2**63], dtype=np.uint64))

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.5, 2.7, 2.2], "integers"),
            (np.array([1.0, 2.0]), "integers"),
            (["3", "4"], "integers"),
            ([True, False], "integers"),
            ([2**64, 1.5], "integers"),
            ([-1, 2], "non-negative"),
            (np.array([3, -3], dtype=np.int8), "non-negative"),
        ],
    )
    def test_from_values_rejects_non_integer_and_negative_ids(self, values, message):
        # ids are never truncated, parsed or wrapped
        with pytest.raises(ValueError, match=message):
            SpeciesCounts.from_values(values)

    def test_from_values_accepts_any_integer_dtype(self):
        for dtype in (np.int8, np.uint32, np.uint64):
            counts = SpeciesCounts.from_values(np.array([3, 1, 3], dtype=dtype))
            assert counts == SpeciesCounts([1, 3], [1, 2])


class TestPartition:
    def test_all_singletons(self):
        # {a:1, b:1, c:1} -> rho = (3,) with n = 3
        counts = SpeciesCounts([0, 1, 2], [1, 1, 1])
        assert partition_of(counts) == Partition(n=3, rho=((1, 3),))

    def test_single_species(self):
        # {a:3} -> rho_3 = 1
        assert partition_of(SpeciesCounts([7], [3])) == Partition(n=3, rho=((3, 1),))

    def test_mixed(self):
        # {a:2, b:2, c:1}: one species once, two species twice
        counts = SpeciesCounts([0, 1, 2], [2, 2, 1])
        assert partition_of(counts) == Partition(n=5, rho=((1, 1), (2, 2)))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            partition_of(SpeciesCounts([], []))

    def test_membership_condition_enforced(self):
        with pytest.raises(ValueError):
            Partition(n=4, rho=((1, 1), (2, 1)))  # sums to 3, not 4

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Partition(n=2, rho=((1.9, 2),)),
            lambda: Partition(n=2.7, rho=((1, 2),)),
            lambda: Partition.from_dense([1.7, 0.2]),
        ],
        ids=["float-t", "float-n", "float-dense"],
    )
    def test_rejects_floats_instead_of_truncating(self, make):
        with pytest.raises(ValueError, match="integer"):
            make()

    def test_dense_roundtrip(self):
        p = Partition.from_dense([1, 1, 0])
        assert p.n == 3 and p.k_obs == 2

    @pytest.mark.parametrize(
        "counts",
        [
            [_BINCOUNT_MAX_COUNT],  # largest count at the limit: bincount
            [_BINCOUNT_MAX_COUNT, 3, 1, 3],
            [_BINCOUNT_MAX_COUNT + 1],  # one past it: unique
            [1, _BINCOUNT_MAX_COUNT + 1, 1, 7, 2, 7, 7],
            [40_000, 3, 1, 3, 1, 1],
        ],
    )
    def test_both_branches_match_counter(self, counts):
        rho = tuple(sorted(Counter(counts).items()))
        partition = partition_of(table(dict(enumerate(counts))))
        assert partition == Partition(n=sum(counts), rho=rho)
        assert all(type(x) is int for pair in partition.rho for x in pair)

    @given(
        st.lists(
            st.one_of(st.integers(1, 20), st.integers(1, 3 * _BINCOUNT_MAX_COUNT)),
            min_size=1,
            max_size=30,
        )
    )
    def test_property_matches_counter(self, counts):
        rho = tuple(sorted(Counter(counts).items()))
        assert partition_of(table(dict(enumerate(counts)))) == Partition(n=sum(counts), rho=rho)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=1, max_value=6),
            min_size=1,
            max_size=8,
        )
    )
    def test_membership_invariant_holds(self, mapping):
        p = partition_of(table(mapping))
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
        a = partition_of(table(mapping))
        b = partition_of(table(relabeled))
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
        # the series past the 50-term head must agree with direct summation
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
    """Each Ewens sum on both sides of its seams.

    The seams are the last size summed by the 50-term head alone and the
    first one with the series beyond it (n = 50, 51), and, for Var[K_n], the
    last size taken from power sums at psi = 1e8 and the first one taken from
    the series (n = 1e4, 1e4 + 1). The references are the plain float sums.
    """

    PSIS = (1e-10, 0.5, 10.0, 49.5, 1234.5, 1e8)

    def test_log_rising_factorial_both_paths(self):
        for n in (50, 51, 100_000, 100_001):
            for psi in self.PSIS:
                direct = np.log(psi + np.arange(n, dtype=np.float64)).sum()
                np.testing.assert_allclose(_log_rising_factorial(psi, n), direct, rtol=1e-12)

    def test_expected_distinct_both_paths(self):
        for n in (50, 51, 10_000, 10_001, 1_000_000, 1_000_001):
            for psi in self.PSIS:
                direct = (psi / (psi + np.arange(n, dtype=np.float64))).sum()
                np.testing.assert_allclose(expected_distinct(psi, n), direct, rtol=0, atol=1e-9)

    def test_fisher_information_both_paths(self):
        for n in (50, 51, 10_000, 10_001, 1_000_000, 1_000_001):
            i = np.arange(1, n, dtype=np.float64)
            for psi in self.PSIS:
                direct = (i / (psi * (psi + i) ** 2)).sum()
                np.testing.assert_allclose(fisher_information(psi, n), direct, rtol=1e-9)

    @pytest.mark.parametrize("psi", [5e-324, 1e-310, 1e-200])
    def test_closed_forms_below_digamma_overflow(self, psi):
        # psi near the smallest doubles, where digamma(psi) would be -inf
        # (below 5.6e-309); E = 1 + psi H and I = H / psi with
        # H = sum_{j=1..n-1} 1/j = 15.08 at this n
        n = 1_000_001
        harmonic = math.fsum(1.0 / j for j in range(1, n))
        assert expected_distinct(psi, n) == 1.0 + psi * harmonic
        assert fisher_information(psi, n) == pytest.approx(harmonic / psi, rel=1e-12)

    @pytest.mark.parametrize("psi", [1e8, 1e10])
    def test_log_rising_factorial_at_large_psi(self, psi):
        # psi >> n, where a log-gamma difference cancels (1.8e-5 off at psi = 1e10)
        n = 100_001
        exact = math.fsum(np.log(psi + np.arange(n, dtype=np.float64)).tolist())
        np.testing.assert_allclose(_log_rising_factorial(psi, n), exact, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("psi", [1e62, 1e100])
    def test_log_rising_factorial_past_power_overflow(self, psi):
        # z**5 and z**7 of the series would overflow here
        n = 100_001
        exact = math.fsum(np.log(psi + np.arange(n, dtype=np.float64)).tolist())
        np.testing.assert_allclose(_log_rising_factorial(psi, n), exact, rtol=1e-15)

    @pytest.mark.parametrize("psi", [1e-10, 1e8, 1e10, 1e18, 1e30])
    def test_closed_forms_at_bracket_ends(self, psi):
        # the series at both ends of the psi bracket and beyond, where
        # differences of series terms cancel (psi >> n) or two 1/psi^2 terms do
        n = 1_000_001
        expected = chunked_fsum(lambda j: psi / (psi + j), n)
        information = chunked_fsum(lambda j: j / (psi * (psi + j) ** 2), n)
        np.testing.assert_allclose(expected_distinct(psi, n), expected, rtol=0, atol=1e-9)
        np.testing.assert_allclose(fisher_information(psi, n), information, rtol=1e-11)

    @pytest.mark.parametrize("psi, n", [(1e6, 100), (1e8, 10_000), (1e10, 1_000_000)])
    def test_variance_power_sums_to_rounding(self, psi, n):
        # n = 1e-4 psi, the largest ratio taken from power sums, where the
        # terms they drop (5th order in j / psi) are largest
        variance = chunked_fsum(lambda j: psi * j / (psi + j) ** 2, n)
        np.testing.assert_allclose(_distinct_and_slope(psi, n)[1], variance, rtol=1e-15)

    @pytest.mark.parametrize("n", [10**6, 10**15])
    def test_memory_independent_of_n(self, n):
        tracemalloc.start()
        try:
            _distinct_and_slope(10.0, n)
            _log_rising_factorial(10.0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestPredictiveProb:
    def test_first_draw_is_new(self):
        assert predictive_prob(SpeciesCounts([], []), 3.7, NEW) == 1.0

    def test_hand_values(self):
        counts = SpeciesCounts([0, 1], [3, 1])
        assert predictive_prob(counts, 1.0, 0) == pytest.approx(0.6, abs=1e-15)
        assert predictive_prob(counts, 1.0, NEW) == pytest.approx(0.2, abs=1e-15)

    def test_absent_id_behaves_as_new(self):
        counts = SpeciesCounts([0, 1], [3, 1])
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
        counts = table(mapping)
        total = predictive_prob(counts, psi, NEW) + sum(
            predictive_prob(counts, psi, species) for species in mapping
        )
        assert abs(total - 1.0) <= 1e-14

    @settings(max_examples=30)
    @given(st.floats(min_value=0.01, max_value=50.0))
    def test_new_probability_increases_with_psi(self, psi):
        counts = SpeciesCounts([0, 1], [4, 2])
        assert predictive_prob(counts, psi * 1.5, NEW) > predictive_prob(
            counts, psi, NEW
        )
