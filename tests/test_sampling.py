"""Tests for the urn-scheme sequence generator."""

import time
from collections import Counter

import numpy as np
import pytest

from pdinfer import (
    GeneratedSequence,
    SpeciesCounts,
    UrnConfig,
    derive_seeds,
    expected_distinct,
    fit_psi,
    partition_of,
    sample_labeled_dataset,
    sample_sequence,
)


class TestUrnConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            UrnConfig(psi=0.0, length=5, seed=1)
        with pytest.raises(ValueError):
            UrnConfig(psi=1.0, length=0, seed=1)
        with pytest.raises(ValueError):
            UrnConfig(psi=1.0, length=5, seed=-1)
        with pytest.raises(ValueError):
            UrnConfig(psi=1.0, length=5, seed=2**64)


class TestSampleSequence:
    def test_length_one_is_species_zero(self):
        seq = sample_sequence(UrnConfig(5.0, 1, 123))
        assert seq.values.tolist() == [0]
        assert partition_of(seq.counts).rho == ((1, 1),)

    def test_deterministic(self):
        config = UrnConfig(2.5, 5000, 987)
        a = sample_sequence(config)
        b = sample_sequence(config)
        assert np.array_equal(a.values, b.values)
        assert a.seed_used == b.seed_used == 987

    def test_first_appearance_ids(self):
        seq = sample_sequence(UrnConfig(3.0, 2000, 11))
        values = seq.values
        k = int(values.max()) + 1
        # ids form the contiguous prefix 0..k-1 ...
        assert sorted(set(values.tolist())) == list(range(k))
        # ... assigned in order of first appearance
        first_seen = [int(np.argmax(values == species)) for species in range(k)]
        assert first_seen == sorted(first_seen)

    def test_counts_agree_with_values(self):
        seq = sample_sequence(UrnConfig(1.5, 300, 12))
        tally = Counter(seq.values.tolist())
        assert seq.counts == SpeciesCounts(sorted(tally), [tally[v] for v in sorted(tally)])

    @pytest.mark.parametrize("values", [[0, 5], [1], [0, 2, 2], [2**40]])
    def test_counts_reject_non_contiguous_ids(self, values):
        # ids are counted as indices; one past the length is refused before any allocation
        with pytest.raises(ValueError):
            GeneratedSequence(np.array(values), seed_used=0)

    def test_distinct_count_near_expectation(self):
        # mean distinct species over replicates tracks the analytic value
        expected = expected_distinct(10.0, 10**4)
        k_values = [
            sample_sequence(UrnConfig(10.0, 10**4, s)).counts.k_obs
            for s in derive_seeds(41, 100)
        ]
        assert abs(np.mean(k_values) - expected) <= 0.02 * expected

    def test_new_species_probability(self):
        # P(next draw is new | m observed) = psi / (psi + m)
        psi, m, replicates = 3.0, 25, 40_000
        hits = 0
        for seed in derive_seeds(42, replicates):
            values = sample_sequence(UrnConfig(psi, m + 1, seed)).values
            hits += values[m] == values[:m].max() + 1
        expected = psi / (psi + m)
        sigma = np.sqrt(expected * (1 - expected) / replicates)
        assert abs(hits / replicates - expected) <= 3 * sigma

    def test_exchangeability(self):
        # value sequences sharing an abundance partition are equally likely
        replicates = 100_000
        frequency = Counter()
        for seed in derive_seeds(43, replicates):
            values = sample_sequence(UrnConfig(1.0, 4, seed)).values
            frequency[tuple(values.tolist())] += 1
        by_partition = {}
        for sequence, count in frequency.items():
            rho = partition_of(
                GeneratedSequence(np.array(sequence), seed_used=0).counts
            ).rho
            by_partition.setdefault(rho, []).append(count)
        assert len(by_partition) == 5
        for counts in by_partition.values():
            pooled = np.mean(counts)
            p = pooled / replicates
            sigma = np.sqrt(p * (1 - p) * replicates)
            for count in counts:
                assert abs(count - pooled) <= 3 * sigma

    def test_throughput(self):
        # generous floor: far below the generator's actual speed, but
        # catches an accidental fall back to quadratic behaviour
        start = time.perf_counter()
        sample_sequence(UrnConfig(100.0, 10**6, 3))
        assert time.perf_counter() - start < 5.0


class TestSampleLabeledDataset:
    def test_reduces_to_sample_sequence(self):
        labels, values = sample_labeled_dataset([4.0], 200, 77)
        expected = sample_sequence(UrnConfig(4.0, 200, derive_seeds(77, 1)[0]))
        assert labels.tolist() == [0] * 200
        assert values.tolist() == expected.values.tolist()

    def test_balanced_and_deterministic(self):
        labels, values = sample_labeled_dataset([1.0, 10.0, 50.0], 500, 5)
        assert len(labels) == len(values) == 1500
        label_counts = Counter(labels.tolist())
        assert label_counts == {0: 500, 1: 500, 2: 500}
        again = sample_labeled_dataset([1.0, 10.0, 50.0], 500, 5)
        assert labels.tolist() == again[0].tolist() and values.tolist() == again[1].tolist()

    def test_classes_are_independent_streams(self):
        labels, values = sample_labeled_dataset([2.0, 2.0], 300, 9)
        first = values[labels == 0].tolist()
        second = values[labels == 1].tolist()
        assert first != second

    def test_fitted_dispersal_ordering(self):
        # fitted parameters recover the true ordering in most replicates
        psis = (1.0, 10.0, 50.0)
        ordered = 0
        for seed in derive_seeds(44, 100):
            fits = []
            for class_id, class_seed in enumerate(derive_seeds(seed, 3)):
                seq = sample_sequence(UrnConfig(psis[class_id], 1000, class_seed))
                fits.append(fit_psi(partition_of(seq.counts)).psi_hat)
            ordered += fits[0] < fits[1] < fits[2]
        assert ordered >= 95


class TestDeriveSeeds:
    def test_deterministic_and_distinct(self):
        seeds = derive_seeds(123, 16)
        assert seeds == derive_seeds(123, 16)
        assert len(set(seeds)) == 16
        assert all(0 <= s < 2**64 for s in seeds)

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_seeds(-1, 4)
        with pytest.raises(ValueError):
            derive_seeds(1, 0)
