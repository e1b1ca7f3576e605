"""The one integer gate: every public entry point refuses what it would otherwise truncate.

Under partition exchangeability an id is only a label, so a float id read as
its integer part merges two species and changes K_n. Each refusal row below
is an input that an entry point once truncated, parsed, read as 0/1, wrapped,
failed on with a ``TypeError`` or a numpy error, or refused with another
rule's message, or a refusal that no other test reaches; each acceptance row
pins an integer input that must keep working. The gate also owns two rules on
id arrays: where one is required, an array must be 1-d, and ids that number
classes or species must run exactly 0..k-1 (the first missing id is named).
"""

import numpy as np
import pytest

from pdinfer import (
    ExperimentSpec,
    GeneratedSequence,
    Partition,
    SpeciesCounts,
    UrnConfig,
    chi_square_sf,
    classify_marginal,
    classify_simultaneous,
    counts_by_class,
    derive_seeds,
    expected_distinct,
    predictive_prob,
    read_dataset,
    sample_labeled_dataset,
    train,
    train_from_counts,
    write_dataset,
)
from pdinfer.dataio import write_classification

COUNTS = SpeciesCounts([1], [3])
MODEL = train_from_counts([SpeciesCounts([0, 1], [2, 1]), SpeciesCounts([0, 1, 2], [1, 1, 3])])
TEST_VALUES = [0, 2, 2]


def spec(path, **changes):
    fields = dict(psis=(1.0, 2.0), training_sizes=(10, 20), test_size=10, replicates=1,
                  master_seed=1, output_path=path / "study")
    return ExperimentSpec(**{**fields, **changes})


REFUSED = {
    "train-float-values": (lambda p: train([0, 0, 1, 1], [1.7, 1.2, 2, 3]), "integers"),
    "train-string-values": (lambda p: train([0, 1], ["3", "4"]), "integers"),
    "train-bool-labels": (lambda p: train([True, False], [1, 2]), "integers"),
    "counts-float": (lambda p: SpeciesCounts([1.5, 2.9], [2.7, 1]), "integers"),
    "counts-string": (lambda p: SpeciesCounts(["3"], ["4"]), "integers"),
    "counts-uint64-past-int64": (
        lambda p: SpeciesCounts(np.array([2**63], dtype=np.uint64), [1]), "64-bit"),
    "count_of-bool": (lambda p: COUNTS.count_of(True), "integers"),
    "count_of-uint64-past-int64": (
        lambda p: COUNTS.count_of(np.array([2**63], dtype=np.uint64)), "64-bit"),
    "predictive_prob-bool": (lambda p: predictive_prob(COUNTS, 1.0, True), "integers"),
    "predictive_prob-negative": (lambda p: predictive_prob(COUNTS, 1.0, -1), "non-negative"),
    "predictive_prob-one-item-list": (lambda p: predictive_prob(COUNTS, 1.0, [1]), "one species id"),
    "predictive_prob-list": (lambda p: predictive_prob(COUNTS, 1.0, [1, 2]), "one species id"),
    "partition-bool-multiplicity": (lambda p: Partition(n=3, rho=((1, True), (2, 1))), "integers"),
    "partition-bool-abundance": (lambda p: Partition(n=2, rho=((True, 2),)), "integers"),
    "partition-dense-float": (lambda p: Partition.from_dense([1.0]), "multiplicities"),
    "generated-float-values": (lambda p: GeneratedSequence(np.array([0.0, 1.5]), 1), "integers"),
    "generated-negative": (lambda p: GeneratedSequence(np.array([0, -1]), 1), "non-negative"),
    "generated-2d": (lambda p: GeneratedSequence([[0, 1]], 0), "^species ids must be a 1-d array$"),
    "generated-gap": (
        lambda p: GeneratedSequence([0, 2, 2], 0), "species ids .*, but 1 is missing$"),
    "from_values-2d": (lambda p: SpeciesCounts.from_values([[0, 1]]), "1-d"),
    "counts_by_class-2d-labels": (lambda p: counts_by_class([[0, 1]], [0, 1]), "class ids .*1-d"),
    "counts_by_class-2d-values": (lambda p: counts_by_class([0, 1], [[0, 1]]), "species ids .*1-d"),
    "counts_by_class-gap": (
        lambda p: counts_by_class([0, 2], [5, 5]), "class ids .*, but 1 is missing$"),
    "counts_by_class-lengths": (lambda p: counts_by_class([0, 1], [1]), "equal length"),
    "labeled-dataset-no-class": (lambda p: sample_labeled_dataset([], 3, 1), "one class"),
    "marginal-bool-value": (lambda p: classify_marginal(MODEL, [True, 2]), "integers"),
    "marginal-negative-value": (lambda p: classify_marginal(MODEL, [-1, 2]), "non-negative"),
    "marginal-2d-value": (lambda p: classify_marginal(MODEL, np.array([[1, 2]])), "1-d"),
    "write-negative": (lambda p: write_dataset(p / "d.tsv", [-1, 2]), "non-negative"),
    "write-float": (lambda p: write_dataset(p / "d.tsv", [1.5]), "integers"),
    "write-uint64-past-int64": (
        lambda p: write_dataset(p / "d.tsv", np.array([2**63], dtype=np.uint64)), "64-bit"),
    "write-float-labels": (
        lambda p: write_dataset(p / "d.tsv", [0, 1], labels=[0.5, 1]), "integers"),
    "write-2d": (lambda p: write_dataset(p / "d.tsv", [[0, 1]]), "1-d"),
    "write-2d-labels": (lambda p: write_dataset(p / "d.tsv", [0, 1], labels=[[0, 1]]), "1-d"),
    "write-lengths": (lambda p: write_dataset(p / "d.tsv", [0, 1], labels=[0]), "equal length"),
    "write_classification-2d": (
        lambda p: write_classification(p / "r.tsv", [[0, 1]], [[-1.0, -1.0]], -2.0, 1, True),
        "class ids must be a 1-d array"),
    "expected_distinct-float-n": (lambda p: expected_distinct(1.0, 10.7), "integer"),
    "expected_distinct-uint64-past-int64": (
        lambda p: expected_distinct(1.0, np.uint64(2**63)), "below 9223372036854775808"),
    "urn-float-length-and-seed": (lambda p: UrnConfig(1.0, 10.7, 3.9), "integer"),
    "urn-bool-seed": (lambda p: UrnConfig(1.0, 10, True), "integer"),
    "urn-uint64-length-past-int64": (
        lambda p: UrnConfig(1.0, np.uint64(2**63), 1), "below 9223372036854775808"),
    "derive_seeds-float-count": (lambda p: derive_seeds(1, 2.5), "integer"),
    "labeled-dataset-float-size": (
        lambda p: sample_labeled_dataset([1.0, 2.0], 3.5, 1), "integer"),
    "spec-float-sizes": (lambda p: spec(p, training_sizes=(10.5, 20)), "integer"),
    "spec-float-test-size": (lambda p: spec(p, test_size=10.5), "integer"),
    "spec-float-replicates": (lambda p: spec(p, replicates=1.5), "integer"),
    "chi_square_sf-float-df": (lambda p: chi_square_sf(1.0, 1.5), "integer"),
    "chi_square_sf-bool-df": (lambda p: chi_square_sf(1.0, True), "integer"),
    "chi_square_sf-df-from-2^40": (lambda p: chi_square_sf(1.0, 2**40), "below 1099511627776"),
    "chi_square_sf-nan-statistic": (lambda p: chi_square_sf(float("nan"), 1), "non-negative"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED)
def test_refused(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
    assert not any(tmp_path.iterdir())  # a refused write leaves no file


def written(path, values, labels=None):
    write_dataset(path / "d.tsv", values, labels=labels)
    dataset = read_dataset(path / "d.tsv")
    return dataset.values.tolist(), None if labels is None else dataset.labels.tolist()


ACCEPTED = {
    "from_values-int8": (
        lambda p: SpeciesCounts.from_values(np.array([3, 1, 3], dtype=np.int8)),
        SpeciesCounts([1, 3], [1, 2])),
    "counts-uint32-int8": (
        lambda p: SpeciesCounts(np.array([1, 3], np.uint32), np.array([2, 1], np.int8)),
        SpeciesCounts([1, 3], [2, 1])),
    "counts-uint64-below-2^63": (
        lambda p: SpeciesCounts(np.array([2**63 - 1], np.uint64), [1]).ids.tolist(),
        [2**63 - 1]),
    "counts-empty-lists": (lambda p: SpeciesCounts([], []).n, 0),
    "count_of-numpy-scalar": (lambda p: int(COUNTS.count_of(np.int16(1))), 3),
    "count_of-empty-list": (lambda p: COUNTS.count_of([]).tolist(), []),
    "count_of-negative-ids": (lambda p: COUNTS.count_of([-1, -(2**63), 1]).tolist(), [0, 0, 3]),
    "predictive_prob-numpy-scalar": (
        lambda p: predictive_prob(COUNTS, 1.0, np.uint8(1)), predictive_prob(COUNTS, 1.0, 1)),
    "partition-numpy-ints": (
        lambda p: Partition(n=np.int64(3), rho=((np.int8(1), np.uint64(1)), (2, np.int32(1)))),
        Partition(n=3, rho=((1, 1), (2, 1)))),
    "partition-dense-small-dtype": (
        lambda p: Partition.from_dense(np.array([1, 1], np.uint8)),
        Partition(n=3, rho=((1, 1), (2, 1)))),
    "generated-list": (
        lambda p: GeneratedSequence([0, 1, 0], 1).counts, SpeciesCounts([0, 1], [2, 1])),
    "generated-int8": (
        lambda p: GeneratedSequence(np.array([0, 1, 0], np.int8), 1).values.dtype, np.int64),
    "train-small-dtypes": (
        lambda p: [c.value_counts for c in train(np.array([0, 0, 1, 1], np.uint8),
                                                 np.array([1, 1, 2, 3], np.uint64)).classes],
        [SpeciesCounts([1], [2]), SpeciesCounts([2, 3], [1, 1])]),
    "simultaneous-small-dtypes": (
        lambda p: classify_simultaneous(MODEL, np.array(TEST_VALUES, np.uint8)).labeling.tolist(),
        classify_simultaneous(MODEL, TEST_VALUES).labeling.tolist()),
    "write-uint64-int8": (
        lambda p: written(p, np.array([2**63 - 1, 0], np.uint64), np.array([1, 0], np.int8)),
        ([2**63 - 1, 0], [1, 0])),
    "write-empty-list": (lambda p: written(p, []), ([], None)),
    "urn-numpy-scalars": (
        lambda p: UrnConfig(1.0, np.int32(10), np.uint64(2**64 - 1)),
        UrnConfig(1.0, 10, 2**64 - 1)),
    "derive_seeds-numpy-scalars": (
        lambda p: derive_seeds(np.uint64(5), np.int8(2)), derive_seeds(5, 2)),
    "sums-numpy-scalars": (
        lambda p: (expected_distinct(1.0, np.int64(10)), expected_distinct(1.0, np.uint16(10))),
        (expected_distinct(1.0, 10), expected_distinct(1.0, 10))),
    "labeled-dataset-numpy-size": (
        lambda p: sample_labeled_dataset([1.0, 2.0], np.int32(3), np.uint8(1))[1].tolist(),
        sample_labeled_dataset([1.0, 2.0], 3, 1)[1].tolist()),
    "spec-numpy-sizes": (
        lambda p: spec(p, training_sizes=np.array([10, 20], np.uint16), test_size=np.int8(10),
                       replicates=np.int64(1)).training_sizes,
        (10, 20)),
    "chi_square_sf-numpy-df": (lambda p: chi_square_sf(1.0, np.int8(1)), chi_square_sf(1.0, 1)),
    "chi_square_sf-inf-statistic": (lambda p: chi_square_sf(float("inf"), 1), 0.0),
    "chi_square_sf-df-below-2^40": (lambda p: chi_square_sf(1.0, 2**40 - 1), 1.0),
}


@pytest.mark.parametrize("call, expected", ACCEPTED.values(), ids=ACCEPTED)
def test_accepted(tmp_path, call, expected):
    assert call(tmp_path) == expected
