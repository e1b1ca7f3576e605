"""Tests for the marginal and simultaneous predictive classifiers."""

import math

import numpy as np
import pytest

import pdinfer.classify as classify_module
from pdinfer import (
    SpeciesCounts,
    UrnConfig,
    classify_marginal,
    classify_simultaneous,
    counts_by_class,
    derive_seeds,
    marginal_log_score,
    sample_labeled_dataset,
    sample_sequence,
    simultaneous_log_score,
    train,
    train_from_counts,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def hand_model():
    # two small classes with interior (converged) fits:
    # class 0: {0:2, 1:1} -> psi_hat = sqrt(2); class 1: {0:1, 1:1, 2:3}
    return train_from_counts(
        [SpeciesCounts([0, 1], [2, 1]), SpeciesCounts([0, 1, 2], [1, 1, 3])]
    )


class TestTrain:
    def test_class_fit_matches_hand_root(self, hand_model):
        fit = hand_model.classes[0].psi_hat
        assert fit.converged
        np.testing.assert_allclose(fit.psi_hat, SQRT2, atol=1e-6)

    def test_degenerate_classes_flagged_and_trained(self):
        # a boundary fit is data on the model; the suite turns any warning into an error
        model = train([0, 0, 1, 1], [1, 1, 4, 4])
        assert model.k == 2
        for class_model in model.classes:
            assert class_model.psi_hat.status == "degenerate_low"
            assert not class_model.psi_hat.converged

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            train([0, 0], [1, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            train([], [])

    def test_rejects_non_contiguous_ids(self):
        with pytest.raises(ValueError, match="contiguous"):
            train([0, 2], [1, 1])

    def test_counts_by_class_splits(self):
        counts = counts_by_class(np.array([0, 1, 0]), np.array([5, 6, 5]))
        assert counts[0] == SpeciesCounts([5], [2])
        assert counts[1] == SpeciesCounts([6], [1])


class TestMarginalLogScore:
    def test_seen_value(self):
        # class counts {a:3, b:1}, psi-hat forced to 1 via a degenerate
        # partner is messy; check against predictive arithmetic instead
        model = train_from_counts([SpeciesCounts([0, 1], [3, 1]), SpeciesCounts([0], [4])])
        psi0 = model.classes[0].psi_hat.psi_hat
        np.testing.assert_allclose(
            marginal_log_score(model, 0, 0), math.log(3.0 / (4.0 + psi0)), rtol=1e-14
        )

    def test_unseen_value(self):
        model = train_from_counts([SpeciesCounts([0, 1], [3, 1]), SpeciesCounts([0], [4])])
        psi0 = model.classes[0].psi_hat.psi_hat
        np.testing.assert_allclose(
            marginal_log_score(model, 9, 0), math.log(psi0 / (4.0 + psi0)), rtol=1e-14
        )

    @pytest.mark.parametrize("class_id", [-1, 2])
    def test_class_id_out_of_range(self, hand_model, class_id):
        # both sides of 0..k-1: -1 would silently index the last class
        with pytest.raises(ValueError, match="class id"):
            marginal_log_score(hand_model, 0, class_id)

    def test_float_value_rejected(self, hand_model):
        # 1.7 was truncated and scored as value 1
        with pytest.raises(ValueError, match="integers"):
            marginal_log_score(hand_model, 1.7, 0)

    def test_unseen_everywhere_goes_to_highest_dispersal(self):
        # equal class sizes; value unseen in every class
        model = train(*sample_labeled_dataset([1.0, 10.0, 50.0], 400, 13))
        psi_hats = [cm.psi_hat.psi_hat for cm in model.classes]
        assert psi_hats[2] == max(psi_hats)
        unseen = 10**6
        result = classify_marginal(model, [unseen])
        assert result.labeling.tolist() == [2]


class TestClassifyMarginal:
    def test_seen_in_single_class(self, hand_model):
        # value 2 appears only in class 1's training data
        result = classify_marginal(hand_model, [2])
        assert result.labeling.tolist() == [1]

    def test_per_item_logs_sum_to_total(self, hand_model):
        values = [0, 1, 2, 2, 0]
        result = classify_marginal(hand_model, values)
        np.testing.assert_allclose(result.log_score, result.per_item_log.sum())
        assert result.log_score <= 0.0
        for i, value in enumerate(values):
            np.testing.assert_allclose(
                result.per_item_log[i],
                marginal_log_score(hand_model, value, result.labeling[i]),
                rtol=1e-14,
            )

    def test_item_order_invariance(self, hand_model):
        values = np.array([0, 2, 1, 2, 0, 1])
        permutation = np.array([3, 1, 4, 0, 5, 2])
        direct = classify_marginal(hand_model, values).labeling
        permuted = classify_marginal(hand_model, values[permutation]).labeling
        assert np.array_equal(direct[permutation], permuted)

    def test_tie_breaks_to_lowest_class(self):
        model = train_from_counts([SpeciesCounts([0], [2]), SpeciesCounts([1], [2])])
        # value 5 unseen in both classes; identical sizes and fits -> tie
        result = classify_marginal(model, [5])
        assert result.labeling.tolist() == [0]

    def test_empty_test_rejected(self, hand_model):
        with pytest.raises(ValueError):
            classify_marginal(hand_model, [])

    @pytest.mark.parametrize("classifier", [classify_marginal, classify_simultaneous])
    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.7], "integers"),
            ([-3, 2.9], "integers"),
            (["1"], "integers"),
            ([-3, 2], "non-negative"),
            ([0, 2**63], "64-bit"),
        ],
    )
    def test_rejects_non_integer_and_negative_values(self, hand_model, classifier, values, message):
        # a value is never truncated to a neighbouring id
        with pytest.raises(ValueError, match=message):
            classifier(hand_model, values)


class TestSimultaneousLogScore:
    def test_no_twins_reduces_to_marginal(self, hand_model):
        # all values distinct, so no item has a co-assigned twin anywhere
        values = np.array([0, 1, 2])
        labeling = np.array([0, 1, 1])
        for item in range(3):
            for class_id in range(2):
                np.testing.assert_allclose(
                    simultaneous_log_score(hand_model, values, labeling, item, class_id),
                    marginal_log_score(hand_model, values[item], class_id),
                    rtol=1e-14,
                )

    def test_seen_value_with_twins(self):
        # training counts {a:3, b:1}: two co-assigned twins give
        # (3+2) / (4+2+psi)
        model = train_from_counts([SpeciesCounts([0, 1], [3, 1]), SpeciesCounts([0], [4])])
        psi0 = model.classes[0].psi_hat.psi_hat
        values = np.array([0, 0, 0])
        labeling = np.array([0, 0, 0])
        np.testing.assert_allclose(
            simultaneous_log_score(model, values, labeling, 0, 0),
            math.log((3.0 + 2.0) / (4.0 + 2.0 + psi0)),
            rtol=1e-14,
        )

    def test_unseen_value_with_twin(self):
        model = train_from_counts([SpeciesCounts([0, 1], [3, 1]), SpeciesCounts([0], [4])])
        psi0 = model.classes[0].psi_hat.psi_hat
        values = np.array([9, 9])
        labeling = np.array([0, 0])
        # unseen branch keeps psi in the numerator; the twin only enters
        # the denominator
        np.testing.assert_allclose(
            simultaneous_log_score(model, values, labeling, 0, 0),
            math.log(psi0 / (4.0 + 1.0 + psi0)),
            rtol=1e-14,
        )


class TestClassifySimultaneous:
    def test_single_item_reduces_to_marginal(self, hand_model):
        for value in (0, 1, 2, 99):
            joint = classify_simultaneous(hand_model, [value])
            marginal = classify_marginal(hand_model, [value])
            assert joint.labeling.tolist() == marginal.labeling.tolist()
            assert joint.converged and joint.sweeps == 1

    def test_greedy_ascent_beats_initialization(self):
        model = train(*sample_labeled_dataset([1.0, 10.0, 50.0], 300, 17))
        test_values = np.concatenate(
            [
                sample_sequence(UrnConfig(psi, 500, seed)).values
                for psi, seed in zip((1.0, 10.0, 50.0), derive_seeds(18, 3))
            ]
        )
        marginal = classify_marginal(model, test_values)
        joint = classify_simultaneous(model, test_values)

        def joint_score(labeling):
            return sum(
                simultaneous_log_score(model, test_values, labeling, i, labeling[i])
                for i in range(len(test_values))
            )

        initial = joint_score(marginal.labeling)
        final = joint_score(joint.labeling)
        assert final >= initial - 1e-9
        # every returned per-item factor is the public per-item score
        np.testing.assert_allclose(
            joint.per_item_log,
            [
                simultaneous_log_score(model, test_values, joint.labeling, i, label)
                for i, label in enumerate(joint.labeling)
            ],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            marginal.per_item_log,
            [
                marginal_log_score(model, value, label)
                for value, label in zip(test_values, marginal.labeling)
            ],
            rtol=1e-12,
        )
        # the grouped sweep engine and the public per-item factor op must
        # agree on the final score
        np.testing.assert_allclose(joint.log_score, final, atol=1e-8)
        np.testing.assert_allclose(
            joint.log_score, joint.per_item_log.sum(), atol=1e-8
        )
        assert joint.converged
        assert joint.sweeps <= 100

    def test_class_relabeling_equivariance(self):
        # distinct sizes and distinct-species counts keep every score
        # comparison tie-free, so the argmax commutes with relabeling
        counts = [
            SpeciesCounts([0, 1, 3], [5, 2, 1]),
            SpeciesCounts([0, 2, 4, 5], [1, 4, 2, 1]),
        ]
        values = [0, 2, 3, 4, 0, 2, 7]
        forward = classify_simultaneous(train_from_counts(counts), values)
        swapped = classify_simultaneous(train_from_counts(counts[::-1]), values)
        assert np.array_equal(1 - forward.labeling, swapped.labeling)

    def test_degenerate_class_participates(self):
        model = train_from_counts(
            [SpeciesCounts([0], [5]), SpeciesCounts([1, 2, 3], [2, 2, 1])]
        )
        result = classify_simultaneous(model, [0, 1, 9])
        assert result.labeling.shape == (3,)
        assert result.labeling[0] == 0  # seen only in the degenerate class

    def test_sweep_cap_reports_not_converged(self, monkeypatch):
        model = train(*sample_labeled_dataset([2.0, 20.0], 200, 22))
        values = sample_sequence(UrnConfig(8.0, 300, 23)).values
        free = classify_simultaneous(model, values)
        # the first sweep moved items away from the marginal labeling
        assert free.converged and free.sweeps == 2
        assert (free.labeling != classify_marginal(model, values).labeling).any()
        np.testing.assert_allclose(
            free.per_item_log,
            [
                simultaneous_log_score(model, values, free.labeling, i, label)
                for i, label in enumerate(free.labeling)
            ],
            rtol=1e-12,
        )
        monkeypatch.setattr(classify_module, "_MAX_SWEEPS", 1)
        capped = classify_simultaneous(model, values)
        assert capped.sweeps == 1 and not capped.converged
