"""Tests for the marginal and simultaneous predictive classifiers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pdinfer.classify as classify_module
from pdinfer import (
    SpeciesCounts,
    UrnConfig,
    classify_marginal,
    classify_simultaneous,
    counts_by_class,
    derive_seeds,
    sample_labeled_dataset,
    sample_sequence,
    train,
    train_from_counts,
)
from pdinfer.core import _log_factor

from conftest import traced_peak
from oracles import greedy_joint_labeling, joint_log_score

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def hand_model():
    # two small classes with interior (converged) fits:
    # class 0: {0:2, 1:1} -> psi_hat = sqrt(2); class 1: {0:1, 1:1, 2:3}
    return train_from_counts(
        [SpeciesCounts([0, 1], [2, 1]), SpeciesCounts([0, 1, 2], [1, 1, 3])]
    )


@pytest.fixture
def moving_case():
    # the greedy search moves items in its first sweep and stops after the second
    model = train(*sample_labeled_dataset([2.0, 20.0], 200, 22))
    return model, sample_sequence(UrnConfig(8.0, 300, 23)).values


def _oracle_model(model):
    """A training model as the oracles' ``(train_counts, class_sizes, psis)``."""
    return (
        [dict(zip(cm.value_counts.ids.tolist(), cm.value_counts.counts.tolist()))
         for cm in model.classes],
        [cm.m_c for cm in model.classes],
        [cm.psi_hat.psi_hat for cm in model.classes],
    )


def _marginal_oracle(model, values):
    """The oracle's label and log factor of each item classified alone (``q = 1``)."""
    alone = [greedy_joint_labeling(*_oracle_model(model), [v], 0) for v in values]
    return [labels[0] for labels, _, _, _ in alone], [logs[0] for _, _, _, logs in alone]


def _class_factor(model, value, class_id, q):
    """``core._log_factor`` of one of ``q`` co-assigned items of ``value`` in a trained class."""
    cm = model.classes[class_id]
    return _log_factor(cm.value_counts.count_of(value), q, cm.m_c, cm.psi_hat.psi_hat)


def _assert_matches_plain_greedy(model, values, max_sweeps=100):
    labels, sweeps, converged, per_item_log = greedy_joint_labeling(
        *_oracle_model(model), np.asarray(values).tolist(), max_sweeps
    )
    result = classify_simultaneous(model, values)
    assert result.labeling.tolist() == labels
    assert (result.sweeps, result.converged) == (sweeps, converged)
    np.testing.assert_allclose(result.per_item_log, per_item_log, rtol=0, atol=1e-12)
    return result


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
        # a label far past the data's size is sorted, not binned
        message = "^class ids must be contiguous 0..k-1, but 1 is missing$"
        with pytest.raises(ValueError, match=message):
            train([0, 2**62], [1, 1])

    def test_gap_message_does_not_grow_with_k(self):
        labels = np.delete(np.arange(20_001), 7)
        with pytest.raises(ValueError, match="but 7 is missing") as error:
            counts_by_class(labels, labels)
        assert len(str(error.value)) < 100

    def test_counts_by_class_splits(self):
        counts = counts_by_class(np.array([0, 1, 0]), np.array([5, 6, 5]))
        assert counts[0] == SpeciesCounts([5], [2])
        assert counts[1] == SpeciesCounts([6], [1])

    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=40), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_by_class_matches_per_class_masks(self, sizes, data):
        labels = np.array(data.draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes))))
        ids = st.one_of(st.integers(0, 6), st.integers(0, 2**62))
        values = np.array(data.draw(st.lists(ids, min_size=labels.size, max_size=labels.size)))
        expected = [SpeciesCounts.from_values(values[labels == c]) for c in range(len(sizes))]
        assert counts_by_class(labels, values) == expected


class TestMarginalLogScore:
    def test_seen_value(self):
        # class counts {a:3, b:1}, psi-hat forced to 1 via a degenerate
        # partner is messy; check against predictive arithmetic instead
        model = train_from_counts([SpeciesCounts([0, 1], [3, 1]), SpeciesCounts([0], [4])])
        psi0 = model.classes[0].psi_hat.psi_hat
        np.testing.assert_allclose(
            _class_factor(model, 0, 0, 1), math.log(3.0 / (4.0 + psi0)), rtol=1e-14
        )

    def test_unseen_value(self):
        model = train_from_counts([SpeciesCounts([0, 1], [3, 1]), SpeciesCounts([0], [4])])
        psi0 = model.classes[0].psi_hat.psi_hat
        np.testing.assert_allclose(
            _class_factor(model, 9, 0, 1), math.log(psi0 / (4.0 + psi0)), rtol=1e-14
        )

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
        labels, factors = _marginal_oracle(hand_model, values)
        assert result.labeling.tolist() == labels
        np.testing.assert_allclose(result.per_item_log, factors, rtol=1e-14)

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
        # all values distinct, so no item has a co-assigned twin under any labeling
        values = [0, 1, 2]
        joint = classify_simultaneous(hand_model, values)
        labels, factors = _marginal_oracle(hand_model, values)
        assert joint.labeling.tolist() == labels
        np.testing.assert_allclose(joint.per_item_log, factors, rtol=1e-14)
        np.testing.assert_allclose(
            joint.per_item_log, classify_marginal(hand_model, values).per_item_log, rtol=1e-14
        )

    def test_seen_value_with_twins(self):
        # training counts {a:3, b:1}: two co-assigned twins give
        # (3+2) / (4+2+psi)
        model = train_from_counts([SpeciesCounts([0, 1], [3, 1]), SpeciesCounts([0], [4])])
        psi0 = model.classes[0].psi_hat.psi_hat
        np.testing.assert_allclose(
            _class_factor(model, 0, 0, 3),
            math.log((3.0 + 2.0) / (4.0 + 2.0 + psi0)),
            rtol=1e-14,
        )

    def test_unseen_value_with_twin(self):
        model = train_from_counts([SpeciesCounts([0, 1], [3, 1]), SpeciesCounts([0], [4])])
        psi0 = model.classes[0].psi_hat.psi_hat
        # unseen branch keeps psi in the numerator; the twin only enters
        # the denominator
        np.testing.assert_allclose(
            _class_factor(model, 9, 0, 2),
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
            return joint_log_score(
                *_oracle_model(model), test_values.tolist(), labeling.tolist()
            )

        initial = joint_score(marginal.labeling)
        final = joint_score(joint.labeling)
        assert final >= initial - 1e-9
        # every returned per-item factor is the oracle's
        labels, _, _, per_item_log = greedy_joint_labeling(
            *_oracle_model(model), test_values.tolist()
        )
        assert joint.labeling.tolist() == labels
        np.testing.assert_allclose(joint.per_item_log, per_item_log, rtol=1e-12)
        labels, factors = _marginal_oracle(model, test_values.tolist())
        assert marginal.labeling.tolist() == labels
        np.testing.assert_allclose(marginal.per_item_log, factors, rtol=1e-12)
        # the grouped sweep engine and the oracle's joint score must agree on
        # the final score
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

    def test_sweep_cap_reports_not_converged(self, monkeypatch, moving_case):
        model, values = moving_case
        free = _assert_matches_plain_greedy(model, values)
        # the first sweep moved items away from the marginal labeling
        assert free.converged and free.sweeps == 2
        assert (free.labeling != classify_marginal(model, values).labeling).any()
        monkeypatch.setattr(classify_module, "_MAX_SWEEPS", 1)
        capped = classify_simultaneous(model, values)
        assert capped.sweeps == 1 and not capped.converged

    def test_marginal_start_left_unchanged(self, monkeypatch, moving_case):
        # callers that observe classify_marginal (such as a tracer) compare
        # the labeling it returned with the final one
        model, values = moving_case
        returned = []
        original = classify_module.classify_marginal

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            returned.append((result.labeling, result.labeling.copy()))
            return result

        monkeypatch.setattr(classify_module, "classify_marginal", spy)
        joint = classify_simultaneous(model, values)
        [(start, snapshot)] = returned
        assert (joint.labeling != snapshot).any()
        assert np.array_equal(start, snapshot)
        assert joint.start is start

    def test_start_is_the_marginal_labeling(self, moving_case):
        model, values = moving_case
        joint = classify_simultaneous(model, values)
        marginal = classify_marginal(model, values)
        assert np.array_equal(joint.start, marginal.labeling)
        assert not np.shares_memory(joint.start, joint.labeling)
        assert (joint.labeling != joint.start).any()
        # the marginal search starts and ends at its own labeling
        assert marginal.start is marginal.labeling

    def test_memory_linear_in_classes(self):
        # the move screen holds a few (value x class) arrays, never one per
        # pair of classes
        k, n_values = 300, 200
        model = train_from_counts([SpeciesCounts([c, c + 1, c + 2], [3, 2, 1]) for c in range(k)])
        values = np.arange(n_values)
        peak = traced_peak(lambda: classify_simultaneous(model, values))
        result = classify_simultaneous(model, values)
        assert result.sweeps == 1 and result.converged
        assert peak < 32 * n_values * k * 8


class TestMatchesPlainGreedy:
    def test_no_value_movable(self, monkeypatch, hand_model):
        def no_sweeps(*args):
            raise AssertionError("no item can move, so nothing is swept")

        monkeypatch.setattr(classify_module, "_greedy_sweeps", no_sweeps)
        result = _assert_matches_plain_greedy(hand_model, [0, 1, 2, 99, 2, 0])
        assert result.sweeps == 1 and result.converged

    def test_two_sweeps(self, moving_case):
        result = _assert_matches_plain_greedy(*moving_case)
        assert result.sweeps == 2

    def test_three_sweeps(self):
        model = train_from_counts(
            [
                SpeciesCounts([2, 3, 5, 6], [1, 1, 1, 2]),
                SpeciesCounts([1, 3], [1, 5]),
                SpeciesCounts([0, 4, 5], [2, 5, 3]),
            ]
        )
        values = [2, 2, 2, 8, 2, 6]
        result = _assert_matches_plain_greedy(model, values)
        assert result.sweeps == 3 and result.converged
        assert classify_marginal(model, values).labeling.tolist() == [2, 2, 2, 0, 2, 0]
        assert result.labeling.tolist() == [0] * 6

    def test_sweep_cap(self, monkeypatch, moving_case):
        monkeypatch.setattr(classify_module, "_MAX_SWEEPS", 1)
        result = _assert_matches_plain_greedy(*moving_case, max_sweeps=1)
        assert result.sweeps == 1 and not result.converged


class TestMoveScreen:
    @given(data=st.data())
    @settings(max_examples=200)
    def test_marks_exactly_the_values_with_an_improving_move(self, data):
        # brute force: every single move of every item from the marginal start
        k = data.draw(st.integers(2, 4))
        value = st.integers(0, 8)
        tables = [data.draw(st.dictionaries(value, st.integers(1, 6), min_size=1)) for _ in range(k)]
        model = train_from_counts([SpeciesCounts(sorted(t), [t[v] for v in sorted(t)]) for t in tables])
        values = data.draw(st.lists(value, min_size=1, max_size=40))
        oracle = _oracle_model(model)
        start = classify_marginal(model, values).labeling.tolist()
        base = joint_log_score(*oracle, values, start)
        gains = {v: [] for v in values}
        for i, v in enumerate(values):
            for c in set(range(k)) - {start[i]}:
                moved = start[:i] + [c] + start[i + 1:]
                gains[v].append(joint_log_score(*oracle, values, moved) - base)
        assume(all(abs(gain - 1e-12) > 1e-9 for row in gains.values() for gain in row))
        movable = sorted(v for v, row in gains.items() if max(row) > 1e-12)

        _, inverse, train_counts, m_c, psi, scores = classify_module._scored(model, values)
        sizes = np.bincount(inverse)
        screen = classify_module._movable_values(scores, train_counts, sizes, m_c, psi)
        assert np.unique(values)[screen].tolist() == movable
        # the screen reads the shared table and leaves it as it was
        assert np.array_equal(scores, classify_module._scored(model, values)[-1])


class TestUniqueIds:
    @pytest.mark.parametrize(
        "values, binned",
        [
            ([3, 0, 3, 1], True),  # largest id = size - 1
            ([4, 0, 4, 1], False),  # largest id = size
            ([2**63 - 1, 5, 2**63 - 2, 5], False),
            ([0], True),
            ([7], False),
            ([2, 2, 2], True),
            ([5, 5, 5], False),
        ],
    )
    def test_matches_np_unique(self, monkeypatch, values, binned):
        values = np.array(values, dtype=np.int64)
        want_values, want_inverse = np.unique(values, return_inverse=True)
        sorted_calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            sorted_calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        got_values, got_inverse = classify_module._unique_ids(values)
        assert (not sorted_calls) == binned
        assert got_values.dtype == want_values.dtype and got_values.tolist() == want_values.tolist()
        assert got_inverse.dtype == np.int64 and got_inverse.tolist() == want_inverse.tolist()

    @given(
        st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=50),
        st.sampled_from(["n - 1", "n", "far"]),
    )
    def test_both_paths_match_np_unique(self, values, largest):
        n = len(values)
        top = {"n - 1": n - 1, "n": n, "far": 2**63 - 1}[largest]
        values = np.array([min(v, top) for v in values[1:]] + [top], dtype=np.int64)
        want_values, want_inverse = np.unique(values, return_inverse=True)
        got_values, got_inverse = classify_module._unique_ids(values)
        assert got_values.dtype == want_values.dtype and got_values.tolist() == want_values.tolist()
        assert got_inverse.dtype == np.int64 and got_inverse.tolist() == want_inverse.tolist()
