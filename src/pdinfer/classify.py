"""Predictive supervised classification under partition exchangeability.

Two classifiers share one training summary and one predictive factor. The
marginal classifier scores each test item independently with its
class-conditional predictive probability and takes the best class. The
simultaneous classifier scores a whole labeling jointly: a test item's
probability also counts the other test items currently assigned to the same
class that share its value. It climbs that joint score greedily: start from
the marginal labeling, sweep the items in input order, reassign an item only
when moving it strictly improves the joint score, and stop when a sweep
changes nothing.

The joint score factorizes over (class, value) groups: every one of the
``q`` co-assigned test items holding the same value sees ``q - 1`` twins. A
table of group terms, built once per call, therefore prices every move, and
a full sweep is O(items x classes) table lookups.

A training class whose dispersal fit lands on the bracket boundary (one
distinct value, or all values distinct) is a normal outcome, not an error:
the model records it in ``ClassModel.psi_hat`` (``status``, ``converged``)
and no Python warning is raised. Test values must be non-negative integer
species ids; floats and strings are refused, never truncated or parsed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import SpeciesCounts, _as_ids, partition_of
from .estimation import PsiEstimate, fit_psi

__all__ = [
    "ClassModel",
    "ClassificationResult",
    "Labeling",
    "TrainingModel",
    "classify_marginal",
    "classify_simultaneous",
    "counts_by_class",
    "marginal_log_score",
    "simultaneous_log_score",
    "train",
    "train_from_counts",
]

#: A labeling is a vector of class ids, one per test item.
Labeling = np.ndarray

# Accept a reassignment only past this margin, so equal-score labelings can
# never cycle.
_IMPROVE_EPS = 1e-12

# The greedy search stops here even if the last sweep still moved an item,
# and then reports ``converged = False``.
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class ClassModel:
    """Training summary of one class: value counts and fitted dispersal."""

    class_id: int
    value_counts: SpeciesCounts
    psi_hat: PsiEstimate

    @property
    def m_c(self) -> int:
        """Number of training items in the class."""
        return self.value_counts.n


@dataclass(frozen=True)
class TrainingModel:
    """Per-class training summaries with contiguous class ids ``0..k-1``."""

    classes: tuple[ClassModel, ...]

    @property
    def k(self) -> int:
        return len(self.classes)


@dataclass(frozen=True, eq=False)
class ClassificationResult:
    """Predicted labeling with its log predictive score.

    ``per_item_log[i]`` is item ``i``'s own log factor under the returned
    labeling; the factors sum to ``log_score`` for both classifiers.
    ``sweeps`` is 0 for the marginal classifier.
    """

    labeling: Labeling
    log_score: float
    per_item_log: np.ndarray
    sweeps: int
    converged: bool


def counts_by_class(labels: np.ndarray, values: np.ndarray) -> list[SpeciesCounts]:
    """Split a labeled dataset into per-class frequency tables."""
    labels = np.asarray(labels, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if labels.shape != values.shape or labels.ndim != 1:
        raise ValueError("labels and values must be 1-d arrays of equal length")
    if labels.size == 0:
        raise ValueError("empty training data")
    present = np.unique(labels)
    k = int(present[-1]) + 1
    if len(present) != k:
        raise ValueError(
            f"class ids must be contiguous 0..k-1, got {present.tolist()}"
        )
    return [SpeciesCounts.from_values(values[labels == c]) for c in range(k)]


def train_from_counts(per_class_counts: Sequence[SpeciesCounts]) -> TrainingModel:
    """Fit one dispersal parameter per class from prepared frequency tables.

    A degenerate class (one distinct value, or all values distinct) is
    data, not an error: it keeps its boundary estimate, flagged by
    ``psi_hat.status`` and ``psi_hat.converged``, and classification uses
    that clamped value.
    """
    if len(per_class_counts) < 2:
        raise ValueError(f"need at least 2 training classes, got {len(per_class_counts)}")
    classes = []
    for class_id, value_counts in enumerate(per_class_counts):
        if value_counts.n == 0:
            raise ValueError(f"class {class_id} has no training items")
        classes.append(ClassModel(class_id, value_counts, fit_psi(partition_of(value_counts))))
    return TrainingModel(classes=tuple(classes))


def train(labels: np.ndarray, values: np.ndarray) -> TrainingModel:
    """Build a training model from parallel class-id and species-id arrays."""
    return train_from_counts(counts_by_class(labels, values))


def _log_factor(train_count, q, m_c, psi) -> np.ndarray:
    """Log predictive factor of one of ``q`` co-assigned test items sharing a value.

    ``train_count`` is the value's count in the class's training data, ``m_c``
    and ``psi`` are the class's size and dispersal; the arguments broadcast.
    The item's ``q - 1`` twins join the numerator only for a value seen in
    training (an unseen value keeps ``psi`` there) and always join the
    denominator. ``q = 1`` is the marginal predictive probability.
    """
    numerator = np.where(train_count > 0, train_count + q - 1, psi)
    return np.log(numerator) - np.log(m_c + q - 1 + psi)


def _score_inputs(
    model: TrainingModel, unique_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training counts (values x classes), class sizes and dispersals."""
    train_counts = np.stack([cm.value_counts.count_of(unique_values) for cm in model.classes], 1)
    m_c = np.array([cm.m_c for cm in model.classes], dtype=np.float64)
    psi = np.array([cm.psi_hat.psi_hat for cm in model.classes])
    return train_counts, m_c, psi


def _class_log_factor(model: TrainingModel, value: int, class_id: int, q: int) -> float:
    """Log factor of one of ``q`` co-assigned test items holding ``value`` in class ``class_id``."""
    if not 0 <= class_id < model.k:
        raise ValueError(f"class id {class_id} out of range")
    cm = model.classes[class_id]
    return float(_log_factor(cm.value_counts.count_of(value), q, cm.m_c, cm.psi_hat.psi_hat))


def marginal_log_score(model: TrainingModel, item_value: int, class_id: int) -> float:
    """Log predictive probability of one value under one class's training data."""
    return _class_log_factor(model, item_value, class_id, 1)


def _as_test_values(test_values: Sequence[int] | np.ndarray) -> np.ndarray:
    values = _as_ids(test_values)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("test values must be a non-empty 1-d sequence")
    return values


def classify_marginal(
    model: TrainingModel, test_values: Sequence[int] | np.ndarray
) -> ClassificationResult:
    """Assign every test item independently to its best-scoring class.

    Ties break toward the lowest class id. Each assignment depends only on
    the item's own value, so item order never matters.
    """
    values = _as_test_values(test_values)
    unique_values, inverse = np.unique(values, return_inverse=True)
    train_counts, m_c, psi = _score_inputs(model, unique_values)
    scores = _log_factor(train_counts, 1, m_c, psi)
    best = np.argmax(scores, axis=1)  # first max -> lowest class id on ties
    labeling = best[inverse]
    per_item_log = scores[inverse, labeling]
    return ClassificationResult(
        labeling=labeling,
        log_score=float(per_item_log.sum()),
        per_item_log=per_item_log,
        sweeps=0,
        converged=True,
    )


def simultaneous_log_score(
    model: TrainingModel,
    test_values: Sequence[int] | np.ndarray,
    labeling: Labeling,
    item: int,
    class_id: int,
) -> float:
    """Log factor of one item under the joint predictive score.

    Counts the other test items with item ``item``'s value currently labeled
    ``class_id``; with no such co-assigned twins this reduces exactly to
    :func:`marginal_log_score`. Whether the value counts as "seen" depends
    on the training data only.
    """
    values = _as_test_values(test_values)
    labeling = np.asarray(labeling, dtype=np.int64)
    if labeling.shape != values.shape:
        raise ValueError("labeling and test values must have the same length")
    if not 0 <= item < values.size:
        raise ValueError(f"item index {item} out of range")
    twins = (values == values[item]) & (labeling == class_id)
    n_icl = int(twins.sum()) - int(twins[item])
    return _class_log_factor(model, values[item], class_id, n_icl + 1)


def _greedy_sweeps(
    join_gain: list[list[float]],
    offsets: list[int],
    inverse: list[int],
    labels: list[int],
) -> tuple[list[list[int]], int, bool]:
    """Input-order greedy ascent of the joint score; updates ``labels`` in place.

    ``join_gain[c][offsets[u] + q]`` is the joint-score change when a group
    of ``q`` items of value ``u`` in class ``c`` gains one item; leaving a
    group of ``q`` items is the negated gain at ``q - 1``. Returns the final
    group sizes ``[u][c]``, the sweep count and whether the last sweep moved
    nothing.
    """
    k = len(join_gain)
    groups = [[0] * k for _ in offsets]
    for u, c in zip(inverse, labels):
        groups[u][c] += 1
    for sweep in range(1, _MAX_SWEEPS + 1):
        changed = False
        for i, u in enumerate(inverse):
            row = groups[u]
            base = offsets[u]
            current = labels[i]
            leave_gain = -join_gain[current][base + row[current] - 1]
            best_delta = 0.0
            best_class = current
            for c in range(k):
                if c != current:
                    delta = leave_gain + join_gain[c][base + row[c]]
                    if delta > best_delta:
                        best_delta = delta
                        best_class = c
            if best_delta > _IMPROVE_EPS:
                row[current] -= 1
                row[best_class] += 1
                labels[i] = best_class
                changed = True
        if not changed:
            return groups, sweep, True
    return groups, _MAX_SWEEPS, False


def classify_simultaneous(
    model: TrainingModel, test_values: Sequence[int] | np.ndarray
) -> ClassificationResult:
    """Greedy joint classification of all test items.

    Starts from the marginal labeling, then sweeps the items in input order,
    reassigning an item only when that strictly improves the joint score.
    Stops when a sweep makes no change, which is a local optimum of the
    joint score, or after a fixed cap of 100 sweeps, which is reported as
    ``converged = False``.
    """
    values = _as_test_values(test_values)
    labels = classify_marginal(model, values).labeling.tolist()
    unique_values, inverse, group_sizes = np.unique(
        values, return_inverse=True, return_counts=True
    )
    train_counts, m_c, psi = _score_inputs(model, unique_values)

    # group terms q * factor(q) for q = 0 .. N_u + 1 per value u, stacked by value
    span = group_sizes + 2
    starts = np.cumsum(span) - span
    value_of_row = np.repeat(np.arange(unique_values.size), span)
    q = (np.arange(span.sum()) - starts[value_of_row])[:, None]
    terms = q * _log_factor(train_counts[value_of_row], np.maximum(q, 1), m_c, psi)
    join_gain = np.diff(terms, axis=0).T.tolist()

    groups, sweeps, converged = _greedy_sweeps(
        join_gain, starts.tolist(), inverse.tolist(), labels
    )

    labeling = np.asarray(labels, dtype=np.int64)
    twins_and_self = np.asarray(groups)[inverse, labeling]
    per_item_log = _log_factor(
        train_counts[inverse, labeling], twins_and_self, m_c[labeling], psi[labeling]
    )
    return ClassificationResult(
        labeling=labeling,
        log_score=float(per_item_log.sum()),
        per_item_log=per_item_log,
        sweeps=sweeps,
        converged=converged,
    )
