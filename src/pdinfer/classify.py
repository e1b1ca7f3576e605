"""Predictive supervised classification under partition exchangeability.

Two classifiers share one training summary and one predictive factor,
:func:`pdinfer.core._log_factor`, which also gives :func:`predictive_prob`. The
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
move changes only the two groups of the moved item's value, so items of
different values never interact. After the marginal start, one numpy pass
over the (value x class) group counts finds each item's best move, from the
largest and second-largest join gain of its value's row, which is
O(values x classes), and marks a value movable only if one of its items
would gain more than the acceptance margin. A value that is not movable at
the start stays so, since only moves of its own items change its groups. The
input-order sweeps then run in Python over the movable values' items alone,
with a table of group terms built for those values, and reach the same
labeling, sweep count and convergence flag as sweeps over every item. With
no movable value, the marginal labeling is already the local optimum and the
search reports one sweep. The screen rests on this factorization: a joint
score whose denominator rises with all of a class's test items, as in the
Ewens joint predictive that ROADMAP.md plans, couples the values of a class,
and adopting it means revisiting the screen.

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

from .core import SpeciesCounts, _as_id, _as_ids, _as_int, _log_factor, partition_of
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
    labels = _as_ids(labels, "class ids")
    values = _as_ids(values)
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
        classes.append(ClassModel(class_id, value_counts, fit_psi(partition_of(value_counts))))
    return TrainingModel(classes=tuple(classes))


def train(labels: np.ndarray, values: np.ndarray) -> TrainingModel:
    """Build a training model from parallel class-id and species-id arrays."""
    return train_from_counts(counts_by_class(labels, values))


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
    cm = model.classes[_as_int(class_id, "class id", 0, model.k)]
    return float(_log_factor(cm.value_counts.count_of(value), q, cm.m_c, cm.psi_hat.psi_hat))


def marginal_log_score(model: TrainingModel, item_value: int, class_id: int) -> float:
    """Log predictive probability of one value under one class's training data."""
    return _class_log_factor(model, _as_id(item_value), class_id, 1)


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
    labeling = _as_ids(labeling, "class ids")
    if labeling.shape != values.shape:
        raise ValueError("labeling and test values must have the same length")
    item = _as_int(item, "item index", 0, values.size)
    twins = (values == values[item]) & (labeling == class_id)
    n_icl = int(twins.sum()) - int(twins[item])
    return _class_log_factor(model, values[item], class_id, n_icl + 1)


def _greedy_sweeps(
    join_gain: list[list[float]],
    offsets: list[int],
    groups: list[list[int]],
    inverse: list[int],
    labels: list[int],
) -> tuple[int, bool]:
    """Input-order greedy ascent of the joint score.

    ``join_gain[c][offsets[u] + q]`` is the joint-score change when a group
    of ``q`` items of value ``u`` in class ``c`` gains one item; leaving a
    group of ``q`` items is the negated gain at ``q - 1``. ``groups[u][c]``
    holds the group sizes of the start labeling ``labels``; both are updated
    in place. Returns the sweep count and whether the last sweep moved
    nothing.
    """
    k = len(join_gain)
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
            return sweep, True
    return _MAX_SWEEPS, False


def _join_gain(train_count, q, m_c, psi) -> np.ndarray:
    """Joint-score change when a ``q``-item (class, value) group gains one item.

    The group's term in the joint score is ``q * factor(q)``, so the gain is
    ``(q + 1) factor(q + 1) - q factor(max(q, 1))``; leaving a group of ``q``
    items loses the gain at ``q - 1``. The arguments broadcast as in
    :func:`_log_factor`.
    """
    return (q + 1) * _log_factor(train_count, q + 1, m_c, psi) - q * _log_factor(
        train_count, np.maximum(q, 1), m_c, psi
    )


def _movable_values(groups, train_counts, m_c, psi) -> np.ndarray:
    """Values with an item whose move to another class beats ``_IMPROVE_EPS``.

    ``groups[u, c]`` counts the test items of value ``u`` labeled ``c``. An
    item's best move goes to the largest join gain of its row, or to the
    second largest when the largest is its own class; subtracting the leave
    term preserves that order, so the check is O(values x classes).
    """
    join = _join_gain(train_counts, groups, m_c, psi)
    leave = _join_gain(train_counts, np.maximum(groups - 1, 0), m_c, psi)
    rows = np.arange(groups.shape[0])
    first = np.argmax(join, axis=1)
    best = join[rows, first]
    join[rows, first] = -np.inf
    runner_up = join.max(axis=1)
    own_is_best = np.arange(groups.shape[1]) == first[:, None]
    target = np.where(own_is_best, runner_up[:, None], best[:, None])
    return ((target - leave > _IMPROVE_EPS) & (groups > 0)).any(axis=1)


def classify_simultaneous(
    model: TrainingModel, test_values: Sequence[int] | np.ndarray
) -> ClassificationResult:
    """Greedy joint classification of all test items.

    Starts from the marginal labeling, then sweeps the items in input order,
    reassigning an item only when that strictly improves the joint score.
    Stops when a sweep makes no change, which is a local optimum of the
    joint score, or after a fixed cap of 100 sweeps, which is reported as
    ``converged = False``.

    Only the items of values that :func:`_movable_values` finds movable at
    the start are swept; the other values' groups never change, so the
    labeling, ``sweeps`` and ``converged`` are those of a sweep over every
    item. That holds while the joint score factorizes over (class, value)
    groups; a per-class denominator would couple the values of a class and
    void the screen (see the module docstring).
    """
    values = _as_test_values(test_values)
    # a copy: the labeling that classify_marginal returned stays as it was
    labeling = classify_marginal(model, values).labeling.copy()
    unique_values, inverse = np.unique(values, return_inverse=True)
    train_counts, m_c, psi = _score_inputs(model, unique_values)
    k = model.k
    groups = np.bincount(inverse * k + labeling, minlength=unique_values.size * k).reshape(-1, k)

    sweeps, converged = 1, True
    active = _movable_values(groups, train_counts, m_c, psi)
    if active.any():
        items = np.flatnonzero(active[inverse])
        local_value = np.cumsum(active) - 1
        # join gains at q = 0 .. N_u for each movable value u, stacked by value
        span = groups[active].sum(axis=1) + 1
        starts = np.cumsum(span) - span
        value_of_row = np.repeat(np.flatnonzero(active), span)
        q = (np.arange(span.sum()) - np.repeat(starts, span))[:, None]
        join_gain = _join_gain(train_counts[value_of_row], q, m_c, psi).T.tolist()
        labels = labeling[items].tolist()
        moved_groups = groups[active].tolist()
        sweeps, converged = _greedy_sweeps(
            join_gain, starts.tolist(), moved_groups, local_value[inverse[items]].tolist(), labels
        )
        labeling[items] = labels
        groups[active] = moved_groups

    per_item_log = _log_factor(
        train_counts[inverse, labeling], groups[inverse, labeling], m_c[labeling], psi[labeling]
    )
    return ClassificationResult(
        labeling=labeling,
        log_score=float(per_item_log.sum()),
        per_item_log=per_item_log,
        sweeps=sweeps,
        converged=converged,
    )
