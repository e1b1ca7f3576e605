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
changes nothing. Both results carry the labeling they started from as
``start``, so one simultaneous call gives both classifiers' labelings.

The joint score factorizes over (class, value) groups: every one of the
``q`` co-assigned test items holding the same value sees ``q - 1`` twins. A
move changes only the two groups of the moved item's value, so items of
different values never interact. At the marginal start all items of a value
share one group of its best class, and the best move of any of them joins the
empty group of the runner-up class, gaining that class's marginal score. So
the (value x class) score table, its runner-up per row and one leave term per
value find the values whose items would gain more than the acceptance margin.
Only these values' items are swept, in input order in Python, and they reach
the labeling, sweep count and convergence flag of sweeps over every item, as
other values' groups never change; with none, the search reports one sweep.
Both classifiers read one table, :func:`_scored`'s marginal score of each
distinct test value per class (values numbered by binning when the largest is
below the item count, the rule of ``SpeciesCounts.from_values``, else by
sorting). The simultaneous start still comes from a nested
:func:`classify_marginal` call, which scores the test set again, because
perfbench's tracer reads the marginal labeling from that call. A joint score
whose denominator rises with all of a class's test items, as in the Ewens
joint predictive that ROADMAP.md plans, couples the values of a class and
voids the screen.

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

from .core import SpeciesCounts, _as_ids, _as_labeled, _contiguous, _log_factor, partition_of
from .estimation import PsiEstimate, fit_psi

__all__ = [
    "ClassModel",
    "ClassificationResult",
    "TrainingModel",
    "classify_marginal",
    "classify_simultaneous",
    "counts_by_class",
    "train",
    "train_from_counts",
]

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
    """Predicted labeling (one class id per test item) with its log predictive score.

    ``per_item_log[i]`` is item ``i``'s own log factor under the returned
    labeling; the factors sum to ``log_score`` for both classifiers.
    ``sweeps`` is 0 for the marginal classifier. ``start`` is the labeling
    the search began from: the marginal labeling for the simultaneous
    classifier (a separate array), ``labeling`` itself for the marginal one.
    """

    labeling: np.ndarray
    log_score: float
    per_item_log: np.ndarray
    sweeps: int
    converged: bool
    start: np.ndarray


def counts_by_class(labels: np.ndarray, values: np.ndarray) -> list[SpeciesCounts]:
    """Split a labeled dataset into per-class frequency tables."""
    labels, values = _as_labeled(labels, values)
    if labels.size == 0:
        raise ValueError("empty training data")
    classes = _contiguous(SpeciesCounts.from_values(labels), "class ids")
    grouped = values[np.argsort(labels)]  # counts ignore the order within a class
    return [SpeciesCounts.from_values(part)
            for part in np.split(grouped, np.cumsum(classes.counts)[:-1])]


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


def _unique_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, binned by the rule of ``from_values``."""
    if values.size and values.max() < values.size:
        present = np.bincount(values) > 0
        return np.flatnonzero(present), (np.cumsum(present) - 1)[values]
    return np.unique(values, return_inverse=True)


def _scored(model: TrainingModel, test_values: Sequence[int] | np.ndarray) -> tuple:
    """The test set scored once: each distinct value's marginal score in each class.

    Returns the gated values, ``inverse`` (each item's row), the training
    counts (value x class), the class sizes ``m_c``, the dispersals ``psi``
    and the (value x class) table of marginal log scores.
    """
    values = _as_ids(test_values, "test values", ndim=1)
    if values.size == 0:
        raise ValueError("test values must be non-empty")
    unique_values, inverse = _unique_ids(values)
    train_counts = np.stack([cm.value_counts.count_of(unique_values) for cm in model.classes], 1)
    m_c = np.array([cm.m_c for cm in model.classes], dtype=np.float64)
    psi = np.array([cm.psi_hat.psi_hat for cm in model.classes])
    return values, inverse, train_counts, m_c, psi, _log_factor(train_counts, 1, m_c, psi)


def classify_marginal(
    model: TrainingModel, test_values: Sequence[int] | np.ndarray
) -> ClassificationResult:
    """Assign every test item independently to its best-scoring class.

    Ties break toward the lowest class id. Each assignment depends only on
    the item's own value, so item order never matters.
    """
    _, inverse, *_, scores = _scored(model, test_values)
    labeling = np.argmax(scores, axis=1)[inverse]  # first max -> lowest class id on ties
    per_item_log = scores.max(axis=1)[inverse]
    return ClassificationResult(
        labeling=labeling,
        log_score=float(per_item_log.sum()),
        per_item_log=per_item_log,
        sweeps=0,
        converged=True,
        start=labeling,
    )


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


def _movable_values(scores, train_counts, sizes, m_c, psi) -> np.ndarray:
    """Values with an item whose move from the marginal start beats ``_IMPROVE_EPS``.

    ``scores`` is the (value x class) table of marginal scores, left as it
    is, and ``sizes[u]`` counts the test items of value ``u``. At the start
    they all sit in one group of their value's best class, so an item's best
    move joins the empty group of the runner-up class, whose join gain is
    that class's marginal score: each row's second-largest entry.
    """
    rows, best = np.arange(scores.shape[0]), np.argmax(scores, axis=1)
    stay = _join_gain(train_counts[rows, best], sizes - 1, m_c[best], psi[best])
    return np.sort(scores, axis=1)[:, -2] - stay > _IMPROVE_EPS


def classify_simultaneous(
    model: TrainingModel, test_values: Sequence[int] | np.ndarray
) -> ClassificationResult:
    """Greedy joint classification of all test items.

    Starts from the marginal labeling, then sweeps the items in input order,
    reassigning an item only when that strictly improves the joint score.
    Stops when a sweep makes no change, which is a local optimum of the
    joint score, or after a fixed cap of 100 sweeps, which is reported as
    ``converged = False``. The marginal labeling comes back as ``start``, so
    a caller that wants both labelings classifies once.

    Only the items of values that :func:`_movable_values` finds movable at
    the marginal start are swept; the other values' groups never change, so
    the labeling, ``sweeps`` and ``converged`` are those of a sweep over
    every item (see the module docstring). The screen, the join gains and
    the item log factors at the final group sizes read one :func:`_scored`
    call; the nested :func:`classify_marginal` call stays for the tracer.
    """
    values, inverse, train_counts, m_c, psi, scores = _scored(model, test_values)
    # called through the module global, so a wrapper of classify_marginal sees
    # this nested call; the sweeps work on a copy, so ``start`` stays as it was
    start = classify_marginal(model, values).labeling
    labeling = start.copy()
    k = model.k
    groups = np.bincount(inverse * k + labeling, minlength=scores.size).reshape(-1, k)

    sweeps, converged = 1, True
    active = _movable_values(scores, train_counts, groups.sum(axis=1), m_c, psi)
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

    # every item's group is non-empty; the clamp keeps empty groups off log 0
    per_item_log = _log_factor(train_counts, np.maximum(groups, 1), m_c, psi)[inverse, labeling]
    return ClassificationResult(
        labeling=labeling,
        log_score=float(per_item_log.sum()),
        per_item_log=per_item_log,
        sweeps=sweeps,
        converged=converged,
        start=start,
    )
