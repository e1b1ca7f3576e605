"""(n, k) is the one sample contract of the fit and the tests.

``K_n`` is sufficient for ``psi`` under the Ewens sampling formula, so
``fit_psi``, ``fit_psi_pooled``, ``score_U``, ``lm_test`` and ``lr_test`` read a
sample only through its size and distinct count. A frequency table and its
abundance partition must therefore give equal results, degenerate fits and
refusals included, and an empty table is refused by every entry point with
the same ``ValueError`` (``train_from_counts`` through ``partition_of``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdinfer import (
    SpeciesCounts,
    fit_psi,
    fit_psi_pooled,
    lm_test,
    lr_test,
    partition_of,
    score_U,
    train_from_counts,
)

EMPTY = SpeciesCounts([], [])
TABLE = SpeciesCounts([0, 1], [2, 1])
N_MAX = 10**5


def _table(counts) -> SpeciesCounts:
    counts = np.asarray(counts, dtype=np.int64)
    return SpeciesCounts(np.arange(counts.size), counts)


TABLES = st.one_of(
    st.integers(1, N_MAX).map(lambda n: [n]),  # a single species
    st.integers(1, N_MAX).map(lambda n: np.ones(n, np.int64)),  # all distinct
    st.lists(st.integers(1, 50), min_size=1, max_size=300),
    st.lists(st.integers(1, N_MAX // 20), min_size=1, max_size=20),
).map(_table)
PSI0 = st.floats(min_value=1e-3, max_value=1e4)


def _outcome(call, *args):
    """A call's result, or the type and message of the ``ValueError`` it raised."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fit_psi(EMPTY),
        lambda: fit_psi_pooled([TABLE, EMPTY]),
        lambda: score_U(EMPTY, 1.0),
        lambda: lm_test(EMPTY, 1.0),
        lambda: lr_test([TABLE, EMPTY]),
        lambda: partition_of(EMPTY),
        lambda: train_from_counts([TABLE, EMPTY]),
    ],
    ids=["fit_psi", "fit_psi_pooled", "score_U", "lm_test", "lr_test", "partition_of",
         "train_from_counts"],
)
def test_empty_sample_refused(call):
    with pytest.raises(ValueError, match="^empty sample$") as info:
        call()
    assert type(info.value) is ValueError


@settings(max_examples=60, deadline=None)
@given(table=TABLES, psi0=PSI0)
@example(table=_table([7]), psi0=1.0)  # degenerate low
@example(table=_table([1, 1, 1]), psi0=2.0)  # degenerate high
@example(table=_table([1]), psi0=1.0)  # n = 1: lm_test refuses
def test_table_and_partition_agree(table, psi0):
    rho = partition_of(table)
    assert fit_psi(table) == fit_psi(rho)
    assert score_U(table, psi0) == score_U(rho, psi0)
    assert _outcome(lm_test, table, psi0) == _outcome(lm_test, rho, psi0)


@settings(max_examples=60, deadline=None)
@given(tables=st.lists(TABLES, min_size=1, max_size=3))
@example(tables=[_table([3, 1]), _table([5])])  # lr_test: DegenerateSampleError
def test_pooled_table_and_partition_agree(tables):
    rhos = [partition_of(table) for table in tables]
    assert fit_psi_pooled(tables) == fit_psi_pooled(rhos)
    assert _outcome(lr_test, tables) == _outcome(lr_test, rhos)
