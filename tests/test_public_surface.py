"""The package's public surface: every exported name resolves, every public name is exported,
and the root exports exactly its modules' ``__all__`` lists."""

import importlib
import types

import pytest

import pdinfer

# the root's import order, which its __all__ follows
MODULES = ["core", "estimation", "hypothesis", "sampling", "dataio", "classify", "experiment"]


def test_star_import_binds_all():
    namespace = {}
    exec("from pdinfer import *", namespace)
    assert set(pdinfer.__all__) <= namespace.keys()


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    module = importlib.import_module(f"pdinfer.{module}")
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_root_public_names_are_exported():
    bound = {
        name
        for name, value in vars(pdinfer).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound - set(pdinfer.__all__) == set()


# the root's names when it listed them by hand, before it took its modules' __all__
HAND_LISTED = {
    "NEW", "PSI_MAX", "PSI_MIN", "ClassModel", "ClassificationResult", "Dataset",
    "DatasetFormatError", "DegenerateSampleError", "ExperimentRow", "ExperimentSpec",
    "GeneratedSequence", "Partition", "PsiEstimate", "SpeciesCounts", "TestReport",
    "TrainingModel", "UrnConfig", "chi_square_sf", "classify_marginal", "classify_simultaneous",
    "counts_by_class", "derive_seeds", "esf_log_pmf", "expected_distinct", "fit_psi",
    "fit_psi_pooled", "lm_test", "lr_test", "partition_of", "predictive_prob", "read_dataset",
    "run_convergence_experiment", "sample_labeled_dataset", "sample_sequence", "score_U",
    "train", "train_from_counts", "write_dataset", "__version__",
}


def test_root_all_is_the_ordered_union_of_module_alls():
    union = [name for module in MODULES
             for name in importlib.import_module(f"pdinfer.{module}").__all__]
    assert pdinfer.__all__ == [*union, "__version__"]
    assert len(set(pdinfer.__all__)) == len(pdinfer.__all__)


def test_root_adds_only_the_module_constants():
    assert len(HAND_LISTED) == 39
    assert set(pdinfer.__all__) - HAND_LISTED == {
        "MAX_ITERATIONS", "RESIDUAL_TOL", "STEP_TOL", "STATUS_CONVERGED",
        "STATUS_DEGENERATE_LOW", "STATUS_DEGENERATE_HIGH", "METHOD_LAGRANGE_MULTIPLIER",
        "METHOD_LIKELIHOOD_RATIO", "FORMAT_VERSION", "KIND_LABELED", "KIND_UNLABELED",
    }
    assert HAND_LISTED - set(pdinfer.__all__) == set()


def test_root_names_are_the_module_objects():
    for module in MODULES:
        module = importlib.import_module(f"pdinfer.{module}")
        for name in module.__all__:
            assert getattr(pdinfer, name) is getattr(module, name)
