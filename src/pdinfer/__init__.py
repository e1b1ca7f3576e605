"""Inference toolkit for the one-parameter Poisson-Dirichlet (Ewens) model.

Estimation and hypothesis testing of the dispersal parameter, generation of
partition-exchangeable sequences from the underlying urn scheme, and
marginal/simultaneous Bayesian predictive classification, with a
command-line front end (``pd-infer``) and a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .core import (
    NEW,
    Partition,
    SpeciesCounts,
    esf_log_pmf,
    expected_distinct,
    partition_of,
    predictive_prob,
)
from .estimation import (
    PSI_MAX,
    PSI_MIN,
    PsiEstimate,
    fit_psi,
    fit_psi_pooled,
)
from .hypothesis import (
    DegenerateSampleError,
    TestReport,
    chi_square_sf,
    lm_test,
    lr_test,
    score_U,
)
from .sampling import (
    GeneratedSequence,
    UrnConfig,
    derive_seeds,
    sample_labeled_dataset,
    sample_sequence,
)
from .dataio import Dataset, DatasetFormatError, read_dataset, write_dataset
from .classify import (
    ClassModel,
    ClassificationResult,
    TrainingModel,
    classify_marginal,
    classify_simultaneous,
    counts_by_class,
    train,
    train_from_counts,
)
from .experiment import ExperimentRow, ExperimentSpec, run_convergence_experiment

__all__ = [
    "NEW",
    "PSI_MAX",
    "PSI_MIN",
    "ClassModel",
    "ClassificationResult",
    "Dataset",
    "DatasetFormatError",
    "DegenerateSampleError",
    "ExperimentRow",
    "ExperimentSpec",
    "GeneratedSequence",
    "Partition",
    "PsiEstimate",
    "SpeciesCounts",
    "TestReport",
    "TrainingModel",
    "UrnConfig",
    "chi_square_sf",
    "classify_marginal",
    "classify_simultaneous",
    "counts_by_class",
    "derive_seeds",
    "esf_log_pmf",
    "expected_distinct",
    "fit_psi",
    "fit_psi_pooled",
    "lm_test",
    "lr_test",
    "partition_of",
    "predictive_prob",
    "read_dataset",
    "run_convergence_experiment",
    "sample_labeled_dataset",
    "sample_sequence",
    "score_U",
    "train",
    "train_from_counts",
    "write_dataset",
    "__version__",
]
