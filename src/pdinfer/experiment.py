"""Classifier convergence study: error and agreement as training data grows.

Each replicate grows one training table per class and draws one fixed test
set from the same dispersal parameters, then classifies the test set with
both classifiers at every requested training size. Each class's table at a
training size is that of one urn draw's first ``m // k`` items, grown from
the previous size's table by the exact law of the next items
(``sampling._grown_tables``): growing the training data extends it rather
than redrawing, which keeps the convergence curve smooth, and no training id
is held. One simultaneous classification per training size gives both
labelings: the marginal one is the ``start`` it returns. Results are averaged
over replicates and written, in the v1 text format of :mod:`pdinfer.dataio`,
as tab-separated tables plus one plot-ready series file per metric. One list,
``_METRICS``, names the metrics; every table's columns, the series files and
the CLI's table follow it. A class whose dispersal fit lands on the bracket
boundary (the degenerate case, e.g. a training prefix of values all seen
once) is part of the study: it trains and classifies with the clamped value
like any other class. The test set is drawn by ``sampling._sample_classes``,
the per-class urn draw of :func:`pdinfer.sampling.sample_labeled_dataset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .classify import classify_simultaneous, train_from_counts
from .core import _as_int, _check_psi
from .dataio import _write_v1
from .sampling import _check_seed, _grown_tables, _sample_classes, derive_seeds

__all__ = [
    "ExperimentRow",
    "ExperimentSpec",
    "run_convergence_experiment",
]

# the per-size metrics, in the order of every output column and of ExperimentRow's fields
_METRICS = ("err_marginal", "err_simultaneous", "disagreement")


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one convergence study.

    ``training_sizes`` are total training sizes; each class trains on
    ``m // k`` items, and each class contributes ``test_size // k`` test
    items. All randomness derives from ``master_seed``. A spec whose
    estimated working memory exceeds ``memory_cap_bytes`` is refused.
    """

    psis: tuple[float, ...]
    training_sizes: tuple[int, ...]
    test_size: int
    replicates: int
    master_seed: int
    output_path: Path
    memory_cap_bytes: int = 2 * 2**30

    def __post_init__(self) -> None:
        psis = tuple(_check_psi(p) for p in self.psis)
        if len(psis) < 2:
            raise ValueError("need at least 2 classes")
        # a training or test size below k leaves a class without items
        sizes = tuple(_as_int(m, "training size", len(psis)) for m in self.training_sizes)
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("training sizes must be a non-empty strictly increasing list")
        object.__setattr__(self, "psis", psis)
        object.__setattr__(self, "training_sizes", sizes)
        object.__setattr__(self, "test_size", _as_int(self.test_size, "test size", len(psis)))
        object.__setattr__(self, "replicates", _as_int(self.replicates, "replicates"))
        object.__setattr__(self, "master_seed", _check_seed(self.master_seed))
        object.__setattr__(self, "output_path", Path(self.output_path))
        estimated = self.estimated_memory_bytes()
        if estimated > self.memory_cap_bytes:
            raise ValueError(
                f"estimated working memory {estimated} bytes exceeds the cap of "
                f"{self.memory_cap_bytes}; raise the memory cap to proceed"
            )

    @property
    def k(self) -> int:
        return len(self.psis)

    def estimated_memory_bytes(self) -> int:
        """Rough upper bound on peak working memory, counting what each replicate keeps."""
        per_class = [m // self.k for m in self.training_sizes]
        test_per_class = self.test_size // self.k
        stored = 8 * self.k * test_per_class
        # the largest urn draw: the first training size, a growth step's new species (at most
        # the step) or a test set; an urn draw peaks at 25 bytes per observation (three
        # length-n buffers and the new/old flags; tracemalloc at n = 1e5, psi = 10)
        steps = [b - a for a, b in zip(per_class, per_class[1:])]
        transient = 48 * max(per_class[0], test_per_class, *steps)
        # a class's table has at most one entry per training item: ids and counts of the
        # tables held and of the one being grown, and a step's gammas, probabilities and
        # increments (tracemalloc, all-distinct values: 31 bytes a training item at k = 2)
        tables = 64 * self.k * per_class[-1]
        # kept for the whole run, per replicate: its seed block and metrics list (2 KB budget),
        # 2k derived seeds and one row per training size (about 22 and 233 bytes; 64 and
        # 512 bound them). The serial tracemalloc slope is 1.1-2.6 KB per replicate
        per_replicate = 2048 + 64 * 2 * self.k + 512 * len(self.training_sizes)
        # classifying the test set: its labelings, scores, (values x classes) arrays and greedy
        # tables (tracemalloc, all-distinct values: 313 bytes a test item at k = 2, 525 at k = 8)
        classify = self.test_size * (256 + 64 * self.k)
        return 2 * (stored + transient) + tables + classify + self.replicates * per_replicate


@dataclass(frozen=True)
class ExperimentRow:
    """Replicate-averaged metrics at one training size.

    The fields are ``m``, the mean of each study metric, then each metric's
    replicate standard deviation (``sd_<name>``, 0 with one replicate), in the
    order of the output files' columns.
    """

    m: int
    err_marginal: float
    err_simultaneous: float
    disagreement: float
    sd_err_marginal: float
    sd_err_simultaneous: float
    sd_disagreement: float


def _replicate_metrics(
    spec: ExperimentSpec, seeds: tuple[int, ...]
) -> list[tuple[float, ...]]:
    """The replicate's ``_METRICS`` values per training size.

    ``seeds`` is the replicate's block of ``2k`` derived seeds: the class
    training draws' seeds, then the class test sets'.
    """
    k = spec.k
    test_per_class = spec.test_size // k
    test_values = np.concatenate(_sample_classes(spec.psis, test_per_class, seeds[k:]))
    truth = np.repeat(np.arange(k), test_per_class)
    per_class = [m // k for m in spec.training_sizes]
    grown = (_grown_tables(psi, per_class, seed) for psi, seed in zip(spec.psis, seeds[:k]))

    metrics = []
    for tables in zip(*grown):
        model = train_from_counts(tables)
        simultaneous = classify_simultaneous(model, test_values)
        marginal = simultaneous.start
        metrics.append(
            (
                float((marginal != truth).mean()),
                float((simultaneous.labeling != truth).mean()),
                float((marginal != simultaneous.labeling).mean()),
            )
        )
    return metrics


def _metadata(spec: ExperimentSpec) -> dict[str, object]:
    """Header metadata shared by every output file of a study."""
    return {
        "tool_version": __version__,
        "psis": ",".join(f"{p:g}" for p in spec.psis),
        "training_sizes": ",".join(str(m) for m in spec.training_sizes),
        "test_size": spec.test_size,
        "replicates": spec.replicates,
        "master_seed": spec.master_seed,
        "seed_derivation": "derive_seeds(master_seed, replicates*2*k); "
        "replicate r, class c: training pool seed [r*2k + c], test seed [r*2k + k + c]",
        "per_class_training_size": "m // k",
        "per_class_test_size": "test_size // k",
    }


def run_convergence_experiment(spec: ExperimentSpec) -> list[ExperimentRow]:
    """Run the study, write its output files, and return the summary rows.

    Replicates run in order in the calling process; deterministic given ``master_seed``.
    """
    block = 2 * spec.k
    seeds = derive_seeds(spec.master_seed, spec.replicates * block)
    per_replicate = [
        _replicate_metrics(spec, seeds[r * block : (r + 1) * block]) for r in range(spec.replicates)
    ]

    stacked = np.array(per_replicate)  # (replicates, sizes, metrics)
    means = stacked.mean(axis=0)
    sds = stacked.std(axis=0, ddof=min(1, spec.replicates - 1))  # exactly 0.0 for one replicate
    _write_outputs(spec, stacked, means, sds)
    return [
        ExperimentRow(m, *means[j].tolist(), *sds[j].tolist())
        for j, m in enumerate(spec.training_sizes)
    ]


def _write_outputs(
    spec: ExperimentSpec, stacked: np.ndarray, means: np.ndarray, sds: np.ndarray
) -> None:
    out = spec.output_path
    out.mkdir(parents=True, exist_ok=True)
    metadata = _metadata(spec)
    sizes = np.array(spec.training_sizes)
    replicates = stacked.shape[0]

    stats = [column for i in range(len(_METRICS)) for column in (means[:, i], sds[:, i])]
    _write_v1(out / "summary.tsv", "experiment-summary", metadata,
              "\t".join(["{}"] + ["{:.6f}"] * len(stats)).format, [sizes, *stats],
              names=["m", *(f"{name}_{stat}" for name in _METRICS for stat in ("mean", "sd"))])

    values = [stacked[:, :, i].ravel() for i in range(len(_METRICS))]
    _write_v1(out / "replicates.tsv", "experiment-replicates", metadata,
              "\t".join(["{}", "{}"] + ["{:.17g}"] * len(values)).format,
              [np.repeat(np.arange(replicates), sizes.size), np.tile(sizes, replicates), *values],
              names=["replicate", "m", *_METRICS])

    for i, name in enumerate(_METRICS):
        _write_v1(out / f"series_{name}.tsv", f"series {name}", metadata, "{}\t{:.17g}".format,
                  [sizes, means[:, i]], names=["m", "value"])
