"""Classifier convergence study: error and agreement as training data grows.

Each replicate draws one large training pool per class and one fixed test
set from the same dispersal parameters, then classifies the test set with
both classifiers at every requested training size, reusing nested prefixes
of the pools (growing the training data extends it rather than redrawing,
which keeps the convergence curve smooth). Results are averaged over
replicates and written, in the v1 text format of :mod:`pdinfer.dataio`, as
tab-separated tables plus one plot-ready series file per curve. A class whose
dispersal fit lands on the bracket boundary (the degenerate case, e.g. a
training prefix of values all seen once) is part of the study: it trains and
classifies with the clamped value like any other class.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .classify import classify_marginal, classify_simultaneous, train_from_counts
from .core import SpeciesCounts, _check_psi
from .dataio import _write_v1
from .sampling import UrnConfig, _check_seed, derive_seeds, sample_sequence

__all__ = [
    "ExperimentRow",
    "ExperimentSpec",
    "run_convergence_experiment",
]

_SUMMARY_FILE = "summary.tsv"
_REPLICATES_FILE = "replicates.tsv"
_SERIES_FILES = {
    "err_marginal": "series_err_marginal.tsv",
    "err_simultaneous": "series_err_simultaneous.tsv",
    "disagreement": "series_disagreement.tsv",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one convergence study.

    ``training_sizes`` are total training sizes; each class trains on
    ``m // k`` items, and each class contributes ``test_size // k`` test
    items. All randomness derives from ``master_seed``. A spec whose
    estimated working memory exceeds ``memory_cap_bytes`` is refused.
    Replicates run on ``workers`` processes (at least 1; ``None`` means
    ``os.cpu_count()``).
    """

    psis: tuple[float, ...]
    training_sizes: tuple[int, ...]
    test_size: int
    replicates: int
    master_seed: int
    output_path: Path
    memory_cap_bytes: int = 2 * 2**30
    workers: int | None = None

    def __post_init__(self) -> None:
        psis = tuple(_check_psi(p) for p in self.psis)
        if len(psis) < 2:
            raise ValueError("need at least 2 classes")
        sizes = tuple(int(m) for m in self.training_sizes)
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("training sizes must be a non-empty strictly increasing list")
        if sizes[0] // len(psis) < 1:
            raise ValueError(
                f"smallest training size {sizes[0]} leaves no items per class"
            )
        if int(self.test_size) // len(psis) < 1:
            raise ValueError(f"test size {self.test_size} leaves no items per class")
        if int(self.replicates) < 1:
            raise ValueError("need at least 1 replicate")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"need at least 1 worker, got {self.workers}")
        object.__setattr__(self, "psis", psis)
        object.__setattr__(self, "training_sizes", sizes)
        object.__setattr__(self, "test_size", int(self.test_size))
        object.__setattr__(self, "replicates", int(self.replicates))
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
        pool_per_class = max(self.training_sizes) // self.k
        test_per_class = self.test_size // self.k
        stored = 8 * self.k * (pool_per_class + test_per_class)
        # generation temporaries: a handful of length-n arrays at once
        transient = 48 * max(pool_per_class, test_per_class)
        # kept for the whole run, per replicate: its seed block and pending result
        # (measured at 0.6 KB serially, 2 KB on the process pool), 2k derived
        # seeds and one metrics row per training size (measured at about 22
        # and 233 bytes; 64 and 512 bound them)
        per_replicate = 2048 + 64 * 2 * self.k + 512 * len(self.training_sizes)
        return 2 * (stored + transient) + self.replicates * per_replicate


@dataclass(frozen=True)
class ExperimentRow:
    """Replicate-averaged metrics at one training size."""

    m: int
    err_marginal: float
    err_simultaneous: float
    disagreement: float
    sd_err_marginal: float = 0.0
    sd_err_simultaneous: float = 0.0
    sd_disagreement: float = 0.0


def _replicate_metrics(
    spec: ExperimentSpec, seeds: tuple[int, ...]
) -> list[tuple[float, float, float]]:
    """Metrics (err_marginal, err_simultaneous, disagreement) per training size.

    ``seeds`` is the replicate's block of ``2k`` derived seeds: the class
    training pools' seeds, then the class test sets'.
    """
    k = spec.k
    pool_per_class = max(spec.training_sizes) // k
    test_per_class = spec.test_size // k
    pools = [
        sample_sequence(UrnConfig(psi, pool_per_class, seed)).values
        for psi, seed in zip(spec.psis, seeds[:k])
    ]
    test_values = np.concatenate(
        [
            sample_sequence(UrnConfig(psi, test_per_class, seed)).values
            for psi, seed in zip(spec.psis, seeds[k:])
        ]
    )
    truth = np.repeat(np.arange(k), test_per_class)

    metrics = []
    for m in spec.training_sizes:
        per_class = m // k
        model = train_from_counts([SpeciesCounts.from_values(pool[:per_class]) for pool in pools])
        marginal = classify_marginal(model, test_values)
        simultaneous = classify_simultaneous(model, test_values)
        metrics.append(
            (
                float((marginal.labeling != truth).mean()),
                float((simultaneous.labeling != truth).mean()),
                float((marginal.labeling != simultaneous.labeling).mean()),
            )
        )
    return metrics


def _worker_count(spec: ExperimentSpec) -> int:
    if spec.workers is not None:
        return int(spec.workers)
    return os.cpu_count() or 1


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
        "per_class_training_size": "m // k; per_class_test_size = test_size // k",
    }


def run_convergence_experiment(spec: ExperimentSpec) -> list[ExperimentRow]:
    """Run the study, write its output files, and return the summary rows.

    Deterministic given ``master_seed``, regardless of the parallelism
    degree.
    """
    block = 2 * spec.k
    seeds = derive_seeds(spec.master_seed, spec.replicates * block)
    seed_blocks = [seeds[r * block : (r + 1) * block] for r in range(spec.replicates)]
    replicate = functools.partial(_replicate_metrics, spec)

    workers = min(_worker_count(spec), spec.replicates)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_replicate = list(pool.map(replicate, seed_blocks))
    else:
        per_replicate = list(map(replicate, seed_blocks))

    # per_replicate[r][j] = (err_m, err_s, dis) at training_sizes[j]
    stacked = np.array(per_replicate)  # (replicates, sizes, 3)
    means = stacked.mean(axis=0)
    if spec.replicates > 1:
        sds = stacked.std(axis=0, ddof=1)
    else:
        sds = np.zeros_like(means)

    rows = [
        ExperimentRow(
            m=m,
            err_marginal=float(means[j, 0]),
            err_simultaneous=float(means[j, 1]),
            disagreement=float(means[j, 2]),
            sd_err_marginal=float(sds[j, 0]),
            sd_err_simultaneous=float(sds[j, 1]),
            sd_disagreement=float(sds[j, 2]),
        )
        for j, m in enumerate(spec.training_sizes)
    ]
    _write_outputs(spec, rows, stacked)
    return rows


def _write_outputs(
    spec: ExperimentSpec, rows: list[ExperimentRow], stacked: np.ndarray
) -> None:
    out = spec.output_path
    out.mkdir(parents=True, exist_ok=True)
    metadata = _metadata(spec)

    summary = [
        "# columns: m\terr_marginal_mean\terr_marginal_sd\terr_simultaneous_mean"
        "\terr_simultaneous_sd\tdisagreement_mean\tdisagreement_sd"
    ]
    summary.extend(
        f"{row.m}\t{row.err_marginal:.6f}\t{row.sd_err_marginal:.6f}"
        f"\t{row.err_simultaneous:.6f}\t{row.sd_err_simultaneous:.6f}"
        f"\t{row.disagreement:.6f}\t{row.sd_disagreement:.6f}"
        for row in rows
    )
    _write_v1(out / _SUMMARY_FILE, "experiment-summary", metadata, summary)

    raw = ["# columns: replicate\tm\terr_marginal\terr_simultaneous\tdisagreement"]
    for r in range(stacked.shape[0]):
        for j, m in enumerate(spec.training_sizes):
            err_m, err_s, dis = stacked[r, j]
            raw.append(f"{r}\t{m}\t{err_m:.17g}\t{err_s:.17g}\t{dis:.17g}")
    _write_v1(out / _REPLICATES_FILE, "experiment-replicates", metadata, raw)

    curves = {
        "err_marginal": [row.err_marginal for row in rows],
        "err_simultaneous": [row.err_simultaneous for row in rows],
        "disagreement": [row.disagreement for row in rows],
    }
    for name, series in curves.items():
        lines = ["# columns: m\tvalue"]
        lines.extend(
            f"{m}\t{value:.17g}" for m, value in zip(spec.training_sizes, series)
        )
        _write_v1(out / _SERIES_FILES[name], f"series {name}", metadata, lines)
