"""Tests for the convergence-study harness."""

import dataclasses
import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdinfer
import pdinfer.classify as classify_module
from pdinfer import (ExperimentRow, ExperimentSpec, SpeciesCounts, __version__, fit_psi,
                     run_convergence_experiment)
from pdinfer.experiment import _METRICS

from conftest import fill_disk_after, traced_peak
from oracles import first_appearance_sequences, greedy_joint_labeling, urn_probability


def small_spec(tmp_path, **overrides):
    kwargs = dict(
        psis=(1.0, 20.0),
        training_sizes=(60, 240),
        test_size=120,
        replicates=3,
        master_seed=77,
        output_path=tmp_path / "out",
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestExperimentSpec:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            small_spec(tmp_path, psis=(2.0,))
        with pytest.raises(ValueError):
            small_spec(tmp_path, training_sizes=(100, 100))
        with pytest.raises(ValueError):
            small_spec(tmp_path, training_sizes=(1, 100))
        with pytest.raises(ValueError):
            small_spec(tmp_path, replicates=0)
        with pytest.raises(ValueError):
            small_spec(tmp_path, test_size=1)

    def test_memory_guard(self, tmp_path):
        with pytest.raises(ValueError, match="memory"):
            small_spec(tmp_path, memory_cap_bytes=10)

    def test_memory_guard_counts_replicates(self, tmp_path):
        # the seeds and metric rows of 10^9 replicates alone exceed the
        # default 2 GiB cap; only the spec is built, so nothing is allocated
        with pytest.raises(ValueError, match="memory"):
            small_spec(tmp_path, replicates=10**9, memory_cap_bytes=2 * 2**30)


@pytest.mark.parametrize(
    "psis, per_class_training, per_class_test",
    [((1.0, 1.0), (100,), 1000), ((1.0, 10.0, 50.0), (100,), 1000), ((1e6,) * 8, (100,), 1000),
     ((1e6, 1e6), (1000, 100_000), 2)],
    ids=["k2-psi1", "k3-psi1-10-50", "k8-all-distinct", "k2-training-all-distinct"],
)
def test_memory_estimate_bounds_traced_peak(tmp_path, psis, per_class_training, per_class_test):
    # one replicate: in the first three the test set dominates, in the last the training
    # tables and the growth step's new species do; at psi = 1e6 every value is distinct
    k = len(psis)
    spec = small_spec(tmp_path, psis=psis, training_sizes=tuple(k * m for m in per_class_training),
                      test_size=k * per_class_test, replicates=1)
    # a first run pays the one-time imports, which are no working memory of a study
    run_convergence_experiment(dataclasses.replace(spec, output_path=tmp_path / "warm"))
    peak = traced_peak(lambda: run_convergence_experiment(spec))
    assert peak <= spec.estimated_memory_bytes()


def _top_level_modules_after_import(*roots: str) -> str:
    """The sorted list of ``roots`` that a fresh ``import pdinfer, pdinfer.cli`` loads, as printed.

    A root counts as loaded when it or any of its submodules is.
    """
    probe = (
        "import sys, pdinfer, pdinfer.cli; "
        f"print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(roots)!r}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pdinfer.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_import_loads_no_process_machinery():
    # the study runs in one process
    assert _top_level_modules_after_import("multiprocessing", "concurrent") == "[]"


def test_import_loads_no_scipy():
    # the chi-square tail is closed-form, so scipy is a test dependency only
    assert _top_level_modules_after_import("scipy") == "[]"


def _body(path: Path) -> list[list[str]]:
    """A study file's column names, then its records, each split at tabs."""
    lines = path.read_text(encoding="utf-8").splitlines()
    columns = next(line for line in lines if line.startswith("# columns: "))
    records = [line.split("\t") for line in lines if not line.startswith("#")]
    return [columns.removeprefix("# columns: ").split("\t"), *records]


def test_row_fields_follow_the_metric_list():
    # rows are built positionally: m, then the means, then the sds, in _METRICS order
    fields = [field.name for field in dataclasses.fields(ExperimentRow)]
    assert fields == ["m", *_METRICS, *(f"sd_{name}" for name in _METRICS)]


class TestRunConvergenceExperiment:
    def test_rows_and_files(self, tmp_path):
        spec = small_spec(tmp_path)
        rows = run_convergence_experiment(spec)
        assert [row.m for row in rows] == [60, 240]
        for row in rows:
            for rate in (row.err_marginal, row.err_simultaneous, row.disagreement):
                assert 0.0 <= rate <= 1.0
            assert row.disagreement <= row.err_marginal + row.err_simultaneous

        out = spec.output_path
        for name in (
            "summary.tsv",
            "replicates.tsv",
            "series_err_marginal.tsv",
            "series_err_simultaneous.tsv",
            "series_disagreement.tsv",
        ):
            assert (out / name).exists()

    def test_headers_byte_for_byte(self, tmp_path):
        spec = small_spec(tmp_path)
        run_convergence_experiment(spec)
        shared = (
            f"# tool_version = {__version__}\n"
            "# psis = 1,20\n"
            "# training_sizes = 60,240\n"
            "# test_size = 120\n"
            "# replicates = 3\n"
            "# master_seed = 77\n"
            "# seed_derivation = derive_seeds(master_seed, replicates*2*k); replicate r, "
            "class c: training pool seed [r*2k + c], test seed [r*2k + k + c]\n"
            "# per_class_training_size = m // k\n"
            "# per_class_test_size = test_size // k\n"
        )
        expected = {
            "summary.tsv": "# pd-infer v1 experiment-summary\n" + shared
            + "# columns: m\terr_marginal_mean\terr_marginal_sd\terr_simultaneous_mean"
            "\terr_simultaneous_sd\tdisagreement_mean\tdisagreement_sd\n",
            "replicates.tsv": "# pd-infer v1 experiment-replicates\n" + shared
            + "# columns: replicate\tm\terr_marginal\terr_simultaneous\tdisagreement\n",
        }
        for metric in ("err_marginal", "err_simultaneous", "disagreement"):
            expected[f"series_{metric}.tsv"] = (
                f"# pd-infer v1 series {metric}\n" + shared + "# columns: m\tvalue\n"
            )
        for name, header in expected.items():
            text = (spec.output_path / name).read_bytes().decode("utf-8")
            assert text.startswith(header)
            assert "#" not in text[len(header):]

    def test_series_are_the_summary_means(self, tmp_path):
        spec = small_spec(tmp_path)
        run_convergence_experiment(spec)
        summary = _body(spec.output_path / "summary.tsv")
        columns = summary[0][1:]
        for name in _METRICS:
            series = _body(spec.output_path / f"series_{name}.tsv")
            assert series[0] == ["m", "value"]
            assert [m for m, _ in series[1:]] == [row[0] for row in summary[1:]]
            mean = columns.index(f"{name}_mean") + 1
            # the series keeps 17 significant digits, the summary 6 decimals
            assert [f"{float(value):.6f}" for _, value in series[1:]] == [
                row[mean] for row in summary[1:]
            ]

    def test_deterministic_outputs(self, tmp_path):
        first = run_convergence_experiment(
            small_spec(tmp_path, output_path=tmp_path / "a")
        )
        second = run_convergence_experiment(
            small_spec(tmp_path, output_path=tmp_path / "b")
        )
        assert first == second
        for name in ("summary.tsv", "replicates.tsv", "series_disagreement.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_one_replicate_files_byte_for_byte(self, tmp_path):
        # sds of one replicate are exactly 0.0, through the same std call as three replicates';
        # the digests pin every byte, the grown training tables' draws included
        spec = small_spec(tmp_path, replicates=1)
        rows = run_convergence_experiment(spec)
        assert all(row.sd_err_marginal == row.sd_disagreement == 0.0 for row in rows)
        digests = {
            "replicates.tsv": "5c0c1022494d817bb4c878c8e09ea24490de312b41264df4f32ab1f0c499199e",
            "series_disagreement.tsv":
                "0e8525d3b1ae8e80086197ab31b88ca35043be792e9ccb45fd86a30c055c587f",
            "series_err_marginal.tsv":
                "aa99b323f59e5c16cc91d3a6601e608bf60d00abd36f90f8f285921982e4f312",
            "series_err_simultaneous.tsv":
                "4c6312ea4ae6870080b0ce941ac1f909717df2d87622c722b1a45a4489a0e332",
            "summary.tsv": "8e4742eeb7236f14882ed911e1b645a30198e18021b7525fffe752785d90cd99",
        }
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in spec.output_path.iterdir()
        } == digests

    def test_three_replicate_files_byte_for_byte(self, tmp_path):
        # every byte of the means, the replicate sds and the raw rows, written by one
        # column writer from the grown training tables' draws
        spec = small_spec(tmp_path)
        run_convergence_experiment(spec)
        digests = {
            "replicates.tsv": "be72bd41f6c8c1813f70901dcdc37967ae2f61a732ad93a233720f4fb3e63bb5",
            "series_disagreement.tsv":
                "62e3804079a07a41f1996a39402394d32bd55976b3a3ab309a3bac08f3a05f3c",
            "series_err_marginal.tsv":
                "4c5547f9da69b52119fd15bc0741f8f4ef7089e5abe62f30ef343be282a09918",
            "series_err_simultaneous.tsv":
                "b1ce0b6a5ab33a916616fa196dd6572d44a2852ba1b425df1318474779d932a0",
            "summary.tsv": "edff1571c941c6c137a9fc9a06c0c1704aa43007bb4f196965bd0caf83d23ea8",
        }
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in spec.output_path.iterdir()
        } == digests

    def test_failed_write_keeps_the_last_outputs(self, tmp_path, monkeypatch):
        # each table is written whole or not at all: a disk that fills after
        # the first row stops the study at its first table and leaves no temporary
        spec = small_spec(tmp_path)
        run_convergence_experiment(spec)
        before = {path.name: path.read_bytes() for path in spec.output_path.iterdir()}
        monkeypatch.setattr(pdinfer.dataio, "_WRITE_BATCH", 1)
        fill_disk_after(monkeypatch, pdinfer.dataio, writes=2)
        with pytest.raises(OSError, match="No space left on device"):
            run_convergence_experiment(dataclasses.replace(spec, master_seed=78))
        assert {path.name: path.read_bytes() for path in spec.output_path.iterdir()} == before

    def test_summary_reproducible_from_raw_rows(self, tmp_path):
        spec = small_spec(tmp_path)
        rows = run_convergence_experiment(spec)
        raw = [
            line.split("\t")
            for line in (spec.output_path / "replicates.tsv").read_text().splitlines()
            if not line.startswith("#")
        ]
        for j, m in enumerate(spec.training_sizes):
            errs = [float(fields[2]) for fields in raw if int(fields[1]) == m]
            np.testing.assert_allclose(np.mean(errs), rows[j].err_marginal, atol=1e-12)

    def test_one_marginal_classification_per_training_size(self, monkeypatch, tmp_path):
        # the marginal labeling comes back as the simultaneous result's start,
        # so the study pays for it once; count the calls under every name bound to it
        original = classify_module.classify_marginal
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            bound = getattr(module, "classify_marginal", None)
            if name.startswith("pdinfer") and bound is original:
                monkeypatch.setattr(module, "classify_marginal", counted)
        spec = small_spec(tmp_path)
        run_convergence_experiment(spec)
        assert len(calls) == spec.replicates * len(spec.training_sizes)


@functools.cache
def _exact_study_moments(psis, pool_length=3):
    """The study's metrics averaged over every outcome of its draws, 3 test items per class.

    Each class trains on ``pool_length`` items. Enumerates each class's
    training pool and test set (5^4 = 625 cases at k = 2 with pools of 3),
    weighted by the urn law. ``fit_psi`` is the one library function used:
    the labelings come from ``tests/oracles.py``, the marginal one being the
    greedy search's start. Returns each metric's mean and variance.
    """
    k = len(psis)
    truth = np.repeat(np.arange(k), 3)
    moments = np.zeros((2, len(_METRICS)))
    for pools in itertools.product(first_appearance_sequences(pool_length), repeat=k):
        weight = math.prod(urn_probability(pool, psi) for pool, psi in zip(pools, psis))
        train_counts = [dict(zip(*np.unique(pool, return_counts=True))) for pool in pools]
        fitted = [fit_psi(SpeciesCounts.from_values(pool)).psi_hat for pool in pools]
        oracle = (train_counts, [len(pool) for pool in pools], fitted)
        for tests in itertools.product(first_appearance_sequences(3), repeat=k):
            p = weight * math.prod(urn_probability(t, psi) for t, psi in zip(tests, psis))
            values = [v for t in tests for v in t]
            marginal = np.array(greedy_joint_labeling(*oracle, values, max_sweeps=0)[0])
            simultaneous = np.array(greedy_joint_labeling(*oracle, values)[0])
            metrics = np.array([(marginal != truth).mean(), (simultaneous != truth).mean(),
                                (marginal != simultaneous).mean()])
            moments += p * np.array([metrics, metrics**2])
    mean, second = moments
    return mean, second - mean**2


def test_study_matches_its_exact_expectation(tmp_path):
    """The whole study (sampling, seeds, training, classification, metrics) against the model.

    Replicate count, seed and bound were fixed before the first run; a miss is
    a finding about the study, not a reason to pick another seed.
    """
    psis, replicates, bound = (1.0, 5.0), 4000, 4.0
    mean, variance = _exact_study_moments(psis)
    assert mean == pytest.approx([0.47109, 0.47595, 0.00507], abs=5e-6)
    spec = ExperimentSpec(psis=psis, training_sizes=(6,), test_size=6, replicates=replicates,
                          master_seed=2028, output_path=tmp_path / "out")
    (row,) = run_convergence_experiment(spec)
    observed = np.array([getattr(row, name) for name in _METRICS])
    z = (observed - mean) / np.sqrt(variance / replicates)
    print("exact", mean, "observed", observed, "z", z)
    assert np.all(np.abs(z) < bound), z


def test_study_grown_training_size_matches_its_exact_expectation(tmp_path):
    """A two-size study against the model: its m = 6 tables grow from the m = 2 ones by one step.

    Each class trains on 1 item, then on 3, so the second row's tables come
    through one exact urn increment. Replicate count, seed and bound were
    fixed before the first run; a miss is a finding about the increment.
    """
    psis, replicates, bound = (1.0, 5.0), 4000, 4.0
    spec = ExperimentSpec(psis=psis, training_sizes=(2, 6), test_size=6, replicates=replicates,
                          master_seed=2031, output_path=tmp_path / "out")
    rows = run_convergence_experiment(spec)
    for row, pool_length in zip(rows, (1, 3)):
        mean, variance = _exact_study_moments(psis, pool_length)
        observed = np.array([getattr(row, name) for name in _METRICS])
        # at m = 2 both classes train on one item alike, so every outcome's marginal
        # error is exactly 1/2: a metric without variance must land on its mean
        se = np.sqrt(np.maximum(variance, 0.0) / replicates)
        print("m", row.m, "exact", mean, "observed", observed, "se", se)
        assert np.all(np.abs(observed - mean) <= bound * se + 1e-12), (observed, mean, se)
    assert _exact_study_moments(psis, 3)[0] == pytest.approx([0.47109, 0.47595, 0.00507], abs=5e-6)
