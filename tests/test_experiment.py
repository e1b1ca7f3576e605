"""Tests for the convergence-study harness."""

import numpy as np
import pytest

from pdinfer import ExperimentSpec, __version__, run_convergence_experiment


def small_spec(tmp_path, **overrides):
    kwargs = dict(
        psis=(1.0, 20.0),
        training_sizes=(60, 240),
        test_size=120,
        replicates=3,
        master_seed=77,
        output_path=tmp_path / "out",
        workers=1,
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
        with pytest.raises(ValueError):
            small_spec(tmp_path, workers=0)

    def test_memory_guard(self, tmp_path):
        with pytest.raises(ValueError, match="memory"):
            small_spec(tmp_path, memory_cap_bytes=10)

    def test_memory_guard_counts_replicates(self, tmp_path):
        # the seeds and metric rows of 10^9 replicates alone exceed the
        # default 2 GiB cap; only the spec is built, so nothing is allocated
        with pytest.raises(ValueError, match="memory"):
            small_spec(tmp_path, replicates=10**9, memory_cap_bytes=2 * 2**30)


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
            "# per_class_training_size = m // k; per_class_test_size = test_size // k\n"
        )
        expected = {
            "summary.tsv": "# pd-infer v1 experiment-summary\n" + shared
            + "# columns: m\terr_marginal_mean\terr_marginal_sd\terr_simultaneous_mean"
            "\terr_simultaneous_sd\tdisagreement_mean\tdisagreement_sd\n",
            "replicates.tsv": "# pd-infer v1 experiment-replicates\n" + shared
            + "# columns: replicate\tm\terr_marginal\terr_simultaneous\tdisagreement\n",
            "series_disagreement.tsv": "# pd-infer v1 series disagreement\n" + shared
            + "# columns: m\tvalue\n",
        }
        for name, header in expected.items():
            text = (spec.output_path / name).read_bytes().decode("utf-8")
            assert text.startswith(header)
            assert "#" not in text[len(header):]

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

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_convergence_experiment(
            small_spec(tmp_path, output_path=tmp_path / "serial", workers=1)
        )
        parallel = run_convergence_experiment(
            small_spec(tmp_path, output_path=tmp_path / "parallel", workers=2)
        )
        assert serial == parallel

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
