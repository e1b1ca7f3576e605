"""Tests for the convergence-study harness."""

import numpy as np
import pytest

from pdinfer import ExperimentSpec, run_convergence_experiment


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

        header = (out / "summary.tsv").read_text()
        assert "# master_seed = 77" in header
        assert "# tool_version = " in header
        assert "# seed_derivation" in header

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
