"""End-to-end tests of the command-line interface."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdinfer import read_dataset, sampling
from pdinfer.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    pairs = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            pairs[key.strip()] = value.strip()
    return pairs


@pytest.fixture
def aab_file(tmp_path, capsys):
    # dataset {a, a, b}: hand-solvable MLE
    path = tmp_path / "aab.tsv"
    path.write_text("# pd-infer v1 unlabeled n=3\n0\n0\n1\n")
    return path


class TestSample:
    def test_single_record(self, tmp_path, capsys):
        out = tmp_path / "one.tsv"
        code, stdout, _ = run(
            capsys, "sample", "--psi", "1", "--n", "1", "--seed", "7", "--out", str(out)
        )
        assert code == EXIT_OK
        dataset = read_dataset(out)
        assert dataset.values.tolist() == [0]
        assert "k_obs = 1" in stdout

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            code, _, _ = run(
                capsys, "sample", "--psi", "2.5", "--n", "500", "--seed", "9",
                "--out", str(out),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_distinct_count_reported(self, tmp_path, capsys):
        out = tmp_path / "big.tsv"
        code, stdout, _ = run(
            capsys, "sample", "--psi", "10", "--n", "10000", "--seed", "3",
            "--out", str(out),
        )
        assert code == EXIT_OK
        k_obs = int(parse_kv(stdout)["k_obs"])
        assert abs(k_obs - 69.6) <= 0.2 * 69.6

    def test_labeled_dataset(self, tmp_path, capsys):
        out = tmp_path / "train.tsv"
        code, stdout, _ = run(
            capsys, "sample", "--psi", "1,10", "--n", "50", "--seed", "4",
            "--out", str(out),
        )
        assert code == EXIT_OK
        dataset = read_dataset(out)
        assert dataset.kind == "labeled"
        assert dataset.n == 100

    def test_invalid_psi_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "sample", "--psi", "-1", "--n", "5", "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_USAGE
        assert "usage error" in stderr

    @pytest.mark.parametrize("psi", ["nan", "1,nan", "inf"])
    def test_non_finite_psi_usage_error(self, tmp_path, capsys, psi):
        code, _, stderr = run(
            capsys, "sample", "--psi", psi, "--n", "5", "--out", str(tmp_path / "x"),
        )
        assert code == EXIT_USAGE
        assert "usage error" in stderr

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "sample", "--psi", "1", "--n", "5",
            "--out", str(tmp_path / "missing" / "x.tsv"),
        )
        assert code == EXIT_DATA
        assert "error" in stderr


class TestMle:
    def test_hand_value(self, aab_file, capsys):
        code, stdout, _ = run(capsys, "mle", "--input", str(aab_file))
        assert code == EXIT_OK
        report = parse_kv(stdout)
        assert report["status"] == "converged"
        assert math.isclose(float(report["psi_hat"]), math.sqrt(2), abs_tol=1e-6)
        assert report["k_obs"] == "2" and report["n"] == "3"

    def test_single_species_degenerate_warning_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "mono.tsv"
        path.write_text("# pd-infer v1 unlabeled n=3\n5\n5\n5\n")
        code, stdout, stderr = run(capsys, "mle", "--input", str(path))
        assert code == EXIT_OK
        assert parse_kv(stdout)["status"] == "degenerate_low"
        assert "degenerate" in stderr

    def test_degenerate_warning_format(self, tmp_path, capsys):
        path = tmp_path / "mono.tsv"
        path.write_text("# pd-infer v1 unlabeled n=3\n5\n5\n5\n")
        code, _, stderr = run(capsys, "mle", "--input", str(path))
        assert code == EXIT_OK
        assert stderr == (
            f"pd-infer: warning: {path}: dispersal fit is degenerate_low; "
            "psi_hat is the bracket boundary 1e-10\n"
        )

    def test_per_class_degenerate_warning(self, tmp_path, capsys):
        path = tmp_path / "train.tsv"
        path.write_text("# pd-infer v1 labeled n=5\n0\t5\n0\t5\n1\t1\n1\t2\n1\t1\n")
        code, stdout, stderr = run(capsys, "mle", "--input", str(path), "--per-class")
        assert code == EXIT_OK
        assert stdout.count("status = ") == 2
        assert stderr == (
            "pd-infer: warning: class 0: dispersal fit is degenerate_low; "
            "psi_hat is the bracket boundary 1e-10\n"
        )

    def test_all_distinct_degenerate_high(self, tmp_path, capsys):
        path = tmp_path / "distinct.tsv"
        path.write_text("# pd-infer v1 unlabeled n=3\n0\n1\n2\n")
        code, stdout, _ = run(capsys, "mle", "--input", str(path))
        assert code == EXIT_OK
        assert parse_kv(stdout)["status"] == "degenerate_high"

    def test_per_class(self, tmp_path, capsys):
        path = tmp_path / "train.tsv"
        run(capsys, "sample", "--psi", "1,20", "--n", "200", "--seed", "5",
            "--out", str(path))
        code, stdout, _ = run(capsys, "mle", "--input", str(path), "--per-class")
        assert code == EXIT_OK
        assert "class = 0" in stdout and "class = 1" in stdout

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("# pd-infer v1 unlabeled n=2\n0\nnope\n")
        code, _, stderr = run(capsys, "mle", "--input", str(path))
        assert code == EXIT_DATA
        assert "line 3" in stderr

    @pytest.mark.parametrize("record", ["9223372036854775808", "0\t9223372036854775808",
                                        "9223372036854775808\t0"])
    def test_id_beyond_int64_data_error(self, tmp_path, capsys, record):
        kind = "labeled" if "\t" in record else "unlabeled"
        path = tmp_path / "huge.tsv"
        path.write_text(f"# pd-infer v1 {kind} n=2\n{record}\n{record}\n")
        code, _, stderr = run(capsys, "mle", "--input", str(path))
        assert code == EXIT_DATA
        assert "line 2" in stderr

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "mle", "--input", str(tmp_path / "none.tsv"))
        assert code == EXIT_DATA


class TestTest:
    def test_lm_at_fitted_psi_p_near_one(self, aab_file, capsys):
        fitted = math.sqrt(2)
        code, stdout, _ = run(
            capsys, "test", "--mode", "lm", "--psi0", f"{fitted}",
            "--input", str(aab_file),
        )
        assert code == EXIT_OK
        report = parse_kv(stdout)
        assert float(report["p_value"]) > 0.999
        assert report["df"] == "1"

    def test_lm_input_path_with_space_not_split(self, aab_file, tmp_path, capsys):
        spaced = tmp_path / "dir with space" / "a.tsv"
        spaced.parent.mkdir()
        spaced.write_bytes(aab_file.read_bytes())
        code, stdout, _ = run(
            capsys, "test", "--mode", "lm", "--psi0", "2", "--input", str(spaced)
        )
        assert code == EXIT_OK
        assert parse_kv(stdout)["method"]

    def test_lm_requires_psi0(self, aab_file, capsys):
        code, _, stderr = run(capsys, "test", "--mode", "lm", "--input", str(aab_file))
        assert code == EXIT_USAGE
        assert "psi0" in stderr

    def test_lm_non_finite_psi0_usage_error(self, aab_file, capsys):
        code, _, stderr = run(
            capsys, "test", "--mode", "lm", "--psi0", "nan", "--input", str(aab_file)
        )
        assert code == EXIT_USAGE
        assert "psi0" in stderr

    def test_lrt_against_copy_is_null(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        run(capsys, "sample", "--psi", "4", "--n", "300", "--seed", "6",
            "--out", str(a))
        b = tmp_path / "b.tsv"
        b.write_bytes(a.read_bytes())
        code, stdout, _ = run(
            capsys, "test", "--mode", "lrt", "--input", str(a), str(b)
        )
        assert code == EXIT_OK
        report = parse_kv(stdout)
        assert float(report["statistic"]) == 0.0
        assert float(report["p_value"]) == 1.0

    def test_lrt_detects_separated_parameters(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run(capsys, "sample", "--psi", "3", "--n", "2000", "--seed", "8", "--out", str(a))
        run(capsys, "sample", "--psi", "30", "--n", "2000", "--seed", "9", "--out", str(b))
        code, stdout, _ = run(capsys, "test", "--mode", "lrt", "--input", str(a), str(b))
        assert code == EXIT_OK
        assert float(parse_kv(stdout)["p_value"]) < 0.01

    def test_lrt_degenerate_input_numeric_error(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        run(capsys, "sample", "--psi", "4", "--n", "300", "--seed", "6", "--out", str(a))
        mono = tmp_path / "mono.tsv"
        mono.write_text("# pd-infer v1 unlabeled n=2\n0\n0\n")
        code, _, stderr = run(capsys, "test", "--mode", "lrt", "--input", str(a), str(mono))
        assert code == EXIT_NUMERIC
        assert "degenerate" in stderr

    def test_lrt_needs_two_files(self, aab_file, capsys):
        code, _, _ = run(capsys, "test", "--mode", "lrt", "--input", str(aab_file))
        assert code == EXIT_USAGE


class TestClassify:
    @pytest.fixture
    def files(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        run(capsys, "sample", "--psi", "1,10,50", "--n", "400", "--seed", "11",
            "--out", str(train))
        test = tmp_path / "test.tsv"
        run(capsys, "sample", "--psi", "1,10,50", "--n", "100", "--seed", "12",
            "--out", str(test))
        return train, test

    def test_modes_agree_on_single_item(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        run(capsys, "sample", "--psi", "2,20", "--n", "200", "--seed", "13",
            "--out", str(train))
        single = tmp_path / "single.tsv"
        single.write_text("# pd-infer v1 unlabeled n=1\n4\n")
        labels = {}
        for mode in ("marginal", "simultaneous"):
            out = tmp_path / f"{mode}.tsv"
            code, _, _ = run(
                capsys, "classify", "--mode", mode, "--train", str(train),
                "--test", str(single), "--out", str(out),
            )
            assert code == EXIT_OK
            records = [
                line for line in out.read_text().splitlines()
                if not line.startswith("#")
            ]
            labels[mode] = records[0].split("\t")[1]
        assert labels["marginal"] == labels["simultaneous"]

    def test_degenerate_class_warning_format(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text("# pd-infer v1 labeled n=5\n0\t5\n0\t5\n1\t1\n1\t2\n1\t3\n")
        test = tmp_path / "test.tsv"
        test.write_text("# pd-infer v1 unlabeled n=2\n5\n2\n")
        code, stdout, stderr = run(
            capsys, "classify", "--mode", "simultaneous", "--train", str(train),
            "--test", str(test), "--out", str(tmp_path / "out.tsv"),
        )
        assert code == EXIT_OK
        assert "converged = true" in stdout
        assert stderr == (
            "pd-infer: warning: class 0: dispersal fit is degenerate_low; "
            "psi_hat is the bracket boundary 1e-10\n"
            "pd-infer: warning: class 1: dispersal fit is degenerate_high; "
            "psi_hat is the bracket boundary 1e+10\n"
        )

    def test_score_against_truth(self, files, tmp_path, capsys):
        train, test = files
        out = tmp_path / "result.tsv"
        code, stdout, _ = run(
            capsys, "classify", "--mode", "marginal", "--train", str(train),
            "--test", str(test), "--out", str(out), "--score-against-truth",
        )
        assert code == EXIT_OK
        error_rate = float(parse_kv(stdout)["error_rate"])
        assert 0.0 <= error_rate <= 1.0
        text = out.read_text()
        assert "# total_log_score = " in text
        assert "# converged = true" in text

    def test_unlabeled_training_rejected(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        run(capsys, "sample", "--psi", "3", "--n", "100", "--seed", "14",
            "--out", str(train))
        test = tmp_path / "test.tsv"
        test.write_text("# pd-infer v1 unlabeled n=1\n0\n")
        code, _, stderr = run(
            capsys, "classify", "--mode", "marginal", "--train", str(train),
            "--test", str(test), "--out", str(tmp_path / "r.tsv"),
        )
        assert code == EXIT_DATA
        assert "labeled" in stderr

    @pytest.mark.parametrize(
        "flag", [["--shuffle-sweeps"], ["--order-seed", "3"], ["--restarts", "4"]]
    )
    def test_removed_search_flags_usage_error(self, files, tmp_path, capsys, flag):
        train, test = files
        code, _, stderr = run(
            capsys, "classify", "--mode", "simultaneous", "--train", str(train),
            "--test", str(test), "--out", str(tmp_path / "r.tsv"), *flag,
        )
        assert code == EXIT_USAGE
        assert "usage error" in stderr

    def test_bad_mode_usage_error(self, files, tmp_path, capsys):
        train, test = files
        code, _, _ = run(
            capsys, "classify", "--mode", "extreme", "--train", str(train),
            "--test", str(test), "--out", str(tmp_path / "r.tsv"),
        )
        assert code == EXIT_USAGE


class TestManifest:
    def test_manifest_supplies_flags_and_flags_win(self, tmp_path, capsys):
        manifest = tmp_path / "run.manifest"
        manifest.write_text(
            "psi = 2.5\nn = 40\nseed = 33\nout = {}\n".format(tmp_path / "m.tsv")
        )
        code, _, _ = run(capsys, "sample", "--manifest", str(manifest))
        assert code == EXIT_OK
        assert read_dataset(tmp_path / "m.tsv").n == 40

        # explicit flag beats the manifest value
        code, _, _ = run(
            capsys, "sample", "--manifest", str(manifest), "--n", "70",
            "--out", str(tmp_path / "m2.tsv"),
        )
        assert code == EXIT_OK
        assert read_dataset(tmp_path / "m2.tsv").n == 70

    def test_manifest_equals_form(self, tmp_path, capsys):
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"psi = 2.5\nn = 40\nout = {tmp_path / 'm.tsv'}\n")
        code, _, _ = run(capsys, "sample", f"--manifest={manifest}")
        assert code == EXIT_OK
        assert read_dataset(tmp_path / "m.tsv").n == 40

    def test_flag_before_manifest_wins(self, tmp_path, capsys):
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"psi = 2.5\nn = 40\nout = {tmp_path / 'm.tsv'}\n")
        code, _, _ = run(capsys, "sample", "--n", "70", "--manifest", str(manifest))
        assert code == EXIT_OK
        assert read_dataset(tmp_path / "m.tsv").n == 70

    def test_boolean_keys(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        run(capsys, "sample", "--psi", "1,20", "--n", "200", "--seed", "5",
            "--out", str(train))
        manifest = tmp_path / "mle.manifest"
        manifest.write_text(f"input = {train}\nper_class = true\n")
        code, stdout, _ = run(capsys, "mle", "--manifest", str(manifest))
        assert code == EXIT_OK
        assert "class = 1" in stdout

        manifest = tmp_path / "classify.manifest"
        manifest.write_text(
            f"mode = marginal\ntrain = {train}\ntest = {train}\n"
            f"out = {tmp_path / 'r.tsv'}\nscore_against_truth = yes\n"
        )
        code, stdout, _ = run(capsys, "classify", "--manifest", str(manifest))
        assert code == EXIT_OK
        assert "error_rate" in parse_kv(stdout)

    def test_input_list_drives_lrt(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run(capsys, "sample", "--psi", "4", "--n", "300", "--seed", "6", "--out", str(a))
        b.write_bytes(a.read_bytes())
        manifest = tmp_path / "lrt.manifest"
        manifest.write_text(f"mode = lrt\ninput = {a} {b}\n")
        code, stdout, _ = run(capsys, "test", "--manifest", str(manifest))
        assert code == EXIT_OK
        assert "psi_hat_1" in parse_kv(stdout)

    def test_quoted_path_with_space(self, tmp_path, capsys):
        out = tmp_path / "dir with space" / "m.tsv"
        out.parent.mkdir()
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"# sample settings\n\npsi = 2.5\nn = 40\nout = \"{out}\"\n")
        code, _, _ = run(capsys, "sample", "--manifest", str(manifest))
        assert code == EXIT_OK
        assert read_dataset(out).n == 40

    def test_unknown_key_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"psi = 2.5\nn = 40\nout = {tmp_path / 'm.tsv'}\nbogus_key = 1\n")
        code, _, stderr = run(capsys, "sample", "--manifest", str(manifest))
        assert code == EXIT_USAGE
        assert "bogus-key" in stderr
        assert not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("flag", [["--manifest"], ["--manif", "run.manifest"]])
    def test_manifest_flag_misuse_usage_error(self, tmp_path, capsys, flag):
        (tmp_path / "run.manifest").write_text("psis = 1,20\n")
        code, _, stderr = run(
            capsys, "experiment", "--out", str(tmp_path / "exp"), *flag
        )
        assert code == EXIT_USAGE
        assert "manifest" in stderr


class TestExperimentCommand:
    def test_runs_and_writes(self, tmp_path, capsys):
        out_dir = tmp_path / "exp"
        code, stdout, _ = run(
            capsys, "experiment", "--psis", "1,20", "--training-sizes", "60,240",
            "--test-size", "120", "--replicates", "2", "--seed", "21",
            "--out", str(out_dir), "--workers", "1",
        )
        assert code == EXIT_OK
        assert (out_dir / "summary.tsv").exists()
        assert "err_marginal" in stdout

    def test_memory_cap_refusal(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "experiment", "--psis", "1,20", "--training-sizes", "60,240",
            "--test-size", "120", "--replicates", "2", "--seed", "21",
            "--out", str(tmp_path / "exp"), "--memory-cap-gb", "0.0000001",
        )
        assert code == EXIT_USAGE
        assert "memory" in stderr

    def test_replicates_beyond_memory_cap_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "experiment", "--replicates", "1000000000", "--out", str(tmp_path / "exp"),
        )
        assert code == EXIT_USAGE
        assert "memory" in stderr
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_usage_error(self, tmp_path, capsys, workers):
        code, _, stderr = run(
            capsys, "experiment", "--psis", "1,20", "--training-sizes", "60,240",
            "--test-size", "120", "--replicates", "2", "--seed", "21",
            "--out", str(tmp_path / "exp"), "--workers", workers,
        )
        assert code == EXIT_USAGE
        assert "worker" in stderr

    @pytest.mark.parametrize("cap", ["inf", "nan"])
    def test_non_finite_memory_cap_usage_error(self, tmp_path, capsys, cap):
        code, _, stderr = run(
            capsys, "experiment", "--psis", "1,20", "--training-sizes", "60,240",
            "--test-size", "120", "--replicates", "2", "--seed", "21",
            "--out", str(tmp_path / "exp"), "--memory-cap-gb", cap,
        )
        assert code == EXIT_USAGE
        assert "memory-cap-gb" in stderr


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--psi", "1", "--n", "5", "--seed", "-3"],
            ["sample", "--psi", "1", "--n", "5", "--seed", "18446744073709551616"],
            ["experiment", "--seed", "-1"],
            ["experiment", "--seed", "18446744073709551616"],
        ],
    )
    def test_seed_out_of_range_usage_error(self, tmp_path, capsys, argv):
        code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert "seed" in stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["mle", "--input", "{unlabeled}"],
            ["mle", "--input", "{labeled}", "--per-class"],
            ["test", "--mode", "lm", "--psi0", "1", "--input", "{unlabeled}"],
            ["test", "--mode", "lrt", "--input", "{aab}", "{unlabeled}"],
            ["classify", "--mode", "marginal", "--train", "{train}",
             "--test", "{unlabeled}", "--out", "{out}"],
        ],
    )
    def test_empty_dataset_data_error(self, aab_file, tmp_path, capsys, argv):
        paths = {
            "unlabeled": tmp_path / "empty.tsv",
            "labeled": tmp_path / "empty_labeled.tsv",
            "aab": aab_file,
            "train": tmp_path / "train.tsv",
            "out": tmp_path / "r.tsv",
        }
        paths["unlabeled"].write_text("# pd-infer v1 unlabeled n=0\n")
        paths["labeled"].write_text("# pd-infer v1 labeled n=0\n")
        paths["train"].write_text(
            "# pd-infer v1 labeled n=6\n0\t0\n0\t0\n0\t1\n1\t2\n1\t2\n1\t3\n"
        )
        code, _, stderr = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == EXIT_DATA
        assert "empty" in stderr

    def test_non_utf8_dataset_data_error(self, tmp_path, capsys):
        path = tmp_path / "binary.tsv"
        path.write_bytes(b"# pd-infer v1 unlabeled n=1\n\xff\n")
        code, _, stderr = run(capsys, "mle", "--input", str(path))
        assert code == EXIT_DATA
        assert str(path) in stderr and "UTF-8" in stderr

    def test_lrt_data_error_names_file(self, aab_file, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("# pd-infer v1 unlabeled n=2\n0\nnope\n")
        code, _, stderr = run(capsys, "test", "--mode", "lrt", "--input", str(aab_file), str(bad))
        assert code == EXIT_DATA
        assert f"{bad}: line 3" in stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["mle", "--input", "{gap}", "--per-class"],
            ["classify", "--mode", "marginal", "--train", "{gap}", "--test", "{gap}",
             "--out", "{out}"],
        ],
    )
    def test_non_contiguous_classes_data_error(self, tmp_path, capsys, argv):
        paths = {"gap": tmp_path / "gap.tsv", "out": tmp_path / "r.tsv"}
        paths["gap"].write_text("# pd-infer v1 labeled n=4\n0\t0\n0\t1\n2\t0\n2\t2\n")
        code, _, stderr = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == EXIT_DATA
        assert f"{paths['gap']}: class ids must be contiguous" in stderr

    def test_out_of_memory_numeric_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(psi, n, rng):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(sampling, "_urn_values", exhausted)
        code, _, stderr = run(capsys, "sample", "--psi", "1", "--n", "5",
                              "--out", str(tmp_path / "x.tsv"))
        assert code == EXIT_NUMERIC
        assert stderr == "pd-infer: out of memory\n"

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        psi=st.one_of(st.text(max_size=12),
                      st.lists(st.floats().map(str), min_size=1, max_size=4).map(",".join)),
        seed=st.one_of(st.text(max_size=24), st.integers().map(str)),
    )
    def test_sample_flags_exit_code_contract(self, tmp_path, psi, seed):
        argv = ["sample", "--psi", psi, "--n", "5", "--seed", seed,
                "--out", str(tmp_path / "fuzz.tsv")]
        assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(
        st.one_of(st.integers().map(str),
                  st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24)),
        max_size=8,
    ))
    def test_mle_records_exit_code_contract(self, tmp_path, records):
        path = tmp_path / "fuzz.tsv"
        header = f"# pd-infer v1 unlabeled n={len(records)}\n"
        path.write_text(header + "".join(f"{record}\n" for record in records), encoding="utf-8")
        assert main(["mle", "--input", str(path)]) in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC)
