"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run

tracer_module, workloads = run.import_package()

import pdinfer  # noqa: E402 - importable once run.import_package set the path
import pdinfer.cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run_script(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["bootstrap", "files", "study"])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _run_script(run.ROOT, "--workload", workload, "--seed", "5",
                       "--seconds", "0.2", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["fail_ratio"] == 0.0
    assert detail["machine"]["nproc"] >= 1


def test_workloads_in_benchmark_json_are_the_implemented_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_injected_bad_output_counts_in_fail_ratio(monkeypatch, capsys):
    real_lm_test = pdinfer.lm_test

    def out_of_range_p_value(rho, psi0):
        return replace(real_lm_test(rho, psi0), p_value=1.5)

    monkeypatch.setattr(pdinfer, "lm_test", out_of_range_p_value)
    assert run.main(["--workload", "bootstrap", "--seed", "5", "--seconds", "0",
                     "--trace", "1", "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["fail_ratio"]["value"] == 1.0


def test_nonzero_exit_code_counts_as_failure(monkeypatch, tmp_path):
    def unreadable(path):
        raise pdinfer.DatasetFormatError("injected")

    monkeypatch.setattr(pdinfer.cli, "read_dataset", unreadable)
    measured = run.measure(lambda: workloads.Files(5, "tiny", tmp_path), 0, import_s=0.0)
    # only the `sample` job, which is also the warm-up job, reads no dataset
    assert (measured.failed, measured.attempted) == (7, 9)


def test_jobs_are_deterministic_per_seed(tmp_path):
    digests = []
    for attempt in range(2):
        workload = workloads.Study(7, "tiny", tmp_path / str(attempt))
        workload.setup()
        digests.append(workload.run(1))
    assert digests[0] == digests[1] and digests[0][0] is True


def test_tracer_wraps_rebound_names_and_restores_them():
    tracer = tracer_module.Tracer()
    originals = (pdinfer.cli.read_dataset, pdinfer.classify.fit_psi,
                 pdinfer.classify.partition_of, pdinfer.SpeciesCounts.from_values)
    tracer.install()
    try:
        assert pdinfer.cli.read_dataset is not originals[0]
        assert pdinfer.classify.partition_of is pdinfer.core.partition_of
        assert pdinfer.classify.partition_of is not originals[2]
        counts = tracer.job(lambda: pdinfer.SpeciesCounts.from_values([1, 1, 2]))
        tracer.job(lambda: pdinfer.fit_psi(pdinfer.partition_of(counts)))
    finally:
        tracer.uninstall()
    assert (pdinfer.cli.read_dataset, pdinfer.classify.fit_psi,
            pdinfer.classify.partition_of, pdinfer.SpeciesCounts.from_values) == originals
    names = [span[0] for span in tracer.spans]
    assert names == ["harness.job", "core.from_values", "harness.job",
                     "core.partition_of", "estimation.fit_psi_pooled"]
    # fit_psi_pooled and partition_of are children of the second job
    assert [span[1] for span in tracer.spans] == [None, 0, None, 2, 2]


def test_tail_has_ten_jobs_beyond_it():
    latency, percentile, beyond = run.tail([float(i) for i in range(40)])
    assert (latency, percentile, beyond) == (29.0, 75.0, 10)
    # with 20 jobs or fewer, ten beyond would put the tail at or below the median
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_job_latency_is_median_of_its_passes_of_one_kind():
    passes = [
        run.Pass(traced=False, latencies=[3.0, 1.0]),
        run.Pass(traced=True, latencies=[0.5, 0.5]),
        run.Pass(traced=False, latencies=[2.0, 4.0]),
        run.Pass(traced=False, latencies=[9.0, 2.0]),
    ]
    assert run.job_latencies(passes, traced=False) == [3.0, 2.0]
    assert run.job_latencies(passes, traced=True) == [0.5, 0.5]


def test_host_timer_scales_wall_time_to_reference_speed(monkeypatch):
    monkeypatch.setattr(run, "calibration_s", lambda: 2 * run.CALIBRATION_S)
    with run.HostTimer() as timer:
        time.sleep(0.01)
    assert timer.wall >= 0.01
    assert timer.scale == 0.5


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_script(tmp_path, "--workload", "bootstrap", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_golden_digests_count_mismatches(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "golden_path", lambda name: tmp_path / f"{name}.json")

    def make():
        return workloads.Study(7, "tiny", tmp_path / "work")

    assert run.write_golden(make(), "study", 7, "tiny") == 0
    golden = run.load_golden("study", 7, "tiny", make().pool)
    assert run.load_golden("study", 8, "tiny", make().pool) is None
    assert run.measure(make, 0, import_s=0.0, golden=golden).golden_mismatch == 0
    golden[3] = "0" * 64
    assert run.measure(make, 0, import_s=0.0, golden=golden).golden_mismatch == 1
