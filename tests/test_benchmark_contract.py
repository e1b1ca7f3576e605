"""The benchmark's hold on the package: its traced names and imports resolve.

``perfbench/tracer.py`` wraps public functions by name and
``perfbench/workloads.py`` imports names such as ``RESIDUAL_TOL``; moving or
renaming one breaks the benchmark. This runs one traced pass of every
workload at its tiny size, with both files imported as they are.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_tiny_pass_is_ok(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, "tiny", tmp_path)
    workload.setup()
    spans = tracer.Tracer()
    spans.install()  # raises if a traced name no longer resolves
    try:
        results = [spans.job(lambda index=index: workload.run(index))
                   for index in range(workload.pool)]
    finally:
        spans.uninstall()
    assert [ok for ok, _ in results] == [True] * workload.pool
    assert spans.jobs == workload.pool
