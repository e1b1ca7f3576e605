"""The benchmark's hold on the package: its traced names and imports resolve.

``perfbench/tracer.py`` wraps public functions by name and
``perfbench/workloads.py`` imports names such as ``RESIDUAL_TOL``; moving or
renaming one breaks the benchmark. This runs one traced pass of every
workload at its tiny size, with both files imported as they are, and checks
each job's output digest against ``golden_tiny.json`` (seed 1), so that a
change meant to keep outputs bit-identical is checked to do so. To record
the file again after a change that moves outputs on purpose, run
``python tests/test_benchmark_contract.py`` and name each moved job in
CHANGES.md.
"""

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = Path(__file__).with_name("golden_tiny.json")
SEED = 1


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _traced_tiny_pass(name: str, work_dir: Path) -> tuple[list[tuple[bool, str]], int]:
    """``(ok, digest)`` of every job of one traced pass, and the jobs the tracer counted."""
    workload = workloads.WORKLOADS[name](SEED, "tiny", work_dir)
    workload.setup()
    spans = tracer.Tracer()
    spans.install()  # raises if a traced name no longer resolves
    try:
        results = [spans.job(lambda index=index: workload.run(index))
                   for index in range(workload.pool)]
    finally:
        spans.uninstall()
    return results, spans.jobs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_tiny_pass_is_ok(name, tmp_path):
    results, jobs = _traced_tiny_pass(name, tmp_path)
    assert [ok for ok, _ in results] == [True] * len(results)
    assert jobs == len(results)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [digest for _, digest in results] == golden[name]


def test_rebound_names_resolve_to_their_homes():
    # perfbench's own suite rebinds these module attributes and restores them;
    # an import that drops one fails there, outside Tier-1's testpaths
    import pdinfer.classify
    import pdinfer.cli
    import pdinfer.core
    import pdinfer.dataio
    import pdinfer.estimation

    assert pdinfer.classify.partition_of is pdinfer.core.partition_of
    assert pdinfer.classify.fit_psi is pdinfer.estimation.fit_psi
    assert pdinfer.cli.read_dataset is pdinfer.dataio.read_dataset


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = {
            name: [digest for _, digest in _traced_tiny_pass(name, Path(work) / name)[0]]
            for name in sorted(workloads.WORKLOADS)
        }
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
