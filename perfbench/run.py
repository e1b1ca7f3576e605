"""pdinfer benchmark: one workload per process, a closed loop with one client.

Run from the repository root::

    python3 perfbench/run.py --workload bootstrap --seed 1 --seconds 30 --trace 0

The process imports ``pdinfer`` from ``src/``, builds the workload's inputs
from ``--seed`` and runs one warm-up job. It then runs passes until
``--seconds`` of job time have been measured: a pass runs every job of the
workload's fixed pool once, one at a time. Every job's outputs are checked;
a job that raises or fails a check counts in ``failed``.

Timings are scaled to a reference host speed. The shared host this
benchmark was written on changes speed by up to 1.6 times, for seconds to
minutes at a time (CPU time follows wall time, so it is not time stolen
from the process), and wall-clock figures spread up to 25% from run to run
there. So every timed block is bracketed by a fixed calibration loop that
uses no pdinfer code, and its wall time is scaled by ``CALIBRATION_S`` over
the loop's mean time around it: a time in seconds of the host at reference
speed. A change to pdinfer moves these times in proportion to wall time;
the host's speed does not move them. Then:

* a job's latency is its median over the passes of one kind (traced or
  untraced); ``job_p50_ms`` and ``job_tail_ms`` are taken over the pool and
  ``jobs_per_s`` is the pool size over the sum of those latencies;
* ``setup_s`` is the median of ``SETUP_REPS`` samples spread over the run,
  each an import (in this process, then in fresh interpreters), an input
  build and a warm-up job.

Wall-clock figures are in the detail line, for reference.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (span times in wall seconds), plus the tracing overhead. The last line of standard output
is the result object; the line before it carries the details (tail
percentile, golden-digest mismatches, machine info). Both are also written
to ``.perfbench_out/``, with the spans of a traced run.

``--write-golden`` runs the pool once and records the digests of the job
outputs for ``--seed`` in ``perfbench/golden/<workload>.json``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before every import
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

TAIL_BEYOND = 10
SETUP_REPS = 5
#: ``calibration_s()`` on the host this benchmark was written on (an Intel
#: Xeon with 2 vCPUs), in its fast state: the reference speed of every
#: reported time.
CALIBRATION_S = 0.0031
IMPORT_PROBE = "--import-probe"

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("bootstrap", "files", "study"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    parser.add_argument("--write-golden", action="store_true")
    return parser.parse_args(argv)


def import_package():
    """Import pdinfer from this checkout's src/, never from anywhere else."""
    if not (SOURCE / "pdinfer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pdinfer sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import pdinfer

    if Path(pdinfer.__file__).resolve().parent != SOURCE / "pdinfer":
        raise SystemExit(f"perfbench: imported pdinfer from {pdinfer.__file__}")
    import tracer
    import workloads

    return tracer, workloads


def probe_import_s() -> float:
    """Import time of this script's imports in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, IMPORT_PROBE],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SOURCE / "pdinfer").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibration_s() -> float:
    """Time one fixed piece of work that uses no pdinfer code.

    Half of it parses tab-separated text in Python, half is numpy on an
    array larger than a core's private caches, like the workloads' mix.
    """
    import numpy as np

    values = np.arange(100_000.0)
    lines = [f"{i % 3}\t{i * 7919 % 100_003}" for i in range(3000)]
    counts: dict[int, int] = {}
    t0 = time.perf_counter()
    for line in lines:
        label, value = line.split("\t")
        key = int(value) % 97
        counts[key] = counts.get(key, 0) + int(label)
    (5.0 / (5.0 + values)).sum()
    np.cumsum(values)
    np.sort(values[::-1])
    return time.perf_counter() - t0


class HostTimer:
    """Wall time of a block, and the factor that scales it to reference speed.

    The factor is ``CALIBRATION_S`` over the mean of the calibration times
    taken just before and just after the block.
    """

    def __enter__(self) -> "HostTimer":
        self._before = calibration_s()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall = time.perf_counter() - self._t0
        self.scale = CALIBRATION_S / ((self._before + calibration_s()) / 2)


@dataclass
class Pass:
    """One run of every job of the pool, traced or not.

    ``latencies`` are at reference speed, ``wall`` are as measured.
    """

    traced: bool
    latencies: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    failed: int = 0


@dataclass
class Measurement:
    """Everything one benchmark run measured."""

    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    warmup_failed: int = 0
    golden_mismatch: int = 0

    @property
    def attempted(self) -> int:
        return len(self.setup_s) + sum(len(one.latencies) for one in self.passes)

    @property
    def failed(self) -> int:
        return self.warmup_failed + sum(one.failed for one in self.passes)


def run_job(workload, index: int, tracer=None) -> tuple[bool, str | None]:
    """One job; an exception counts as a failed job, not a failed run."""
    try:
        if tracer is not None:
            return tracer.job(lambda: workload.run(index))
        return workload.run(index)
    except Exception:  # noqa: BLE001 - the loop must survive a failing job
        traceback.print_exc(file=sys.stderr)
        return False, None


def build(make_workload, measurement: Measurement, import_s: float | None = None):
    """One sample of set-up time: the import, the input build and a warm-up job.

    Without ``import_s`` (the import this process already did), the import
    is timed in a fresh interpreter.
    """
    with HostTimer() as timer:
        if import_s is None:
            import_s = probe_import_s()
        t0 = time.perf_counter()
        workload = make_workload()
        workload.setup()
        ok, _ = run_job(workload, 0)
        build_s = time.perf_counter() - t0
    wall = import_s + build_s
    measurement.setup_wall_s.append(wall)
    measurement.setup_s.append(wall * timer.scale)
    measurement.warmup_failed += not ok
    return workload


def run_pass(workload, traced: bool, tracer, golden, measurement: Measurement) -> float:
    """Run every job of the pool once; returns the wall time the jobs took."""
    one = Pass(traced)
    if traced:
        tracer.install()
    try:
        for index in range(workload.pool):
            with HostTimer() as timer:
                ok, digest = run_job(workload, index, tracer if traced else None)
            one.wall.append(timer.wall)
            one.latencies.append(timer.wall * timer.scale)
            one.failed += not ok
            measurement.golden_mismatch += golden is not None and digest != golden[index]
    finally:
        if traced:
            tracer.uninstall()
    measurement.passes.append(one)
    return sum(one.wall)


def measure(make_workload, seconds: float, import_s: float, tracer=None, golden=None):
    """Run passes until ``seconds`` of job time have been measured.

    With a tracer, passes alternate untraced/traced and the loop ends after
    a traced pass. Set-up is sampled ``SETUP_REPS`` times, spread over the
    run; the passes after a sample use the inputs it built.
    """
    measurement = Measurement()
    workload = build(make_workload, measurement, import_s)
    measured = 0.0
    while True:
        traced = tracer is not None and len(measurement.passes) % 2 == 1
        measured += run_pass(workload, traced, tracer, golden, measurement)
        if measured >= seconds and (tracer is None or traced):
            return measurement
        samples = len(measurement.setup_s)
        if samples < SETUP_REPS and measured >= seconds * samples / SETUP_REPS:
            workload = build(make_workload, measurement)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with ``TAIL_BEYOND`` jobs beyond it.

    Returns (latency, percentile, jobs beyond). When that percentile would
    not lie above the median, the maximum is reported as the 100th
    percentile.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def job_latencies(passes: list[Pass], traced: bool) -> list[float]:
    """Per pool job, its median latency over the passes of one kind."""
    runs = [one.latencies for one in passes if one.traced == traced]
    return [statistics.median(times) for times in zip(*runs)]


def golden_path(name: str) -> Path:
    return HERE / "golden" / f"{name}.json"


def load_golden(name: str, seed: int, size: str, pool: int):
    """Golden digests by pool index, when recorded for this seed and size."""
    path = golden_path(name)
    if not path.is_file():
        return None
    digests = json.loads(path.read_text()).get(f"{size}/{seed}")
    return digests if digests is not None and len(digests) == pool else None


def write_golden(workload, name: str, seed: int, size: str) -> int:
    workload.setup()
    results = [run_job(workload, index) for index in range(workload.pool)]
    path = golden_path(name)
    record = json.loads(path.read_text()) if path.is_file() else {}
    record[f"{size}/{seed}"] = [digest for _, digest in results]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(record.items())), indent=1) + "\n")
    failed = sum(not ok for ok, _ in results)
    print(f"wrote {path} ({len(results)} jobs, {failed} failed)")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer_module, workloads = import_package()
    import_s = time.perf_counter() - _START
    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"

    def make_workload():
        return workloads.WORKLOADS[args.workload](args.seed, args.size, work_dir)

    try:
        if args.write_golden:
            return write_golden(make_workload(), args.workload, args.seed, args.size)
        pool = make_workload().pool
        golden = load_golden(args.workload, args.seed, args.size, pool)
        tracer = tracer_module.Tracer() if args.trace else None
        measured = measure(make_workload, args.seconds, import_s, tracer, golden)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = measured.passes
    attempted, failed = measured.attempted, measured.failed
    latencies = job_latencies(passes, traced=False)
    tail_s, tail_percentile, tail_beyond = tail(latencies)
    wall = [t for one in passes if not one.traced for t in one.wall]
    if tracer is None:
        values = {
            "jobs_per_s": len(latencies) / sum(latencies),
            "job_p50_ms": 1e3 * statistics.median(latencies),
            "job_tail_ms": 1e3 * tail_s,
            "setup_s": statistics.median(measured.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END_UNITS
    else:
        values = tracer_module.per_layer_metrics(tracer)
        values["trace.overhead_frac"] = 1.0 - sum(latencies) / sum(
            job_latencies(passes, traced=True)
        )
        values["fail_ratio"] = failed / attempted
        units = tracer_module.PER_LAYER_UNITS

    kind = make_workload().kind
    ms_by_kind: dict[str, list[float]] = {}
    for index, latency in enumerate(latencies):
        ms_by_kind.setdefault(kind(index), []).append(1e3 * latency)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "pool": len(latencies),
        "passes": len(wall) // len(latencies),
        "traced_passes": len(passes) - len(wall) // len(latencies),
        "fail_ratio": failed / attempted,
        "tail_percentile": tail_percentile,
        "tail_jobs_beyond": tail_beyond,
        "job_ms_by_kind": {k: statistics.median(v) for k, v in ms_by_kind.items()},
        "wall_jobs_per_s": len(wall) / sum(wall),
        "wall_job_p50_ms": 1e3 * statistics.median(wall),
        "wall_setup_s": statistics.median(measured.setup_wall_s),
        "host_scale": statistics.median(
            l / w for one in passes for l, w in zip(one.latencies, one.wall)
        ),
        "golden_mismatch": measured.golden_mismatch if golden is not None else None,
        "machine": machine_info(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == [IMPORT_PROBE]:
        import_package()
        print(time.perf_counter() - _START)
        sys.exit(0)
    sys.exit(main())
