"""The benchmark's three workloads: bootstrap, files and study.

A workload builds its inputs from the workload seed in ``setup`` and then
serves jobs from a fixed pool of ``pool`` jobs. ``run(index)`` runs one
job and returns ``(ok, digest)``: ``ok`` is whether the outputs pass the
checks any correct implementation passes, ``digest`` is a SHA-256 of the
outputs for the golden comparison. All calls into the package go through
module attributes (``pdinfer.fit_psi``, ``pdinfer.cli.main``) so that the
tracer's wrappers see them.

Why these three (see ``rationale.json`` for the layer mapping):

* ``bootstrap`` is thousands of small in-memory calls: urn sampling,
  partitions, fits and score tests. It never touches files, classifiers or
  the command line.
* ``files`` is the command line on files. It is the only workload that
  reads and writes datasets, and the only one above the 1e5 switch in
  ``core``. Its files are a tenth of the sizes first planned (no sample
  above the 1e6 direct/digamma switch): a 1.2e6-line read takes 1.7-2.5 s
  on a shared 2-vCPU Xeon, too long a job to time steadily there.
* ``study`` is the paper's classifier convergence study with its default
  configuration, dominated by training fits and greedy sweeps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pdinfer
import pdinfer.cli
from pdinfer.estimation import RESIDUAL_TOL


def _digest(*parts: str | bytes) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode() if isinstance(part, str) else part)
        sha.update(b"\0")
    return sha.hexdigest()


def _is_probability(value: float) -> bool:
    return 0.0 <= value <= 1.0  # False for NaN too


# -- bootstrap ------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapSize:
    replicates: int
    length: int
    pool: int


class Bootstrap:
    """Parametric-bootstrap intervals for psi, all in memory.

    Job ``j`` fixes psi = 1, 10 or 100 (by ``j`` mod 3), draws ``replicates`` urn
    sequences of ``length`` observations, and on each runs
    ``partition_of`` -> ``fit_psi`` -> ``lm_test`` at the generating psi;
    one ``lr_test`` over the first three replicates closes the job. The
    interval is the 2.5/97.5 percentile of the fitted psi values.
    """

    PSIS = (1.0, 10.0, 100.0)
    SIZES = {
        "full": BootstrapSize(replicates=200, length=2000, pool=6),
        "tiny": BootstrapSize(replicates=6, length=200, pool=3),
    }

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.seed = seed
        self.size = self.SIZES[size]
        self.pool = self.size.pool

    def kind(self, index: int) -> str:
        return f"psi={self.PSIS[index % len(self.PSIS)]:g}"

    def setup(self) -> None:
        job_seeds = pdinfer.derive_seeds(self.seed, self.size.pool)
        self.jobs = [
            (self.PSIS[j % len(self.PSIS)],
             pdinfer.derive_seeds(job_seed, self.size.replicates))
            for j, job_seed in enumerate(job_seeds)
        ]

    def run(self, index: int) -> tuple[bool, str]:
        psi, seeds = self.jobs[index]
        ok = True
        partitions = []
        fits = []
        p_values = []
        for seed in seeds:
            sequence = pdinfer.sample_sequence(
                pdinfer.UrnConfig(psi, self.size.length, seed)
            )
            rho = pdinfer.partition_of(sequence.counts)
            fit = pdinfer.fit_psi(rho)
            report = pdinfer.lm_test(rho, psi)
            ok &= not fit.converged or fit.residual <= RESIDUAL_TOL
            ok &= _is_probability(report.p_value)
            partitions.append(rho)
            fits.append(fit)
            p_values.append(report.p_value)
        try:
            statistic = pdinfer.lr_test(partitions[:3]).statistic
        except pdinfer.DegenerateSampleError:
            # the documented outcome when a replicate has a boundary fit
            statistic = None
            ok &= not all(fit.converged for fit in fits[:3])
        else:
            ok &= all(fit.converged for fit in fits[:3]) and statistic >= 0.0
        psi_hats = [fit.psi_hat for fit in fits]
        low, high = np.percentile(psi_hats, [2.5, 97.5])
        ok &= bool(math.isfinite(low) and low <= high)
        digest = _digest(repr(psi_hats), repr(p_values), repr(statistic))
        return bool(ok), digest


# -- files ---------------------------------------------------------------------


@dataclass(frozen=True)
class FilesSize:
    train_per_class: int
    test_per_class: int
    large: int
    remap_bits: int
    lrt: int
    sample_per_class: int


def _fields(text: str) -> list[tuple[str, str]]:
    """``key = value`` lines of a command's output, in order."""
    pairs = []
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs.append((key.strip(), value.strip()))
    return pairs


def _fit_ok(fields: dict[str, str]) -> bool:
    return fields["status"] == "converged" and float(fields["residual"]) <= RESIDUAL_TOL


class Files:
    """The ``pd-infer`` command line on files, run in-process via ``cli.main``.

    Set-up writes a labeled training file (psi 1, 10, 50), a labeled test
    file, a psi = 1000 sample above the 1e5 switch in ``core``, the same
    sample with its ids mapped one-to-one into [0, 2^remap_bits) (which
    makes ``SpeciesCounts.from_values`` size ``np.bincount`` by 2^25),
    and two samples for the likelihood ratio test. The pool has one job of
    each of ``KINDS``.
    """

    PSIS = "1,10,50"
    LARGE_PSI = 1000.0
    LRT_PSI = 50.0
    KINDS = (
        "sample",
        "mle",
        "mle_remapped",
        "mle_per_class",
        "test_lm",
        "test_lrt",
        "classify_marginal",
        "classify_simultaneous",
    )
    SIZES = {
        "full": FilesSize(10_000, 1_000, 120_000, 25, 120_000, 10_000),
        "tiny": FilesSize(2_000, 200, 5_000, 20, 2_000, 500),
    }
    pool = len(KINDS)

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.seed = seed
        self.size = self.SIZES[size]
        self.dir = work_dir

    def kind(self, index: int) -> str:
        return self.KINDS[index]

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def _write_labeled(self, name: str, per_class: int, seed: int) -> None:
        psis = [float(p) for p in self.PSIS.split(",")]
        seeds = pdinfer.derive_seeds(seed, len(psis))
        values = [
            pdinfer.sample_sequence(pdinfer.UrnConfig(psi, per_class, s)).values
            for psi, s in zip(psis, seeds)
        ]
        labels = np.repeat(np.arange(len(psis)), per_class)
        pdinfer.write_dataset(
            self._path(name), np.concatenate(values), labels=labels,
            metadata={"seed": seed},
        )

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        size = self.size
        large, train, test, lrt_a, lrt_b, remap, self.sample_seed = pdinfer.derive_seeds(
            self.seed, 7
        )

        values = pdinfer.sample_sequence(
            pdinfer.UrnConfig(self.LARGE_PSI, size.large, large)
        ).values
        pdinfer.write_dataset(self._path("large.tsv"), values, metadata={"seed": large})
        fit = pdinfer.fit_psi(
            pdinfer.partition_of(pdinfer.SpeciesCounts.from_values(values))
        )
        # what `mle` must print for both the large file and its remapped copy
        self.expected_fit = {
            "n": str(fit.n), "k_obs": str(fit.k_obs), "psi_hat": f"{fit.psi_hat:.12g}"
        }
        ids = np.random.default_rng(remap).choice(
            2**size.remap_bits, size=fit.k_obs, replace=False
        )
        pdinfer.write_dataset(
            self._path("remapped.tsv"), ids[values], metadata={"seed": remap}
        )
        del values, ids
        self._write_labeled("train.tsv", size.train_per_class, train)
        self._write_labeled("test.tsv", size.test_per_class, test)
        for name, seed in (("lrt_a.tsv", lrt_a), ("lrt_b.tsv", lrt_b)):
            values = pdinfer.sample_sequence(
                pdinfer.UrnConfig(self.LRT_PSI, size.lrt, seed)
            ).values
            pdinfer.write_dataset(self._path(name), values, metadata={"seed": seed})

    def _argv(self, kind: str) -> list[str]:
        p = self._path
        classify = ["classify", "--train", p("train.tsv"), "--test", p("test.tsv"),
                    "--out", p("classified.tsv"), "--score-against-truth", "--mode"]
        return {
            "sample": ["sample", "--psi", self.PSIS, "--n", str(self.size.sample_per_class),
                       "--seed", str(self.sample_seed), "--out", p("sampled.tsv")],
            "mle": ["mle", "--input", p("large.tsv")],
            "mle_remapped": ["mle", "--input", p("remapped.tsv")],
            "mle_per_class": ["mle", "--input", p("train.tsv"), "--per-class"],
            "test_lm": ["test", "--mode", "lm", "--psi0", f"{self.LARGE_PSI:g}",
                        "--input", p("large.tsv")],
            "test_lrt": ["test", "--mode", "lrt", "--input", p("lrt_a.tsv"), p("lrt_b.tsv")],
            "classify_marginal": classify + ["marginal"],
            "classify_simultaneous": classify + ["simultaneous"],
        }[kind]

    def run(self, index: int) -> tuple[bool, str]:
        kind = self.kind(index)
        argv = self._argv(kind)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = pdinfer.cli.main(argv)
        text = stdout.getvalue().replace(str(self.dir), "<work>")
        if code != 0:
            return False, _digest(kind, text)
        pairs = _fields(text)
        fields = dict(pairs)
        output = b""
        if kind == "sample":
            output = Path(self._path("sampled.tsv")).read_bytes()
            n = 3 * self.size.sample_per_class
            ok = output.startswith(f"# pd-infer v1 labeled n={n}\n".encode())
            ok &= output.count(b"\n") - output.count(b"\n#") - 1 == n
        elif kind in ("mle", "mle_remapped"):
            ok = _fit_ok(fields) and all(
                fields[key] == value for key, value in self.expected_fit.items()
            )
        elif kind == "mle_per_class":
            blocks = [i for i, (key, _) in enumerate(pairs) if key == "class"]
            ok = len(blocks) == len(self.PSIS.split(",")) and all(
                _fit_ok(dict(pairs[start:start + 7])) for start in blocks
            )
        elif kind in ("test_lm", "test_lrt"):
            ok = _is_probability(float(fields["p_value"]))
        else:
            output = Path(self._path("classified.tsv")).read_bytes()
            records = output.count(b"\n") - output.count(b"\n#") - 1
            ok = records == 3 * self.size.test_per_class
            ok &= _is_probability(float(fields["error_rate"]))
        digest = _digest(kind, text, output.replace(str(self.dir).encode(), b"<work>"))
        return bool(ok), digest


# -- study ---------------------------------------------------------------------


class Study:
    """``pd-infer experiment`` through ``cli.main``, one worker, seed per job.

    The full size uses the command's default configuration (psi 1,10,50,
    training sizes 1000..200000, test size 2000, 5 replicates).
    """

    SIZES = {
        "full": [],
        "tiny": ["--training-sizes", "30,90", "--test-size", "30", "--replicates", "2"],
    }
    pool = 4

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.seed = seed
        self.flags = self.SIZES[size]
        self.dir = work_dir

    def kind(self, index: int) -> str:
        return "experiment"

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        self.job_seeds = pdinfer.derive_seeds(self.seed, self.pool)

    def run(self, index: int) -> tuple[bool, str]:
        out = self.dir / "study"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["experiment", "--workers", "1", "--seed", str(self.job_seeds[index]),
                "--out", str(out), *self.flags]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = pdinfer.cli.main(argv)
        if code != 0:
            return False, _digest("exit", str(code))
        summary = (out / "summary.tsv").read_text(encoding="utf-8")
        replicates = (out / "replicates.tsv").read_text(encoding="utf-8")
        sizes = dict(_fields(summary))["# training_sizes"].split(",")
        rows = [line.split("\t") for line in summary.splitlines() if not line.startswith("#")]
        ok = [row[0] for row in rows] == sizes
        ok &= all(_is_probability(float(row[c])) for row in rows for c in (1, 3, 5))
        return bool(ok), _digest(summary, replicates)


WORKLOADS = {"bootstrap": Bootstrap, "files": Files, "study": Study}
