"""Command-line front end: ``pd-infer <command>``.

Commands
--------
sample      generate a dataset file from the urn scheme
mle         fit the dispersal parameter from a dataset file
test        score test (``--mode lm``) or likelihood ratio test (``--mode lrt``)
classify    marginal or simultaneous classification of a test file
experiment  classifier convergence study over growing training sizes

Every command is deterministic given its flags and seed. A run-manifest
file of ``key = value`` lines (``--manifest``) can substitute for flags;
explicit flags win on conflict.

Exit codes: 0 success (warnings allowed), 1 usage error, 2 data/parse
error, 3 numeric/degeneracy error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classify import (
    classify_marginal,
    classify_simultaneous,
    counts_by_class,
    train_from_counts,
)
from .core import SpeciesCounts, _check_psi, partition_of
from .dataio import (
    DatasetFormatError,
    KIND_LABELED,
    read_dataset,
    write_classification,
    write_dataset,
)
from .estimation import PsiEstimate, fit_psi
from .experiment import ExperimentSpec, run_convergence_experiment
from .hypothesis import DegenerateSampleError, lm_test, lr_test
from .sampling import UrnConfig, derive_seeds, sample_labeled_dataset, sample_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags or flag values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)


def _require(name: str, raw: object) -> object:
    if raw is None:
        raise UsageError(f"--{name} is required (flag or manifest)")
    return raw


def _to_int(name: str, raw: object) -> int:
    try:
        return int(str(raw))
    except ValueError:
        raise UsageError(f"--{name} expects an integer, got {raw!r}") from None


def _to_float(name: str, raw: object) -> float:
    try:
        return float(str(raw))
    except ValueError:
        raise UsageError(f"--{name} expects a number, got {raw!r}") from None


def _to_bool(name: str, raw: object) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no", ""):
        return False
    raise UsageError(f"--{name} expects true/false, got {raw!r}")


def _to_psi(name: str, value: float) -> float:
    try:
        return _check_psi(value)
    except ValueError as exc:
        raise UsageError(f"--{name}: {exc}") from None


def _to_floats(name: str, raw: object) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in str(raw).split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--{name} expects comma-separated numbers, got {raw!r}") from None


def _to_ints(name: str, raw: object) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(raw).split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--{name} expects comma-separated integers, got {raw!r}") from None


def _read_manifest(path: str) -> dict[str, str]:
    """Parse ``key = value`` lines; blank lines and ``#`` comments ignored."""
    entries: dict[str, str] = {}
    for line_number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"manifest line {line_number}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _rho_summary(counts: SpeciesCounts) -> str:
    rho = partition_of(counts)
    return " ".join(f"{t}:{m}" for t, m in rho.rho)


def _print_fit(fit: PsiEstimate, prefix: str = "") -> None:
    print(f"{prefix}n = {fit.n}")
    print(f"{prefix}k_obs = {fit.k_obs}")
    print(f"{prefix}psi_hat = {fit.psi_hat:.12g}")
    print(f"{prefix}residual = {fit.residual:.6g}")
    print(f"{prefix}iterations = {fit.iterations}")
    print(f"{prefix}status = {fit.status}")


def _cmd_sample(args: argparse.Namespace) -> int:
    psis = _to_floats("psi", _require("psi", args.psi))
    if not psis:
        raise UsageError("--psi requires at least one value")
    n = _to_int("n", _require("n", args.n))
    seed = _to_int("seed", args.seed)
    if n < 1:
        raise UsageError(f"--n must be at least 1, got {n}")
    psis = tuple(_to_psi("psi", p) for p in psis)
    out = Path(_require("out", args.out))

    metadata = {
        "tool_version": __version__,
        "command": "sample",
        "psi": ",".join(f"{p:g}" for p in psis),
        "n": n,
        "seed": seed,
    }
    if len(psis) == 1:
        sequence = sample_sequence(UrnConfig(psis[0], n, seed))
        write_dataset(out, sequence.values, metadata=metadata)
        print(f"wrote {out} (unlabeled, n={n})")
        print(f"k_obs = {sequence.counts.k_obs}")
        print(f"rho = {_rho_summary(sequence.counts)}")
    else:
        metadata["class_seeds"] = ",".join(
            str(s) for s in derive_seeds(seed, len(psis))
        )
        pairs = sample_labeled_dataset(psis, n, seed)
        labels = np.array([c for c, _ in pairs], dtype=np.int64)
        values = np.array([v for _, v in pairs], dtype=np.int64)
        write_dataset(out, values, labels=labels, metadata=metadata)
        print(f"wrote {out} (labeled, k={len(psis)}, n per class={n})")
        for c in range(len(psis)):
            counts = SpeciesCounts.from_values(values[labels == c])
            print(f"class = {c}")
            print(f"k_obs = {counts.k_obs}")
            print(f"rho = {_rho_summary(counts)}")
    return EXIT_OK


def _cmd_mle(args: argparse.Namespace) -> int:
    dataset = read_dataset(_require("input", args.input))
    if _to_bool("per-class", args.per_class):
        if dataset.kind != KIND_LABELED:
            raise DatasetFormatError(
                f"{args.input}: --per-class requires a labeled dataset"
            )
        for c, counts in enumerate(counts_by_class(dataset.labels, dataset.values)):
            print(f"class = {c}")
            _print_fit(fit_psi(partition_of(counts)))
    else:
        counts = SpeciesCounts.from_values(dataset.values)
        fit = fit_psi(partition_of(counts))
        _print_fit(fit)
        if not fit.converged:
            print(
                f"warning: degenerate sample ({fit.status}); "
                f"psi_hat is the bracket boundary",
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_test(args: argparse.Namespace) -> int:
    mode = str(_require("mode", args.mode))
    inputs = _require("input", args.input)
    if isinstance(inputs, str):  # a manifest supplies one path as a string
        inputs = inputs.split()
    if mode == "lm":
        if len(inputs) != 1:
            raise UsageError("--mode lm requires exactly one --input file")
        if args.psi0 is None:
            raise UsageError("--mode lm requires --psi0")
        psi0 = _to_psi("psi0", _to_float("psi0", args.psi0))
        dataset = read_dataset(inputs[0])
        rho = partition_of(SpeciesCounts.from_values(dataset.values))
        report = lm_test(rho, psi0)
        print(f"method = {report.method}")
        print(f"statistic = {report.statistic:.12g}")
        print(f"df = {report.df}")
        print(f"p_value = {report.p_value:.12g}")
        print(f"psi0 = {psi0:.12g}")
        fit = fit_psi(rho)
        print(f"psi_hat = {fit.psi_hat:.12g}")
        print(f"psi_hat_status = {fit.status}")
    elif mode == "lrt":
        if len(inputs) < 2:
            raise UsageError("--mode lrt requires at least two --input files")
        partitions = [
            partition_of(SpeciesCounts.from_values(read_dataset(path).values))
            for path in inputs
        ]
        report = lr_test(partitions)
        print(f"method = {report.method}")
        print(f"statistic = {report.statistic:.12g}")
        print(f"df = {report.df}")
        print(f"p_value = {report.p_value:.12g}")
        for index, fit in enumerate(report.per_sample_psi):
            print(f"psi_hat_{index} = {fit.psi_hat:.12g}")
        print(f"psi_hat_pooled = {report.pooled_psi.psi_hat:.12g}")
    else:
        raise UsageError(f"--mode must be lm or lrt, got {mode!r}")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    mode = str(_require("mode", args.mode))
    if mode not in ("marginal", "simultaneous"):
        raise UsageError(f"--mode must be marginal or simultaneous, got {mode!r}")
    for name in ("train", "test", "out"):
        _require(name, getattr(args, name))
    training = read_dataset(args.train)
    if training.kind != KIND_LABELED:
        raise DatasetFormatError(f"{args.train}: training data must be labeled")
    try:
        per_class = counts_by_class(training.labels, training.values)
        if len(per_class) < 2:
            raise ValueError("need at least 2 training classes")
    except ValueError as exc:
        raise DatasetFormatError(f"{args.train}: {exc}") from None
    model = train_from_counts(per_class)

    test = read_dataset(args.test)
    score_truth = _to_bool("score-against-truth", args.score_against_truth)
    if score_truth and test.kind != KIND_LABELED:
        raise DatasetFormatError(
            f"{args.test}: --score-against-truth requires a labeled test file"
        )

    if mode == "marginal":
        result = classify_marginal(model, test.values)
    else:
        result = classify_simultaneous(model, test.values)

    metadata = {
        "tool_version": __version__,
        "command": "classify",
        "mode": mode,
        "train": args.train,
        "test": args.test,
    }
    write_classification(
        args.out,
        result.labeling,
        result.per_item_log,
        result.log_score,
        result.sweeps,
        result.converged,
        metadata=metadata,
    )
    print(f"wrote {args.out} (mode={mode}, n={result.labeling.size})")
    print(f"total_log_score = {result.log_score:.12g}")
    print(f"sweeps = {result.sweeps}")
    print(f"converged = {str(result.converged).lower()}")
    if score_truth:
        error_rate = float((result.labeling != test.labels).mean())
        print(f"error_rate = {error_rate:.6f}")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    cap_gb = _to_float("memory-cap-gb", args.memory_cap_gb)
    if not math.isfinite(cap_gb):
        raise UsageError(f"--memory-cap-gb must be finite, got {cap_gb}")
    spec_kwargs = dict(
        psis=_to_floats("psis", args.psis),
        training_sizes=_to_ints("training-sizes", args.training_sizes),
        test_size=_to_int("test-size", args.test_size),
        replicates=_to_int("replicates", args.replicates),
        master_seed=_to_int("seed", args.seed),
        output_path=Path(_require("out", args.out)),
        memory_cap_bytes=int(cap_gb * 2**30),
    )
    if args.workers is not None:
        spec_kwargs["workers"] = _to_int("workers", args.workers)
    try:
        spec = ExperimentSpec(**spec_kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = run_convergence_experiment(spec)
    print("m\terr_marginal\terr_simultaneous\tdisagreement")
    for row in rows:
        print(
            f"{row.m}\t{row.err_marginal:.4f}\t{row.err_simultaneous:.4f}"
            f"\t{row.disagreement:.4f}"
        )
    print(f"wrote {spec.output_path}/summary.tsv and series files")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="pd-infer", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"pd-infer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_manifest(p: _Parser) -> None:
        p.add_argument("--manifest", default=None, help="key = value file of flag defaults")

    p_sample = sub.add_parser("sample", help="generate a dataset from the urn scheme")
    p_sample.add_argument("--psi", help="dispersal; comma-separated list makes a labeled per-class dataset")
    p_sample.add_argument("--n", help="sequence length (per class when multiple --psi values)")
    p_sample.add_argument("--seed", default="0")
    p_sample.add_argument("--out")
    add_manifest(p_sample)
    p_sample.set_defaults(handler=_cmd_sample)

    p_mle = sub.add_parser("mle", help="fit the dispersal parameter")
    p_mle.add_argument("--input")
    p_mle.add_argument("--per-class", dest="per_class", action="store_true", default=False)
    add_manifest(p_mle)
    p_mle.set_defaults(handler=_cmd_mle)

    p_test = sub.add_parser("test", help="hypothesis tests for the dispersal parameter")
    p_test.add_argument("--mode", help="lm or lrt")
    p_test.add_argument("--psi0", default=None, help="null value (lm only)")
    p_test.add_argument("--input", nargs="+", help="one file for lm, two or more for lrt")
    add_manifest(p_test)
    p_test.set_defaults(handler=_cmd_test)

    p_classify = sub.add_parser("classify", help="classify a test file")
    p_classify.add_argument("--mode", help="marginal or simultaneous")
    p_classify.add_argument("--train", help="labeled training dataset")
    p_classify.add_argument("--test", help="test dataset")
    p_classify.add_argument("--out", help="result file")
    p_classify.add_argument("--score-against-truth", dest="score_against_truth", action="store_true", default=False)
    add_manifest(p_classify)
    p_classify.set_defaults(handler=_cmd_classify)

    p_exp = sub.add_parser("experiment", help="classifier convergence study")
    p_exp.add_argument("--psis", default="1,10,50", help="per-class dispersal values")
    p_exp.add_argument("--training-sizes", dest="training_sizes", default="1000,10000,100000,200000",
                       help="total training sizes (desk-scale default; raise for larger studies)")
    p_exp.add_argument("--test-size", dest="test_size", default="2000")
    p_exp.add_argument("--replicates", default="5")
    p_exp.add_argument("--seed", default="100")
    p_exp.add_argument("--out", help="output directory")
    p_exp.add_argument("--memory-cap-gb", dest="memory_cap_gb", default="2")
    p_exp.add_argument("--workers", default=None,
                       help="parallel replicate workers (default: hardware threads)")
    add_manifest(p_exp)
    p_exp.set_defaults(handler=_cmd_experiment)

    return parser


def _apply_manifest(argv: list[str], parser: _Parser) -> None:
    if "--manifest" not in argv:
        return
    index = argv.index("--manifest")
    if index + 1 >= len(argv):
        raise UsageError("--manifest requires a file path")
    entries = _read_manifest(argv[index + 1])
    # manifest values become defaults; explicit flags still win at parse time
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        for subparser in action.choices.values():
            known = {a.dest for a in subparser._actions}  # noqa: SLF001
            subparser.set_defaults(**{k: v for k, v in entries.items() if k in known})


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_manifest(argv, parser)
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"pd-infer: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DatasetFormatError as exc:
        print(f"pd-infer: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"pd-infer: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DegenerateSampleError as exc:
        print(f"pd-infer: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"pd-infer: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry_point() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
