"""Command-line front end: ``pd-infer <command>``.

Commands
--------
sample      generate a dataset file from the urn scheme
mle         fit the dispersal parameter from a dataset file
test        score test (``--mode lm``) or likelihood ratio test (``--mode lrt``)
classify    marginal or simultaneous classification of a test file
experiment  classifier convergence study over growing training sizes

Every command is deterministic given its flags and seed. A run manifest
(``--manifest FILE`` or ``--manifest=FILE``) holds ``key = value`` lines, each
read as the flags ``--key value...`` (``_`` in a key reads as ``-``; the value
is split like a shell line, so quote a path with spaces). They are placed
before the command line's own flags, which therefore win; an unknown key is a
usage error. ``--per-class`` and ``--score-against-truth`` optionally take
true/false/yes/no/1/0.

Exit codes: 0 success (warnings allowed; each degenerate fit adds one
``pd-infer: warning: ...`` line on stderr), 1 usage error (including an
integer flag not in ASCII digits with an optional ``-``, such as ``+5``,
``1_000`` or ``٣``; a number flag (``--psi``, ``--psi0``, ``--psis``,
``--memory-cap-gb``) not in ASCII digits with an optional ``-``, ``.``
fraction and ``e``/``E`` exponent, or ``inf``/``nan``, such as ``1_0``;
any ``experiment --workers`` other than 1, a ``--memory-cap-gb`` whose byte
count is not finite, from about 1.7e299 up, a study whose estimated memory,
which grows with ``--replicates`` and ``--test-size``, exceeds the cap, and a
``classify`` path with a line break or non-UTF-8 bytes, which the result's
metadata cannot hold, so no ``--out`` file is written, and a manifest longer
than 1 MiB), 2 data/parse error (including a dataset with no records, a file
that is not UTF-8, a first line of 2^24 characters or more, which is read no
further, and class ids that are not contiguous), 3 numeric/degeneracy error
or out of memory (one line on stderr, no traceback). A dataset body after a
valid header has no bound, as blank and ``#`` lines may stand anywhere: one
that never ends, such as an endless pipe, is read until memory runs out.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import shlex
import sys
from collections.abc import Callable
from pathlib import Path

from . import __version__
from .classify import classify_marginal, classify_simultaneous, counts_by_class, train_from_counts
from .core import SpeciesCounts, _as_int, _check_psi, partition_of
from .dataio import (
    _INT_RE,
    Dataset,
    DatasetFormatError,
    KIND_LABELED,
    read_dataset,
    write_classification,
    write_dataset,
)
from .estimation import PsiEstimate, fit_psi
from .experiment import _METRICS, ExperimentSpec, run_convergence_experiment
from .hypothesis import DegenerateSampleError, lm_test, lr_test
from .sampling import UrnConfig, _check_seed, derive_seeds, sample_labeled_dataset, sample_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags or flag values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)


def _arg_type(convert: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse ``type`` that reports the ``ValueError`` of ``convert`` as usage."""

    def parse(text: str) -> object:
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _integer(text: str) -> int:
    """``text`` as an int if it is ``-?[0-9]+``, the integers dataset files hold."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"expects an integer, got {text!r}")
    return int(text)


# float() would also take "1_0" and other scripts' digits
_REAL_RE = re.compile(r"(?ai)-?(([0-9]+(\.[0-9]*)?|\.[0-9]+)(e[-+]?[0-9]+)?|inf(inity)?|nan)")


def _real(text: str) -> float:
    """``text`` as a float if it is ASCII decimal or an inf/nan spelling, as floats print."""
    if not _REAL_RE.fullmatch(text):
        raise ValueError(f"expects a number, got {text!r}")
    return float(text)


_psi = _arg_type(lambda text: _check_psi(_real(text)))
_seed = _arg_type(lambda text: _check_seed(_integer(text)))
_int = _arg_type(_integer)
_ints = _arg_type(lambda text: tuple(_integer(p.strip()) for p in text.split(",") if p.strip()))
_count = _arg_type(lambda text: _as_int(_integer(text), "value"))


@_arg_type
def _psis(text: str) -> tuple[float, ...]:
    psis = tuple(_psi(part.strip()) for part in text.split(",") if part.strip())
    if not psis:
        raise ValueError("expects at least one value")
    return psis


@_arg_type
def _gib_to_bytes(text: str) -> int:
    cap = _real(text) * 2**30
    if not math.isfinite(cap):
        raise ValueError(f"must be a finite number of bytes, got {text!r} GiB")
    return int(cap)


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"expects true/false/yes/no/1/0, got {text!r}") from None


# bytes read of a manifest, so that an endless file such as /dev/zero is refused
_MANIFEST_MAX = 1 << 20


@functools.cache
def _manifest_parser() -> _Parser:
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--manifest")
    return pre


def _with_manifest(argv: list[str]) -> list[str]:
    """Replace ``--manifest FILE`` after the command name by the flags FILE lists.

    Each ``key = value`` line (blank lines and ``#`` comments skipped) becomes
    ``--key value...``: ``_`` in the key reads as ``-`` and the value is split
    like a shell line. The tokens go right after the command name, so flags on
    the command line, parsed later, win.
    """
    command = next((i for i, token in enumerate(argv) if not token.startswith("-")), len(argv))
    known, rest = _manifest_parser().parse_known_args(argv[command + 1 :])
    tokens: list[str] = []
    if known.manifest is not None:
        with open(known.manifest, "rb") as handle:
            text = handle.read(_MANIFEST_MAX + 1)
        if len(text) > _MANIFEST_MAX:
            raise UsageError(f"manifest {known.manifest}: longer than {_MANIFEST_MAX} bytes")
        try:
            lines = text.decode("utf-8").splitlines()
            for line_number, line in enumerate(lines, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                values = shlex.split(value)
                if not (sep and key.strip() and values):
                    raise UsageError(f"manifest line {line_number}: expected 'key = value'")
                tokens += [f"--{key.strip().replace('_', '-')}", *values]
        except ValueError as exc:  # unbalanced quotes, or not UTF-8
            raise UsageError(f"manifest {known.manifest}: {exc}") from None
    return argv[: command + 1] + tokens + rest


def _read(path: str) -> Dataset:
    dataset = read_dataset(path)
    if dataset.n == 0:
        raise DatasetFormatError(f"{path}: dataset is empty")
    return dataset


def _read_classes(path: str) -> list[SpeciesCounts]:
    """Per-class frequency tables of a labeled dataset file; a bad split is a data error."""
    dataset = _read(path)
    if dataset.kind != KIND_LABELED:
        raise DatasetFormatError(f"{path}: expected a labeled dataset")
    try:
        return counts_by_class(dataset.labels, dataset.values)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def _print_counts(counts: SpeciesCounts) -> None:
    print(f"k_obs = {counts.k_obs}")
    print("rho = " + " ".join(f"{t}:{m}" for t, m in partition_of(counts).rho))


def _warn_degenerate(subject: str, fit: PsiEstimate) -> None:
    if not fit.converged:
        print(
            f"pd-infer: warning: {subject}: dispersal fit is {fit.status}; "
            f"psi_hat is the bracket boundary {fit.psi_hat:g}",
            file=sys.stderr,
        )


def _print_fit(fit: PsiEstimate, subject: str) -> None:
    print(f"n = {fit.n}")
    print(f"k_obs = {fit.k_obs}")
    print(f"psi_hat = {fit.psi_hat:.12g}")
    print(f"residual = {fit.residual:.6g}")
    print(f"iterations = {fit.iterations}")
    print(f"status = {fit.status}")
    _warn_degenerate(subject, fit)


def _cmd_sample(args: argparse.Namespace) -> int:
    psis, n, seed, out = args.psi, args.n, args.seed, Path(args.out)

    metadata = {"tool_version": __version__, "command": "sample",
                "psi": ",".join(f"{p:g}" for p in psis), "n": n, "seed": seed}
    if len(psis) == 1:
        sequence = sample_sequence(UrnConfig(psis[0], n, seed))
        write_dataset(out, sequence.values, metadata=metadata)
        print(f"wrote {out} (unlabeled, n={n})")
        _print_counts(sequence.counts)
    else:
        metadata["class_seeds"] = ",".join(map(str, derive_seeds(seed, len(psis))))
        labels, values = sample_labeled_dataset(psis, n, seed)
        write_dataset(out, values, labels=labels, metadata=metadata)
        print(f"wrote {out} (labeled, k={len(psis)}, n per class={n})")
        for c, counts in enumerate(counts_by_class(labels, values)):
            print(f"class = {c}")
            _print_counts(counts)
    return EXIT_OK


def _cmd_mle(args: argparse.Namespace) -> int:
    if args.per_class:
        for c, counts in enumerate(_read_classes(args.input)):
            print(f"class = {c}")
            _print_fit(fit_psi(counts), f"class {c}")
    else:
        _print_fit(fit_psi(SpeciesCounts.from_values(_read(args.input).values)), args.input)
    return EXIT_OK


def _cmd_test(args: argparse.Namespace) -> int:
    inputs = args.input
    if args.mode == "lm":
        if len(inputs) != 1:
            raise UsageError("--mode lm requires exactly one --input file")
        if args.psi0 is None:
            raise UsageError("--mode lm requires --psi0")
        counts = SpeciesCounts.from_values(_read(inputs[0]).values)
        report, fit = lm_test(counts, args.psi0), fit_psi(counts)
        tail = [f"psi0 = {args.psi0:.12g}", f"psi_hat = {fit.psi_hat:.12g}",
                f"psi_hat_status = {fit.status}"]
    else:
        if len(inputs) < 2:
            raise UsageError("--mode lrt requires at least two --input files")
        report = lr_test([SpeciesCounts.from_values(_read(path).values) for path in inputs])
        fits = [*enumerate(report.per_sample_psi), ("pooled", report.pooled_psi)]
        tail = [f"psi_hat_{name} = {fit.psi_hat:.12g}" for name, fit in fits]
    print(f"method = {report.method}")
    print(f"statistic = {report.statistic:.12g}")
    print(f"df = {report.df}")
    print(f"p_value = {report.p_value:.12g}")
    print(*tail, sep="\n")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    per_class = _read_classes(args.train)
    if len(per_class) < 2:
        raise DatasetFormatError(f"{args.train}: need at least 2 training classes")
    model = train_from_counts(per_class)
    for class_model in model.classes:
        _warn_degenerate(f"class {class_model.class_id}", class_model.psi_hat)

    test = _read(args.test)
    if args.score_against_truth and test.kind != KIND_LABELED:
        raise DatasetFormatError(
            f"{args.test}: --score-against-truth requires a labeled test file"
        )

    if args.mode == "marginal":
        result = classify_marginal(model, test.values)
    else:
        result = classify_simultaneous(model, test.values)

    metadata = {"tool_version": __version__, "command": "classify", "mode": args.mode,
                "train": args.train, "test": args.test}
    try:
        write_classification(args.out, result.labeling, result.per_item_log, result.log_score,
                             result.sweeps, result.converged, metadata=metadata)
    except ValueError as exc:  # a --train or --test path the metadata cannot hold
        raise UsageError(str(exc)) from None
    print(f"wrote {args.out} (mode={args.mode}, n={result.labeling.size})")
    print(f"total_log_score = {result.log_score:.12g}")
    print(f"sweeps = {result.sweeps}")
    print(f"converged = {str(result.converged).lower()}")
    if args.score_against_truth:
        error_rate = float((result.labeling != test.labels).mean())
        print(f"error_rate = {error_rate:.6f}")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec(
            psis=args.psis,
            training_sizes=args.training_sizes,
            test_size=args.test_size,
            replicates=args.replicates,
            master_seed=args.seed,
            output_path=Path(args.out),
            memory_cap_bytes=args.memory_cap_bytes,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = run_convergence_experiment(spec)
    print("m\t" + "\t".join(_METRICS))
    for row in rows:
        print(f"{row.m}" + "".join(f"\t{getattr(row, name):.4f}" for name in _METRICS))
    print(f"wrote {spec.output_path}/summary.tsv and series files")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The ``pd-infer`` argument parser, built once; parsing leaves it unchanged."""
    parser = _Parser(prog="pd-infer", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"pd-infer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, handler: Callable[[argparse.Namespace], int], **kwargs) -> _Parser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--manifest", help="file of 'key = value' lines read as '--key value' flags")
        p.set_defaults(handler=handler)
        return p

    def add_boolean(p: _Parser, flag: str) -> None:
        p.add_argument(flag, type=_boolean, nargs="?", const=True, default=False, metavar="BOOL")

    p_sample = add_parser("sample", _cmd_sample, help="generate a dataset from the urn scheme")
    p_sample.add_argument("--psi", type=_psis, required=True,
                          help="dispersal; comma-separated list makes a labeled per-class dataset")
    p_sample.add_argument("--n", type=_count, required=True,
                          help="sequence length (per class when multiple --psi values)")
    p_sample.add_argument("--seed", type=_seed, default=0)
    p_sample.add_argument("--out", required=True)

    p_mle = add_parser("mle", _cmd_mle, help="fit the dispersal parameter")
    p_mle.add_argument("--input", required=True)
    add_boolean(p_mle, "--per-class")

    p_test = add_parser("test", _cmd_test, help="hypothesis tests for the dispersal parameter")
    p_test.add_argument("--mode", choices=("lm", "lrt"), required=True)
    p_test.add_argument("--psi0", type=_psi, default=None, help="null value (lm only)")
    p_test.add_argument("--input", nargs="+", required=True,
                        help="one file for lm, two or more for lrt")

    p_classify = add_parser("classify", _cmd_classify, help="classify a test file")
    p_classify.add_argument("--mode", choices=("marginal", "simultaneous"), required=True)
    p_classify.add_argument("--train", required=True, help="labeled training dataset")
    p_classify.add_argument("--test", required=True, help="test dataset")
    p_classify.add_argument("--out", required=True, help="result file")
    add_boolean(p_classify, "--score-against-truth")

    p_exp = add_parser("experiment", _cmd_experiment, help="classifier convergence study")
    p_exp.add_argument("--psis", type=_psis, default="1,10,50", help="per-class dispersal values")
    p_exp.add_argument("--training-sizes", type=_ints, default="1000,10000,100000,200000",
                       help="total training sizes (desk-scale default; raise for larger studies)")
    p_exp.add_argument("--test-size", type=_int, default=2000)
    p_exp.add_argument("--replicates", type=_int, default=5)
    p_exp.add_argument("--seed", type=_seed, default=100)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--memory-cap-gb", type=_gib_to_bytes, default="2.0",
                       dest="memory_cap_bytes")
    p_exp.add_argument("--workers", type=_int, choices=(1,),
                       help="accepted only as 1: the study runs in one process")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_with_manifest(argv))
        if args.manifest is not None:
            # every full --manifest was expanded above; this one is abbreviated
            # or comes from inside a manifest, and would be ignored
            raise UsageError("--manifest must be given in full on the command line")
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
    except MemoryError:
        print("pd-infer: out of memory", file=sys.stderr)
        return EXIT_NUMERIC


def entry_point() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
