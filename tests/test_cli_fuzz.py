"""The command-line contract under generated argv and generated dataset files.

Every run of ``pd-infer`` ends in exit 0, 1, 2 or 3 without a traceback. A
failed run prints exactly one ``pd-infer:`` line on stderr besides any
degenerate-fit warnings, and leaves the files as they were: no output appears,
an existing one keeps its bytes and no temporary file is left behind.

Each example gives every flag of one command a valid value, then drops up to
two flags or puts a mutated token (``+5``, ``1_0``, ``٣``, ``nan``, ...) or
one of the wrong kind (a path for a number, a number for a path) in their
place, and may move flags to a manifest. The flag names come from each
command's parser, so a new flag without fuzz values fails
:func:`test_every_flag_has_fuzz_values`.
Datasets are valid, empty or mutated (a bad header, a wrong field count, a gap
in the class ids, an id of 2^63, bytes that are not UTF-8). Every draw is
small: ``experiment`` always runs at a few items, ``--n`` stays below 50, and
endless devices such as ``/dev/zero`` stay out (``test_cli.py`` covers them).
"""

import argparse
import contextlib
import io
import os
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdinfer.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main

DATA = ["a.tsv", "b.tsv", "c.tsv"]
PATHS = [*DATA, "old.tsv", "new.tsv", "dir", "missing.tsv", "m.txt"]
NUMBERS = ["3", "0.5"]
MUTATED = ["+5", "1_0", "٣", "nan", "-0", "", "1,,2"]
# the experiment's defaults run 200 000 training items; these come first, so
# a drawn flag may replace them, and a manifest, expanded before them, cannot
TINY_STUDY = ["--training-sizes", "4,8", "--test-size", "4", "--replicates", "1"]

# valid values of each flag, as lists of tokens, besides a choice flag's
# choices; a path flag's values are paths
VALID = {
    "--psi": [["1"], ["2.5"], ["1,10"]],
    "--n": [["1"], ["3"], ["40"]],
    "--seed": [["0"], ["7"], ["18446744073709551615"]],
    "--out": [["new.tsv"], ["old.tsv"]],
    "--input": [["a.tsv"], ["b.tsv"], ["a.tsv", "c.tsv"]],
    "--per-class": [[], ["true"], ["no"]],
    "--mode": [],
    "--psi0": [["1"], ["0.25"]],
    "--train": [["a.tsv"], ["b.tsv"]],
    "--test": [["b.tsv"], ["c.tsv"]],
    "--score-against-truth": [[], ["yes"], ["0"]],
    "--psis": [["1,10"], ["2,5,50"]],
    "--training-sizes": [["4,8"], ["6"]],
    "--test-size": [["2"], ["4"]],
    "--replicates": [["1"], ["2"]],
    "--memory-cap-gb": [["2"], ["0.5"], ["1e-6"]],
    "--workers": [],
    "--manifest": [["m.txt"]],
}
PATH_FLAGS = {"--out", "--input", "--train", "--test", "--manifest"}


def command_flags():
    """Each command's flags, read from its parser (``-h`` left out), with their valid values."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {name: {a.option_strings[-1]: VALID.get(a.option_strings[-1], [])
                   + [[str(choice)] for choice in a.choices or ()]
                   for a in sub._actions if a.option_strings and a.option_strings[-1] != "--help"}
            for name, sub in commands.items()}


FLAGS = command_flags()


def test_every_flag_has_fuzz_values():
    assert sorted(FLAGS) == ["classify", "experiment", "mle", "sample", "test"]
    assert {flag for flags in FLAGS.values() for flag in flags} == set(VALID)


@st.composite
def dataset(draw):
    """A dataset file's bytes: valid, empty or mutated."""
    labeled = draw(st.integers(0, 3)) < 3
    classes = draw(st.sampled_from([2, 3, 1]))
    records = [(c, v) for c in range(classes)
               for v in draw(st.lists(st.integers(0, 5), min_size=1, max_size=5))]
    mutation = draw(st.sampled_from(
        ["none"] * 12 + ["empty", "header", "fields", "gap", "huge", "non-utf8"]))
    if mutation == "gap":
        labeled, records = True, [(2 * c, v) for c, v in records]
    lines = [f"{c}\t{v}" if labeled else str(v) for c, v in records]
    if mutation == "empty":
        lines = []
    elif mutation == "fields":
        lines.insert(draw(st.integers(0, len(lines))), "0\t1\t2")
    elif mutation == "huge":
        lines.append("0\t9223372036854775808" if labeled else "9223372036854775808")
    kind = "labeled" if labeled else "unlabeled"
    version = "v2" if mutation == "header" else "v1"
    text = f"# pd-infer {version} {kind} n={len(lines)}\n" + "".join(f"{line}\n" for line in lines)
    return text.encode() + (b"0\xff\n" if mutation == "non-utf8" else b"")


def wrong_or_mutated(flag):
    """A value for ``flag`` of the wrong kind, or a mutated one, as a one-token list."""
    wrong = PATHS if flag not in PATH_FLAGS else NUMBERS
    return st.sampled_from(wrong + MUTATED).map(lambda text: [text])


@st.composite
def argv_and_manifest(draw):
    """A command line, and the text of the ``m.txt`` that its ``--manifest`` may name.

    All of the command's flags get a valid value; then up to two of them are
    dropped or given a wrong or mutated value, and up to two move to the
    manifest, which may also get a malformed line.
    """
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = sorted(set(FLAGS[command]) - {"--manifest"})
    values = {flag: draw(st.sampled_from(FLAGS[command][flag])) for flag in flags}
    for flag in draw(st.lists(st.sampled_from(flags), max_size=2, unique=True)):
        if draw(st.booleans()):
            del values[flag]
        else:
            values[flag] = draw(wrong_or_mutated(flag))
    moved = draw(st.lists(st.sampled_from(sorted(values)), max_size=2, unique=True)
                 if values else st.just([]))
    lines = [f"{flag[2:].replace('-', '_')} = {shlex.join(values.pop(flag)) or 'true'}"
             for flag in moved]
    lines += draw(st.lists(st.sampled_from(["psi 2.5", 'out = "x', "# comment", "bogus = 1"]),
                           max_size=1))
    tokens = [command] + (TINY_STUDY if command == "experiment" else [])
    if lines:
        manifest = draw(st.sampled_from(["m.txt", "m.txt", "dir", "missing.tsv", "3"]))
        tokens += ["--manifest", manifest]
    for flag in draw(st.permutations(sorted(values))):
        tokens += [flag, *values[flag]]
    return tokens, "".join(f"{line}\n" for line in lines)


def snapshot(root):
    """Every file's bytes and every directory (as None) under ``root``."""
    return {path.relative_to(root).as_posix(): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


@settings(max_examples=400, deadline=None)
@given(drawn=argv_and_manifest(), files=st.lists(dataset(), min_size=3, max_size=3))
def test_exit_code_stderr_and_files(drawn, files):
    args, manifest_text = drawn
    with tempfile.TemporaryDirectory() as name, pytest.MonkeyPatch.context() as patch:
        root = Path(name)
        patch.chdir(root)
        for path, data in zip(DATA, files):
            (root / path).write_bytes(data)
        (root / "old.tsv").write_bytes(b"old bytes\n")
        (root / "m.txt").write_text(manifest_text)
        (root / "dir").mkdir()
        before = snapshot(root)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
        after = snapshot(root)

    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    lines = err.getvalue().splitlines()
    assert all(line.startswith("pd-infer: ") for line in lines)
    errors = [line for line in lines if not line.startswith("pd-infer: warning: ")]
    assert len(errors) == (code != EXIT_OK)
    assert not [path for path in after if os.path.basename(path).startswith(".pd-infer.")]
    if code != EXIT_OK:
        assert after == before
