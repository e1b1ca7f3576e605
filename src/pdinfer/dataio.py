"""Reading and writing the plain-text dataset and result formats.

Dataset format v1: a magic header line, optional ``# key = value`` metadata
lines, then one record per line — ``<class-id>\\t<species-id>`` for labeled
data or ``<species-id>`` for unlabeled data::

    # pd-infer v1 labeled n=6
    # master_seed = 42
    0	0
    0	1
    ...

The header's count is ASCII digits, leading zeros allowed at any length. The
reader accepts any whitespace between fields, blank lines, lines starting
with ``#`` anywhere (each ``# key = value`` one is metadata) and ids below
2^63 written in ASCII digits (leading zeros allowed; a sign, ``_`` or a digit
of another script is refused). A body made only of ASCII digits, spaces, tabs
and newlines after the leading ``#`` block — the writer's layout among others —
is parsed in one ``np.fromstring`` call, once a numpy pass over its
whitespace has found one record or no id on each line; an id of 19 or more
digits is checked by its digits. Any other body, and any body that check
rejects, goes through the line parser, which is the reference: it alone
decides what is accepted and names the first bad line.

Classification results use the same comment conventions: one
``<index>\\t<predicted-class>\\t<log-score-contribution>`` line per test item
and a footer with the total log score, sweep count, and convergence flag.
The experiment's tables are v1 files too. This module is their only writer,
and :func:`_write_v1` the only code that makes rows text, a batch of every
column at a time, so no body is held whole as numbers or text. Columns that
are all int64 ids (datasets) are made text in numpy by :func:`_id_lines`;
tables with a float column keep a Python row formatter, whose ``.17g`` and
``.6f`` text numpy has no exact kernel for. Each file is written to a sibling
temporary file that replaces the target only once it is whole, so a failed
write leaves no new file and an old one as it was (a device or a pipe, such
as ``/dev/stdout``, is written in place). Metadata keys are
``[A-Za-z0-9_.-]+``, no key or value may hold ``\\n`` or ``\\r``, which the
reader would drop or split, and all of it must encode as UTF-8 (a lone
surrogate does not); the writer refuses the rest with ``ValueError`` before
it opens the file.
"""

from __future__ import annotations

import contextlib
import os
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _ID_LIMIT, _as_ids, _as_int, _as_labeled

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "FORMAT_VERSION",
    "KIND_LABELED",
    "KIND_UNLABELED",
    "read_dataset",
    "write_dataset",
]

FORMAT_VERSION = "pd-infer v1"
KIND_LABELED = "labeled"
KIND_UNLABELED = "unlabeled"

_MAGIC_RE = re.compile(r"^# pd-infer v1 (labeled|unlabeled) n=([0-9]+)\s*$")
_META_KEY_RE = re.compile(r"[A-Za-z0-9_.-]+")
_META_RE = re.compile(rf"^#\s*({_META_KEY_RE.pattern})\s*=\s*(.*?)\s*$")
_LEADING_COMMENTS_RE = re.compile(r"(?:#[^\n]*\n)*")
_FAST_CHARS = b"0123456789 \t\n"
_ID_MAX_DIGITS = str(_ID_LIMIT - 1).encode()
# int() would also take "+5", "1_000" and other scripts' digits; a "-" is
# let through so that a negative id, "-0" included, gets its own message
_INT_RE = re.compile(r"-?[0-9]+")
# rows made text at a time: at 4096, two columns' int64 temporaries in the digit
# kernel are 64 KiB, below glibc's 128 KiB mmap threshold; at 16384 each call
# faulted in fresh pages for them
_WRITE_BATCH = 1 << 12
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)
# characters read of line 1: far above any header, so a longer line is refused
_FIRST_LINE_MAX = 1 << 24


class DatasetFormatError(ValueError):
    """A dataset file does not conform to the v1 text format."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Parsed dataset file: kind, species values, optional labels, metadata."""

    kind: str
    values: np.ndarray
    labels: np.ndarray | None
    metadata: dict[str, str]

    @property
    def n(self) -> int:
        return int(self.values.size)


def _id_lines(*columns: np.ndarray) -> bytes:
    """Equal-length int64 id columns as text: fields joined by tabs, each row ended by a newline.

    The bytes of ``str`` of each id, made in numpy: each id's digit count by
    one ``searchsorted``, each field's place in the text by one ``cumsum``,
    then one pass per digit place over the ids that have one.
    """
    ids = np.stack(columns, axis=1).ravel()
    places = np.searchsorted(_TENS, ids, side="right").astype(np.uint8)  # digits - 1
    ends = np.cumsum(places + 2, dtype=np.int64)  # one past each field's separator
    text = np.empty(ends[-1], np.uint8)
    # the ids longest first, so that those with a digit at each place are a prefix
    order = np.argsort(places, kind="stable")[::-1]
    counts = np.cumsum(np.bincount(places)[::-1])[::-1]  # ids with a digit at each place
    at, rest = ends[order] - 2, ids[order]
    for place, count in enumerate(counts):
        at, rest = at[:count], rest[:count]
        tens = rest // 10
        text[at - place] = rest - tens * 10
        rest = tens
    text += ord("0")
    separators = ends.reshape(-1, len(columns)) - 1
    text[separators[:, :-1]] = ord("\t")
    text[separators[:, -1]] = ord("\n")
    return text.tobytes()


def _write_v1(path, title, metadata, row, columns, names=(), footer=()) -> None:
    """Write a v1 file: magic line, metadata, ``# columns:`` line if ``names``, body, ``footer``.

    The body has one line per index of the equal-length ``columns`` (arrays or
    ranges), a batch of each at a time: ``row(*fields)``, or for int64 id
    columns with ``row`` None, :func:`_id_lines`. ``metadata`` is a mapping or
    None (see the module docstring). The file replaces ``path`` only once it
    is whole (see :func:`_replacing`).
    """
    head = [f"# {FORMAT_VERSION} {title}"]
    for key, value in (metadata or {}).items():
        line = f"# {key} = {value}"
        if not _META_KEY_RE.fullmatch(str(key)) or "\n" in line or "\r" in line:
            raise ValueError(f"metadata {key!r} = {value!r}: a key is [A-Za-z0-9_.-]+ "
                             "and no key or value may hold a line break")
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, as a non-UTF-8 path decodes to
            raise ValueError(f"metadata {key!r} = {value!r}: not UTF-8 text") from None
        head.append(line)
    if names:
        head.append("# columns: " + "\t".join(names))
    with _replacing(Path(path)) as handle:
        handle.write(("\n".join(head) + "\n").encode())
        for i in range(0, len(columns[0]), _WRITE_BATCH):
            batch = [c[i : i + _WRITE_BATCH] for c in columns]
            if row is None:
                handle.write(_id_lines(*batch))
            else:
                fields = (b.tolist() if isinstance(b, np.ndarray) else b for b in batch)
                handle.write(("\n".join(map(row, *fields)) + "\n").encode())
        handle.write("".join(line + "\n" for line in footer).encode())


@contextlib.contextmanager
def _replacing(path: Path):
    """A binary file that replaces ``path`` once written whole: a temporary beside it until then.

    On any exception the temporary is removed, and an ``OSError`` names
    ``path``. A link is written through, as ``open`` would; a path to anything
    but a regular file, such as ``/dev/stdout`` or a pipe, is written in place.
    """
    if path.exists() and not path.is_file():
        with open(path, "wb") as handle:
            yield handle
        return
    target = Path(os.path.realpath(path)) if path.is_symlink() else path
    temp = target.parent / f".pd-infer.{os.urandom(8).hex()}.tmp"
    try:
        with open(temp, "xb") as handle:
            yield handle
        os.replace(temp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        if isinstance(exc, OSError) and exc.filename is not None:  # the temporary's name
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_dataset(
    path: str | Path,
    values: Iterable[int] | np.ndarray,
    labels: Iterable[int] | np.ndarray | None = None,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write a dataset file; labeled when ``labels`` is given.

    Ids that :func:`read_dataset` would refuse, and metadata it would misread,
    raise ``ValueError`` before the file is opened.
    """
    if labels is None:
        values = _as_ids(values, ndim=1)
        kind, columns = KIND_UNLABELED, (values,)
    else:
        labels, values = _as_labeled(labels, values)
        kind, columns = KIND_LABELED, (labels, values)
    _write_v1(path, f"{kind} n={values.size}", metadata, row=None, columns=columns)


def _parse_record(line: str, line_number: int, labeled: bool) -> list[int]:
    fields = line.split()
    expected = 2 if labeled else 1
    if len(fields) != expected:
        raise DatasetFormatError(
            f"line {line_number}: expected {expected} field(s), got {len(fields)}"
        )
    if not all(_INT_RE.fullmatch(f) for f in fields):
        raise DatasetFormatError(
            f"line {line_number}: fields must be integers, got {line.strip()!r}"
        )
    # int() refuses more than 4300 digits, leading zeros included; past 19
    # significant digits an id is 2^63 or more, and 20 of them still are
    numbers = [int(f.lstrip("-0")[:20] or "0") for f in fields]
    if "-" in line or not all(x < _ID_LIMIT for x in numbers):
        raise DatasetFormatError(
            f"line {line_number}: ids must be non-negative and below 2^63"
        )
    return numbers


def _parse_lines(text: str, labeled: bool) -> tuple[dict[str, str], np.ndarray]:
    """Metadata and an ``(n, fields)`` record table from the text after the header.

    The reference parser: one line at a time, numbered from line 2, raising
    :class:`DatasetFormatError` at the first bad record.
    """
    metadata: dict[str, str] = {}
    records: list[int] = []
    for line_number, line in enumerate(text.split("\n"), start=2):
        if not line.strip():
            continue
        if line.startswith("#"):
            meta = _META_RE.match(line)
            if meta:
                metadata[meta.group(1)] = meta.group(2)
            continue
        records.extend(_parse_record(line, line_number, labeled))
    return metadata, np.array(records, dtype=np.int64).reshape(-1, 2 if labeled else 1)


def _parse_fast(body: str, labeled: bool) -> np.ndarray | None:
    """The ``(n, fields)`` record table of a body without ``#`` lines, or None.

    Parses in one ``np.fromstring`` call a body made only of ASCII digits,
    spaces, tabs and newlines that holds one record or no id on each line,
    which the line parser would read to the same table. Returns None for any
    other body, and for one with an id of 2^63 or more, so the line parser
    can name the bad line.
    """
    if not body.isascii():
        return None
    # a newline at each end puts every id between two whitespace characters
    raw = f"\n{body}\n".encode("ascii")
    if raw.translate(None, _FAST_CHARS):
        return None
    width = 2 if labeled else 1
    chars = np.frombuffer(raw, np.uint8)
    spaces = np.flatnonzero(chars < 48)
    # fromstring's value for an id of 19 or more digits is not trusted: its
    # digits are compared with 2^63 - 1's, by length and then in order
    for i in np.flatnonzero(np.diff(spaces) > 19):
        digits = raw[spaces[i] + 1 : spaces[i + 1]].lstrip(b"0")
        if (len(digits), digits) > (len(_ID_MAX_DIGITS), _ID_MAX_DIGITS):
            return None
    # an id starts after each whitespace that a digit follows, on the line
    # that the newlines up to that whitespace give
    follows, kinds = chars[1:][spaces[:-1]], chars[spaces[:-1]]
    del spaces
    line = np.cumsum(kinds == 10)[follows >= 48]
    if not line.size:
        # fromstring reads a body without ids as one 0
        return np.empty((0, width), dtype=np.int64)
    if line.size % width:
        return None
    records = line.reshape(-1, width)
    # the ids of a record share a line, and the next record starts a later one
    if (records[:, 0] != records[:, -1]).any() or (records[1:, 0] == records[:-1, -1]).any():
        return None
    return np.fromstring(raw, dtype=np.int64, count=line.size, sep=" ").reshape(-1, width)


def read_dataset(path: str | Path) -> Dataset:
    """Parse a dataset file, checking the header and the declared size.

    Raises:
        DatasetFormatError: on malformed content, naming the line number, or
            on text that is not UTF-8; the message starts with the path.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            # a count may carry many leading zeros, but a line that reaches the
            # bound is no header, so an endless one is never held whole
            first = handle.readline(_FIRST_LINE_MAX)
            cut = len(first) == _FIRST_LINE_MAX and not first.endswith("\n")
            match = None if cut else _MAGIC_RE.match(first)
            if not match:
                # a long line is echoed by a head of at most 40 characters and
                # 42 of repr, so that escapes such as NUL's stay short
                shown = first.strip()
                head = shown[:40]
                while len(repr(head)) > 42:
                    head = head[:-1]
                length = f"at least {_FIRST_LINE_MAX}" if cut else len(shown)
                more = f"... ({length} characters)" if head != shown else ""
                raise DatasetFormatError(
                    f"line 1: expected '# {FORMAT_VERSION} labeled|unlabeled n=<N>' "
                    f"header, got {head!r}{more}"
                )
            text = handle.read()
        kind = match.group(1)
        # compared as text, which int() refuses past 4300 digits, leading zeros included
        declared = match.group(2).lstrip("0") or "0"
        labeled = kind == KIND_LABELED

        head = _LEADING_COMMENTS_RE.match(text).end()
        table = _parse_fast(text[head:], labeled)
        if table is None:
            metadata, table = _parse_lines(text, labeled)
        else:
            metadata = {
                meta.group(1): meta.group(2)
                for meta in map(_META_RE.match, text[:head].split("\n"))
                if meta
            }
        if declared != str(len(table)):
            if len(declared) > 20:
                declared = f"{declared[:20]}... ({len(declared)} digits)"
            raise DatasetFormatError(
                f"header declares n={declared} but file contains {len(table)} records"
            )
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    return Dataset(
        kind=kind,
        values=np.ascontiguousarray(table[:, -1]),
        labels=np.ascontiguousarray(table[:, 0]) if labeled else None,
        metadata=metadata,
    )


def write_classification(
    path: str | Path,
    labeling: np.ndarray,
    per_item_log: np.ndarray,
    log_score: float,
    sweeps: int,
    converged: bool,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write a classification result file (see the module docstring)."""
    # the shapes and the footer first, so that bad input raises before the file is opened
    labeling = _as_ids(labeling, "class ids", ndim=1)
    contributions = np.asarray(per_item_log, dtype=np.float64)
    if contributions.shape != labeling.shape:
        raise ValueError("per_item_log must have one entry per label")
    footer = [f"# total_log_score = {log_score:.17g}", f"# sweeps = {_as_int(sweeps, 'sweeps', 0)}",
              f"# converged = {str(bool(converged)).lower()}"]
    _write_v1(path, f"classification n={labeling.size}", metadata, "{}\t{}\t{:.17g}".format,
              (range(labeling.size), labeling, contributions), footer=footer)
