"""Reading and writing the plain-text dataset and result formats.

Dataset format v1: a magic header line, optional ``# key = value`` metadata
lines, then one record per line — ``<class-id>\\t<species-id>`` for labeled
data or ``<species-id>`` for unlabeled data::

    # pd-infer v1 labeled n=6
    # master_seed = 42
    0	0
    0	1
    ...

Classification results use the same comment conventions: one
``<index>\\t<predicted-class>\\t<log-score-contribution>`` line per test item
and a footer with the total log score, sweep count, and convergence flag.
The experiment's tables are v1 files too. This module is their only writer:
every file goes through one private function that writes the magic line, the
metadata lines and then the body.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _ID_LIMIT

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

_MAGIC_RE = re.compile(r"^# pd-infer v1 (labeled|unlabeled) n=(\d+)\s*$")
_META_RE = re.compile(r"^#\s*([A-Za-z0-9_.-]+)\s*=\s*(.*?)\s*$")


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


def _write_v1(
    path: str | Path,
    title: str,
    metadata: Mapping[str, object] | None,
    body: Iterable[str],
) -> None:
    """Write a v1 text file: the magic line, ``# key = value`` metadata lines, then ``body``."""
    lines = [f"# {FORMAT_VERSION} {title}"]
    lines.extend(f"# {key} = {value}" for key, value in (metadata or {}).items())
    lines.extend(body)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_dataset(
    path: str | Path,
    values: Iterable[int] | np.ndarray,
    labels: Iterable[int] | np.ndarray | None = None,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write a dataset file; labeled when ``labels`` is given."""
    values = np.asarray(values, dtype=np.int64)
    if labels is None:
        kind, body = KIND_UNLABELED, (f"{int(v)}" for v in values)
    else:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != values.shape:
            raise ValueError("labels and values must have the same length")
        kind, body = KIND_LABELED, (f"{int(c)}\t{int(v)}" for c, v in zip(labels, values))
    _write_v1(path, f"{kind} n={values.size}", metadata, body)


def _parse_record(
    line: str, line_number: int, labeled: bool
) -> tuple[int, int] | int:
    fields = line.split()
    expected = 2 if labeled else 1
    if len(fields) != expected:
        raise DatasetFormatError(
            f"line {line_number}: expected {expected} field(s), got {len(fields)}"
        )
    try:
        numbers = [int(f) for f in fields]
    except ValueError:
        raise DatasetFormatError(
            f"line {line_number}: fields must be integers, got {line.strip()!r}"
        ) from None
    if not all(0 <= x < _ID_LIMIT for x in numbers):
        raise DatasetFormatError(
            f"line {line_number}: ids must be non-negative and below 2^63"
        )
    return (numbers[0], numbers[1]) if labeled else numbers[0]


def read_dataset(path: str | Path) -> Dataset:
    """Parse a dataset file, checking the header and the declared size.

    Raises:
        DatasetFormatError: on malformed content, naming the line number, or
            on text that is not UTF-8; the message starts with the path.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            first = handle.readline()
            match = _MAGIC_RE.match(first)
            if not match:
                raise DatasetFormatError(
                    f"line 1: expected '# {FORMAT_VERSION} labeled|unlabeled n=<N>' "
                    f"header, got {first.strip()!r}"
                )
            kind = match.group(1)
            declared_n = int(match.group(2))
            labeled = kind == KIND_LABELED

            metadata: dict[str, str] = {}
            values: list[int] = []
            labels: list[int] = []
            for line_number, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                if line.startswith("#"):
                    meta = _META_RE.match(line)
                    if meta:
                        metadata[meta.group(1)] = meta.group(2)
                    continue
                record = _parse_record(line, line_number, labeled)
                if labeled:
                    labels.append(record[0])
                    values.append(record[1])
                else:
                    values.append(record)
            if len(values) != declared_n:
                raise DatasetFormatError(
                    f"header declares n={declared_n} but file contains {len(values)} records"
                )
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    return Dataset(
        kind=kind,
        values=np.asarray(values, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64) if labeled else None,
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
    labeling = np.asarray(labeling)
    body = [
        f"{i}\t{int(label)}\t{contribution:.17g}"
        for i, (label, contribution) in enumerate(zip(labeling, per_item_log))
    ]
    body.append(f"# total_log_score = {log_score:.17g}")
    body.append(f"# sweeps = {int(sweeps)}")
    body.append(f"# converged = {str(bool(converged)).lower()}")
    _write_v1(path, f"classification n={labeling.size}", metadata, body)
