"""Tests for the dataset and result text formats."""

import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdinfer import DatasetFormatError, dataio, read_dataset, write_dataset
from pdinfer.dataio import write_classification

from conftest import fill_disk_after, traced_peak
from oracles import dataset_body_reference

ID_MAX = 2**63 - 1


def exactly(path, message):
    """A ``pytest.raises`` pattern for the whole message about ``path``."""
    return f"^{re.escape(f'{path}: {message}')}$"


def outcome(path):
    """What ``read_dataset`` makes of ``path``: the parsed fields or the error message."""
    try:
        dataset = read_dataset(path)
    except DatasetFormatError as exc:
        return str(exc)
    labels = None if dataset.labels is None else (dataset.labels.dtype, dataset.labels.tolist())
    return dataset.kind, dataset.values.dtype, dataset.values.tolist(), labels, dataset.metadata


def line_parser_outcome(path):
    with mock.patch.object(dataio, "_parse_fast", return_value=None):
        return outcome(path)


class TestRoundTrip:
    def test_unlabeled(self, tmp_path):
        path = tmp_path / "data.tsv"
        write_dataset(path, [0, 1, 1, 2], metadata={"seed": 7})
        dataset = read_dataset(path)
        assert dataset.kind == "unlabeled"
        assert dataset.labels is None
        assert dataset.values.tolist() == [0, 1, 1, 2]
        assert dataset.metadata["seed"] == "7"
        assert path.read_text().startswith("# pd-infer v1 unlabeled n=4\n")

    def test_labeled(self, tmp_path):
        path = tmp_path / "data.tsv"
        write_dataset(path, [5, 0, 5], labels=[0, 1, 1])
        dataset = read_dataset(path)
        assert dataset.kind == "labeled"
        assert dataset.labels.tolist() == [0, 1, 1]
        assert dataset.values.tolist() == [5, 0, 5]

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "x.tsv", [1, 2], labels=[0])

    @pytest.mark.parametrize(
        ("labeled", "bound"), [(False, 40), (True, 64)], ids=["unlabeled", "labeled"]
    )
    def test_memory(self, tmp_path, labeled, bound):
        # the file's text, the parsed table and the returned columns, plus a
        # few int64 temporaries per whitespace character: about 31 and 56
        # bytes a record here
        n = 200_000
        path = tmp_path / "data.tsv"
        write_dataset(path, np.arange(n) % 1000, labels=np.arange(n) % 3 if labeled else None)
        peak = traced_peak(lambda: read_dataset(path))
        assert peak < bound * n

    @pytest.mark.parametrize(
        ("labeled", "long_ids"),
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["unlabeled", "labeled", "unlabeled-19-digits", "labeled-19-digits"],
    )
    def test_write_memory(self, tmp_path, labeled, long_ids):
        # one batch of rows is text at a time; the whole columns as Python ints
        # and lines once took about 48 bytes a row. Ids of 19 digits take the
        # most text and the most passes of the digit kernel
        n = 200_000
        values = ID_MAX - np.arange(n) if long_ids else np.arange(n) % 1000
        labels = (values if long_ids else np.arange(n) % 3) if labeled else None
        peak = traced_peak(lambda: write_dataset(tmp_path / "data.tsv", values, labels=labels))
        assert peak < 24 * n


# each end of every digit count: 0, 9, 10, 99, 100, ..., 10^18, 2^63 - 1
_DIGIT_EDGES = sorted({0, ID_MAX} | {10**k + d for k in range(1, 19) for d in (-1, 0)})
_EDGE_IDS = st.one_of(st.integers(0, ID_MAX), st.sampled_from(_DIGIT_EDGES))


class TestIdKernel:
    """Dataset bodies are made text in numpy, with the bytes of one format call per row."""

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(batch=st.integers(1, 5), labeled=st.booleans(), data=st.data())
    def test_file_matches_row_formatter(self, tmp_path, batch, labeled, data):
        # sizes on both sides of one, two and three batches
        n = data.draw(st.integers(0, 3 * batch + 1), label="n")
        column = st.lists(_EDGE_IDS, min_size=n, max_size=n)
        values = data.draw(column, label="values")
        labels = data.draw(column, label="labels") if labeled else None
        path = tmp_path / "data.tsv"
        with mock.patch.object(dataio, "_WRITE_BATCH", batch):
            write_dataset(path, np.array(values, dtype=np.int64),
                          labels=None if labels is None else np.array(labels, dtype=np.int64))
        kind = "labeled" if labeled else "unlabeled"
        head = f"# pd-infer v1 {kind} n={n}\n".encode()
        assert path.read_bytes() == head + dataset_body_reference(values, labels)

    @pytest.mark.parametrize("columns", [1, 2])
    def test_every_digit_edge_in_every_field(self, columns):
        edges = np.array(_DIGIT_EDGES, dtype=np.int64)
        table = [np.roll(edges, shift) for shift in range(columns)]
        expected = "".join("\t".join(map(str, row)) + "\n" for row in zip(*table)).encode()
        assert dataio._id_lines(*table) == expected

    def test_batches_at_full_size(self, tmp_path):
        # one id of each digit count and more, over a batch and a part
        rng = np.random.default_rng(29)
        n = dataio._WRITE_BATCH + 123
        values = rng.integers(0, ID_MAX, n, endpoint=True) >> rng.integers(0, 63, n)
        labels = rng.integers(0, 3, n)
        path = tmp_path / "data.tsv"
        write_dataset(path, values, labels=labels)
        body = path.read_bytes().partition(b"\n")[2]
        assert body == dataset_body_reference(values.tolist(), labels.tolist())


class TestWholeOrNothing:
    """A write that fails leaves no new file, an old one as it was and no temporary."""

    WRITERS = {
        "unlabeled": lambda path: write_dataset(path, np.arange(7)),
        "labeled": lambda path: write_dataset(path, np.arange(7), labels=np.arange(7) % 2),
        "classification": lambda path: write_classification(
            path, np.arange(7) % 2, -np.linspace(1.0, 2.0, 7), -10.5, 2, True),
    }

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failure_after_the_first_batch(self, tmp_path, monkeypatch, writer, existing):
        path = tmp_path / "out.tsv"
        if existing:
            path.write_bytes(b"old bytes\n")
        monkeypatch.setattr(dataio, "_WRITE_BATCH", 2)
        fill_disk_after(monkeypatch, dataio, writes=2)  # the head and the first batch
        with pytest.raises(OSError, match="No space left on device"):
            self.WRITERS[writer](path)
        assert list(tmp_path.iterdir()) == ([path] if existing else [])
        if existing:
            assert path.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("writer", WRITERS)
    def test_success_replaces_the_old_file(self, tmp_path, writer):
        path = tmp_path / "out.tsv"
        self.WRITERS[writer](path)
        written = path.read_bytes()
        path.write_bytes(b"old bytes\n")
        self.WRITERS[writer](path)
        assert path.read_bytes() == written
        assert list(tmp_path.iterdir()) == [path]

    def test_error_names_the_callers_path(self, tmp_path):
        # the temporary cannot be made in a missing directory; the error names the target
        path = tmp_path / "missing" / "out.tsv"
        with pytest.raises(FileNotFoundError) as caught:
            write_dataset(path, [0, 1])
        assert str(caught.value) == f"[Errno 2] No such file or directory: {str(path)!r}"
        assert not list(tmp_path.iterdir())

    def test_link_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.tsv", tmp_path / "link.tsv"
        target.write_bytes(b"old bytes\n")
        link.symlink_to(target)
        write_dataset(link, [0, 1])
        assert link.is_symlink() and target.read_bytes() == b"# pd-infer v1 unlabeled n=2\n0\n1\n"
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_device_is_written_in_place(self, tmp_path):
        # such as --out /dev/stdout: the device is written, never replaced
        link = tmp_path / "null"
        link.symlink_to(os.devnull)
        write_dataset(link, [0, 1])
        assert os.readlink(link) == os.devnull and list(tmp_path.iterdir()) == [link]


_IDS = st.lists(st.integers(min_value=0, max_value=ID_MAX), max_size=30)
_METADATA = st.dictionaries(
    st.from_regex(r"[A-Za-z0-9_.-]+", fullmatch=True),
    st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=12).map(str.strip),
    max_size=3,
)


class TestRoundTripProperty:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=_IDS, metadata=_METADATA)
    def test_unlabeled(self, tmp_path, values, metadata):
        path = tmp_path / "data.tsv"
        write_dataset(path, values, metadata=metadata)
        assert outcome(path) == ("unlabeled", np.int64, values, None, metadata)

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        records=st.lists(st.tuples(st.integers(0, ID_MAX), st.integers(0, ID_MAX)), max_size=30),
        metadata=_METADATA,
    )
    def test_labeled(self, tmp_path, records, metadata):
        path = tmp_path / "data.tsv"
        labels = [c for c, _ in records]
        values = [v for _, v in records]
        write_dataset(path, values, labels=labels, metadata=metadata)
        assert outcome(path) == ("labeled", np.int64, values, (np.int64, labels), metadata)


# ids of every kind a caller might pass: valid ones, negatives, ints past int64,
# floats, bools and numeric strings
_ANY_ID = st.one_of(
    st.integers(0, ID_MAX),
    st.integers(-(2**64), 2**65),
    st.floats(),
    st.booleans(),
    st.integers(0, 9).map(str),
)


def _is_id(value):
    return type(value) is int and 0 <= value <= ID_MAX


class TestWriterAcceptsOnlyWhatTheReaderReads:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(st.tuples(_ANY_ID, _ANY_ID), max_size=6), labeled=st.booleans())
    def test_round_trip_or_no_file(self, tmp_path, records, labeled):
        # the writer once wrote -1, and the reader then refused the file at line 2
        path = tmp_path / "data.tsv"
        path.unlink(missing_ok=True)
        values = [v for v, _ in records]
        labels = [c for _, c in records] if labeled else None
        if all(map(_is_id, values + (labels or []))):
            write_dataset(path, values, labels=labels)
            dataset = read_dataset(path)
            assert dataset.values.tolist() == values
            assert (None if dataset.labels is None else dataset.labels.tolist()) == labels
        else:
            with pytest.raises(ValueError):
                write_dataset(path, values, labels=labels)
            assert not path.exists()

    @pytest.mark.parametrize(
        "metadata",
        [{"note": "x\n5"}, {"note": "x\r5"}, {"my key": "x"}, {"a\nb": "x"}, {"": "x"},
         {"k = v": "x"}, {"note": "\udcff"}],
        ids=["newline-value", "return-value", "space-key", "newline-key", "empty-key", "equals-key",
             "surrogate-value"],
    )
    def test_misread_metadata_leaves_no_file(self, tmp_path, metadata):
        # a value with a line break once gave a file the reader refused ("header
        # declares n=2 but file contains 3 records"); a key with a space was dropped;
        # a lone surrogate once raised UnicodeEncodeError and left an empty file
        for write in (lambda path: write_dataset(path, [0, 1], metadata=metadata),
                      lambda path: write_classification(path, [0], [-1.0], -1.0, 1, True, metadata)):
            path = tmp_path / "out.tsv"
            with pytest.raises(ValueError, match="metadata"):
                write(path)
            assert not path.exists()

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(metadata=st.dictionaries(
        st.one_of(st.from_regex(r"[A-Za-z0-9_.-]+", fullmatch=True), st.text(max_size=4)),
        st.text(st.characters(codec="utf-8"), max_size=12).filter(lambda v: v == v.strip()),
        max_size=3,
    ))
    def test_metadata_round_trip_or_no_file(self, tmp_path, metadata):
        path = tmp_path / "data.tsv"
        path.unlink(missing_ok=True)
        keys_ok = all(re.fullmatch(r"[A-Za-z0-9_.-]+", key) for key in metadata)
        if keys_ok and not any(re.search("[\n\r]", value) for value in metadata.values()):
            write_dataset(path, [0, 1], metadata=metadata)
            assert read_dataset(path).metadata == metadata
        else:
            with pytest.raises(ValueError):
                write_dataset(path, [0, 1], metadata=metadata)
            assert not path.exists()


def test_canonical_files_never_reach_the_line_parser(tmp_path, monkeypatch):
    # files in the writer's layout, as the benchmark and the CLI produce them,
    # must take the one-call path; this fails if they fall back
    def refuse(*args):
        raise AssertionError("line parser used on a canonical file")

    monkeypatch.setattr(dataio, "_parse_lines", refuse)
    values = [0, 1, 1, ID_MAX, 0]
    metadata = {"seed": "7", "tool_version": "0.1.0"}
    write_dataset(tmp_path / "u.tsv", values, metadata=metadata)
    write_dataset(tmp_path / "l.tsv", values, labels=[0, 0, 1, 2, 2], metadata=metadata)
    write_dataset(tmp_path / "empty.tsv", [], labels=[], metadata=metadata)
    assert outcome(tmp_path / "u.tsv") == ("unlabeled", np.int64, values, None, metadata)
    assert outcome(tmp_path / "l.tsv") == (
        "labeled", np.int64, values, (np.int64, [0, 0, 1, 2, 2]), metadata
    )
    assert outcome(tmp_path / "empty.tsv") == ("labeled", np.int64, [], (np.int64, []), metadata)
    # and so must hand-written files of the same characters in any layout
    # that the line parser reads
    for kind, body, expected in [
        ("unlabeled", "  3\n\n\t4 \n 5", [3, 4, 5]),
        ("unlabeled", f"\n\n007\n  {ID_MAX}\t\n\n", [7, ID_MAX]),
        ("unlabeled", f"000{ID_MAX}\n{'0' * 24}9\n", [ID_MAX, 9]),
        ("labeled", "\n 0 \t 5\n\n\t1  6 \n  \n2\t7", [5, 6, 7]),
        ("labeled", "  \t \n", []),
    ]:
        _write_raw(tmp_path / "hand.tsv", kind, body)
        assert outcome(tmp_path / "hand.tsv")[2] == expected


# Bodies that the one-call path must read exactly as the line parser does:
# the values read, or the line parser's message where it refuses the body.
_HAND_BUILT = [
    ("unlabeled", "0\n  # indented = 3\n1\n", "line 4: expected 1 field(s), got 4"),
    ("labeled", "\n0 1\n   \n\t\n1\t2\n\n", [1, 2]),
    ("labeled", " 0 \t 1\t\n\t2  3 \n", [1, 3]),
    ("unlabeled", "007\n+5\n1_000\n\u0663\n", "line 4: fields must be integers, got '+5'"),
    ("labeled", "0\x0c1\n", [1]),
    ("labeled", "0\t1\r\n1\t2\r\n", [1, 2]),
    ("labeled", "0\t1\n1\t2", [1, 2]),
    ("unlabeled", "0 1\n", "line 3: expected 1 field(s), got 2"),
    ("labeled", "0\n1\n", "line 3: expected 2 field(s), got 1"),
    ("labeled", "0 1\n2\n", "line 4: expected 2 field(s), got 1"),
    ("unlabeled", f"{ID_MAX}\n", [ID_MAX]),
    ("unlabeled", f"{2**63}\n", "line 3: ids must be non-negative and below 2^63"),
    ("unlabeled", "1" * 20 + "\n", "line 3: ids must be non-negative and below 2^63"),
    ("unlabeled", "", []),
    ("labeled", "\n \n", []),
    ("unlabeled", "007\n 00\t\n", [7, 0]),
    ("unlabeled", "1_000\n", "line 3: fields must be integers, got '1_000'"),
    ("labeled", "0 \u0663\n", "line 3: fields must be integers, got '0 \u0663'"),
    ("unlabeled", "\uff15\n", "line 3: fields must be integers, got '\uff15'"),
    ("labeled", "0 -0\n", "line 3: ids must be non-negative and below 2^63"),
    ("unlabeled", "0" * 24 + "9\n", [9]),
    ("unlabeled", f"000{ID_MAX}", [ID_MAX]),
    ("unlabeled", f"000{2**63}", "line 3: ids must be non-negative and below 2^63"),
    ("unlabeled", "1" + "0" * 40, "line 3: ids must be non-negative and below 2^63"),
    # an even id count, split 3 + 1 over two lines
    ("labeled", "0 1 2\n3\n", "line 3: expected 2 field(s), got 3"),
    ("labeled", "0\t1\n\n\n2 3", [1, 3]),
]

# ids of more digits than int() converts, leading zeros included
_OVERLONG = [
    ("unlabeled", "0" * 5000 + "5\n", [5]),
    ("unlabeled", "0\n" + "1" * 5000, "line 4: ids must be non-negative and below 2^63"),
    ("labeled", "0 -" + "0" * 5000 + "\n", "line 3: ids must be non-negative and below 2^63"),
]


def _write_raw(path, kind, body, n_off=0):
    """Write ``body`` under a v1 header declaring its record lines plus ``n_off``."""
    lines = body.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    n = sum(1 for line in lines if line.strip() and not line.startswith("#")) + n_off
    path.write_bytes(f"# pd-infer v1 {kind} n={n}\n# seed = 1\n{body}".encode())


@st.composite
def _bodies(draw, width):
    """Record bodies in the writer's character set, or (half the time) anywhere near it.

    The odd fields include strings that ``int()`` reads but the format refuses.
    """
    odd = draw(st.booleans())
    field = st.integers(0, ID_MAX).map(str)
    if odd:
        field = st.one_of(
            field,
            st.integers(0, 2**64).map(str),
            st.sampled_from(
                ["007", "+5", "1_000", "\u0663", "\uff15", "-3", "-0", "x", "1.0"]
            ),
        )
    separators = [" ", "\t", " \t "] + (["\x0c"] if odd else [])
    extra = ["", "   ", "\t"] + (["# later = 2", "  # indented = 3", "#", "\x0c"] if odd else [])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(extra)))
            continue
        count = draw(st.sampled_from([width] * 4 + [1, 2, 3])) if odd else width
        fields = [draw(field) for _ in range(count)]
        indent = draw(st.sampled_from(["", "", " ", "\t"]))
        trail = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(indent + draw(st.sampled_from(separators)).join(fields) + trail)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if lines and draw(st.booleans()) else "")


class TestFastPathMatchesLineParser:
    @pytest.mark.parametrize(("kind", "body", "expected"), _HAND_BUILT)
    def test_hand_built(self, tmp_path, kind, body, expected):
        self.check(tmp_path, kind, body, expected)

    @pytest.mark.parametrize(
        ("kind", "body", "expected"), _OVERLONG, ids=["zero-padded", "too-large", "negative-zero"]
    )
    def test_overlong(self, tmp_path, kind, body, expected):
        # the line parser once let int()'s ValueError escape as exit code 3
        self.check(tmp_path, kind, body, expected)

    @staticmethod
    def check(tmp_path, kind, body, expected):
        path = tmp_path / "data.tsv"
        _write_raw(path, kind, body)
        result = outcome(path)
        assert result == line_parser_outcome(path)
        if isinstance(expected, str):
            assert result == f"{path}: {expected}"
        else:
            assert result[2] == expected

    def test_comment_after_records_is_metadata(self, tmp_path):
        path = tmp_path / "data.tsv"
        _write_raw(path, "unlabeled", "0\n# later = 2\n1\n")
        assert outcome(path) == line_parser_outcome(path)
        assert read_dataset(path).metadata == {"seed": "1", "later": "2"}

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["labeled", "unlabeled"]), data=st.data())
    def test_property(self, tmp_path, kind, data):
        path = tmp_path / "data.tsv"
        body = data.draw(_bodies(2 if kind == "labeled" else 1))
        _write_raw(path, kind, body, n_off=data.draw(st.sampled_from([0, 0, 0, 1])))
        assert outcome(path) == line_parser_outcome(path)


class TestParseErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\n1\n")
        message = "line 1: expected '# pd-infer v1 labeled|unlabeled n=<N>' header, got '0'"
        with pytest.raises(DatasetFormatError, match=exactly(path, message)):
            read_dataset(path)

    def test_bad_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# pd-infer v1 unlabeled n=2\n0\n1 2\n")
        message = "line 3: expected 1 field(s), got 2"
        with pytest.raises(DatasetFormatError, match=exactly(path, message)):
            read_dataset(path)

    def test_non_integer_field_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# pd-infer v1 labeled n=1\n0\tx\n")
        message = "line 2: fields must be integers, got '0\\tx'"
        with pytest.raises(DatasetFormatError, match=exactly(path, message)):
            read_dataset(path)

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# pd-infer v1 unlabeled n=1\n-3\n")
        message = "line 2: ids must be non-negative and below 2^63"
        with pytest.raises(DatasetFormatError, match=exactly(path, message)):
            read_dataset(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# pd-infer v1 unlabeled n=3\n0\n1\n")
        message = "header declares n=3 but file contains 2 records"
        with pytest.raises(DatasetFormatError, match=exactly(path, message)):
            read_dataset(path)

    # the count takes ASCII digits only, as ids do, and any number of leading zeros
    @pytest.mark.parametrize(
        "count, message",
        [
            ("\u0663", "line 1: expected '# pd-infer v1 labeled|unlabeled n=<N>' header, "
                        "got '# pd-infer v1 unlabeled n=\u0663'"),
            ("\uff13", "line 1: expected '# pd-infer v1 labeled|unlabeled n=<N>' header, "
                        "got '# pd-infer v1 unlabeled n=\uff13'"),
            ("1" + "0" * 4999,
             "header declares n=10000000000000000000... (5000 digits) but file contains 3 records"),
            ("0" * 5000 + "4", "header declares n=4 but file contains 3 records"),
        ],
        ids=["arabic-indic-digit", "fullwidth-digit", "5000-digits", "zero-padded-mismatch"],
    )
    def test_header_count_refused(self, tmp_path, count, message):
        path = tmp_path / "bad.tsv"
        path.write_text(f"# pd-infer v1 unlabeled n={count}\n0\n1\n0\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=exactly(path, message)):
            read_dataset(path)

    # the whole line is read, but a line past 40 characters is echoed by its head and length
    @pytest.mark.parametrize(
        "line, shown",
        [
            ("x" * 40, repr("x" * 40)),
            ("x" * 41, f"{'x' * 40!r}... (41 characters)"),
            ("# pd-infer v2 unlabeled n=" + "3" * 10**6,
             "'# pd-infer v2 unlabeled n=33333333333333'... (1000026 characters)"),
        ],
        ids=["40-characters", "41-characters", "million-characters"],
    )
    def test_long_first_line_echoed_by_its_head(self, tmp_path, line, shown):
        path = tmp_path / "bad.tsv"
        path.write_text(f"{line}\n0\n")
        message = f"line 1: expected '# pd-infer v1 labeled|unlabeled n=<N>' header, got {shown}"
        with pytest.raises(DatasetFormatError, match=exactly(path, message)):
            read_dataset(path)

    @pytest.mark.parametrize("count", ["0" * 5000 + "3", "003", "3"],
                             ids=["5000-leading-zeros", "two-leading-zeros", "no-leading-zero"])
    def test_header_count_with_leading_zeros(self, tmp_path, count):
        path = tmp_path / "data.tsv"
        path.write_text(f"# pd-infer v1 unlabeled n={count}\n0\n1\n0\n")
        assert read_dataset(path).values.tolist() == [0, 1, 0]


class TestClassificationWriter:
    def test_format(self, tmp_path):
        path = tmp_path / "result.tsv"
        write_classification(
            path,
            labeling=np.array([2, 0]),
            per_item_log=np.array([-1.5, -0.25]),
            log_score=-1.75,
            sweeps=3,
            converged=True,
            metadata={"mode": "simultaneous"},
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "# pd-infer v1 classification n=2"
        assert "# mode = simultaneous" in lines
        assert lines[-3] == "# total_log_score = -1.75"
        assert lines[-2] == "# sweeps = 3"
        assert lines[-1] == "# converged = true"
        records = [line for line in lines if not line.startswith("#")]
        assert records[0].split("\t")[:2] == ["0", "2"]
        assert records[1].split("\t")[:2] == ["1", "0"]

    def test_bad_sweeps_leaves_no_file(self, tmp_path):
        path = tmp_path / "result.tsv"
        with pytest.raises(ValueError, match="sweeps"):
            write_classification(path, np.array([0]), np.array([-1.0]), -1.0, 1.5, True)
        assert not path.exists()

    @pytest.mark.parametrize(
        ("labeling", "per_item_log", "message"),
        [
            # a file of 2 rows under a header declaring n=3
            ([0, 1, 1], [-1.0, -2.0], "one entry per label"),
            ([[0, 1], [1, 0]], [-1.0, -2.0], "1-d"),
            ([0], -1.0, "one entry per label"),
        ],
        ids=["short-log", "2d-labeling", "scalar-log"],
    )
    def test_bad_shapes_leave_no_file(self, tmp_path, labeling, per_item_log, message):
        path = tmp_path / "result.tsv"
        with pytest.raises(ValueError, match=message):
            write_classification(path, np.array(labeling), np.array(per_item_log), -1.0, 1, True)
        assert not path.exists()

    def test_memory(self, tmp_path):
        # the rows are formatted a slice of the arrays at a time, never held
        # as one list of lines or numbers: the peak is one batch
        n = 200_000
        labeling = np.arange(n) % 3
        per_item_log = -np.linspace(0.5, 5.0, n)
        path = tmp_path / "result.tsv"
        peak = traced_peak(lambda: write_classification(path, labeling, per_item_log, -1.0, 2, True))
        assert peak < 24 * n
