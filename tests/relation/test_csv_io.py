"""Tests for CSV reading/writing."""

import csv
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import trace
from repro.relation import (
    Relation,
    SchemaError,
    csv_io,
    read_csv,
    read_csv_text,
    write_csv,
)
from repro.relation import encoded as storage
from repro.relation.encoded import STORAGE_MODES, use_storage


class TestRead:
    def test_basic(self):
        rel = read_csv_text("a,b\n1,2\n3,4\n")
        assert rel.column_names == ("a", "b")
        assert rel.column("a") == ("1", "3")

    def test_empty_fields_become_null(self):
        rel = read_csv_text("a,b\n1,\n,2\n")
        assert rel.column("a") == ("1", None)
        assert rel.column("b") == (None, "2")

    def test_custom_null_values(self):
        rel = read_csv_text("a\nNA\nx\n", null_values={"NA", ""})
        assert rel.column("a") == (None, "x")

    def test_bare_string_null_value_is_one_marker(self):
        # Regression: null_values="NA" used to be iterated as a string,
        # silently nulling every field equal to 'N' or 'A' instead of
        # matching the marker "NA" itself.
        rel = read_csv_text("a\nNA\nN\nA\nx\n", null_values="NA")
        assert rel.column("a") == (None, "N", "A", "x")

    def test_no_header(self):
        rel = read_csv_text("1,2\n3,4\n", has_header=False)
        assert rel.column_names == ("column_0", "column_1")
        assert rel.n_rows == 2

    def test_delimiter(self):
        rel = read_csv_text("a;b\n1;2\n", delimiter=";")
        assert rel.column("b") == ("2",)

    def test_header_only(self):
        rel = read_csv_text("a,b\n")
        assert rel.n_rows == 0

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaError):
            read_csv_text("")

    def test_ragged_line_rejected(self):
        with pytest.raises(SchemaError) as excinfo:
            read_csv_text("a,b\n1,2\n3\n")
        assert "line 3" in str(excinfo.value)

    def test_quoted_fields(self):
        rel = read_csv_text('a,b\n"x,y",2\n')
        assert rel.column("a") == ("x,y",)

    def test_from_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        rel = read_csv(path)
        assert rel.name == "data"
        assert rel.n_rows == 1

    def test_utf8_bom_stripped_from_header(self, tmp_path):
        # Excel exports prepend a UTF-8 BOM; it must not leak into the
        # first column name (a "﻿a" column silently breaks every
        # by-name lookup downstream).
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        rel = read_csv(path)
        assert rel.column_names == ("a", "b")
        assert rel.column("a") == ("1",)


class TestWrite:
    def test_roundtrip(self, tmp_path):
        rel = Relation.from_rows(["a", "b"], [("1", "x"), ("2", None)])
        path = tmp_path / "out.csv"
        write_csv(rel, path)
        back = read_csv(path)
        assert back.column("a") == ("1", "2")
        assert back.column("b") == ("x", None)

    def test_write_to_handle(self):
        rel = Relation.from_rows(["a"], [("v",)])
        buffer = io.StringIO()
        write_csv(rel, buffer)
        assert buffer.getvalue().strip().splitlines() == ["a", "v"]

    def test_custom_null_repr(self):
        rel = Relation.from_rows(["a"], [(None,)])
        buffer = io.StringIO()
        write_csv(rel, buffer, null_repr="NULL")
        assert "NULL" in buffer.getvalue()

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abc,\" \n", max_size=5).map(lambda s: s or None),
                st.text(alphabet="xyz;'", max_size=5).map(lambda s: s or None),
            ),
            max_size=8,
        )
    )
    def test_roundtrip_property(self, rows):
        rel = Relation.from_rows(["c0", "c1"], rows)
        buffer = io.StringIO()
        write_csv(rel, buffer)
        buffer.seek(0)
        back = read_csv(buffer, name="roundtrip")
        assert list(back.iter_rows()) == list(rel.iter_rows())


class _CountingLines:
    """Line iterator that records how many lines were pulled from it."""

    def __init__(self, lines):
        self._iterator = iter(lines)
        self.consumed = 0

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._iterator)
        self.consumed += 1
        return line


class TestStreaming:
    """read_csv must decode incrementally, not materialize the raw rows."""

    def test_stops_at_ragged_line_without_reading_the_rest(self):
        lines = ["a,b\n", "1,2\n", "3\n"] + ["4,5\n"] * 500
        source = _CountingLines(lines)
        with pytest.raises(SchemaError, match="line 3"):
            read_csv(source, name="broken")
        assert source.consumed <= 5, (
            "a ragged line early in the file must abort the read before "
            f"the whole input is pulled (consumed {source.consumed} lines)"
        )

    def test_streamed_read_matches_eager_semantics(self):
        text = "a,b\nx,\n,y\nx,y\n"
        rel = read_csv(io.StringIO(text), name="t")
        assert rel.column_names == ("a", "b")
        assert rel.column("a") == ("x", None, "x")
        assert rel.column("b") == (None, "y", "y")

    def test_streamed_no_header_decodes_first_line(self):
        rel = read_csv(io.StringIO("1,\n2,3\n"), has_header=False)
        assert rel.column_names == ("column_0", "column_1")
        assert rel.column("column_0") == ("1", "2")
        assert rel.column("column_1") == (None, "3")


class TestLineNumbers:
    def test_error_names_the_physical_line_after_an_embedded_newline(self):
        # The quoted field spans lines 2-3, so the short record "3" sits
        # on physical line 4 although it is the third record.
        with pytest.raises(SchemaError, match="line 4: expected 2 fields, found 1"):
            read_csv_text('a,b\n"x\ny",1\n3\n')

    def test_error_names_the_line_where_a_multiline_record_ends(self):
        with pytest.raises(SchemaError, match="line 3: expected 2 fields, found 1"):
            read_csv_text('a,b\n"x\ny"\n')


class TestBlankLines:
    """Blank lines at the end of the input are ignored; a blank line
    followed by more data is an error located at the blank line."""

    @pytest.mark.parametrize(
        "text, has_header, clean",
        [
            ("a,b\n1,2\n\n", True, "a,b\n1,2\n"),
            ("a,b\n1,2\n\n\n", True, "a,b\n1,2\n"),
            ("a,b\n1,2\n\r\n", True, "a,b\n1,2\n"),
            ("a,b\n\n", True, "a,b\n"),
            ("1,2\n3,4\n\n", False, "1,2\n3,4\n"),
        ],
    )
    def test_trailing_blank_lines_are_ignored(self, text, has_header, clean):
        rel = read_csv_text(text, has_header=has_header)
        expected = read_csv_text(clean, has_header=has_header)
        assert rel.n_rows == expected.n_rows
        assert rel.fingerprint() == expected.fingerprint()

    @pytest.mark.parametrize(
        "text, has_header, line",
        [
            ("a,b\n1,2\n\n3,4\n", True, 3),
            ("a,b\n1,2\n\n\n3,4\n", True, 3),  # the first blank line
            ("a,b\n\n3\n", True, 2),  # before the later ragged record
            ("1,2\n\n3,4\n", False, 2),
        ],
    )
    def test_blank_line_followed_by_data_is_located(self, text, has_header, line):
        with pytest.raises(
            SchemaError, match=f"line {line}: expected 2 fields, found 0"
        ):
            read_csv_text(text, has_header=has_header)


B = csv_io._BLOCK_ROWS
ROW_COUNTS = (0, 1, B - 1, B, B + 1, 3 * B + 7)


def _cells(n_rows):
    """Deterministic rows mixing a key, low- and mid-cardinality columns,
    both NULL markers, quoted delimiters, quotes and embedded newlines."""
    rows = []
    for i in range(n_rows):
        rows.append(
            (
                f"k{i}",
                ("", "NA", "x", "y,z")[i % 4],
                f'line {i % 37}\nnext "{i % 5}"',
                "" if i % 11 == 0 else str(i % 97),
            )
        )
    return rows


def _csv_text(rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["key", "markers", "multiline", "sparse"])
    writer.writerows(rows)
    return buffer.getvalue()


def _reference(text, nulls):
    """csv.reader -> NULL-mapped rows -> Relation.from_rows."""
    header, *rows = list(csv.reader(io.StringIO(text)))
    mapped = [[None if field in nulls else field for field in row] for row in rows]
    return Relation.from_rows(header, mapped, name="relation")


def _assert_same_relation(actual, expected):
    assert actual.column_names == expected.column_names
    assert actual.n_rows == expected.n_rows
    for index in range(expected.n_columns):
        mine, theirs = actual.encoding(index), expected.encoding(index)
        assert list(mine.codes) == list(theirs.codes)
        assert mine.dictionary == theirs.dictionary
        assert mine.dictionary.count(None) <= 1
    assert actual.fingerprint() == expected.fingerprint()


class TestBlockBoundaries:
    """The block-columnar read against a row-at-a-time reference, at row
    counts on both sides of the block size, in both storage modes."""

    @pytest.mark.parametrize("mode", STORAGE_MODES)
    @pytest.mark.parametrize("nulls", [{""}, {"", "NA"}], ids=["one", "two"])
    @pytest.mark.parametrize("n_rows", ROW_COUNTS)
    def test_matches_row_reference(self, n_rows, nulls, mode, tmp_path, monkeypatch):
        monkeypatch.setenv(storage.SPILL_DIR_ENV, str(tmp_path))
        text = _csv_text(_cells(n_rows))
        with use_storage(mode):
            actual = read_csv_text(text, null_values=nulls)
            expected = _reference(text, nulls)
        _assert_same_relation(actual, expected)
        if n_rows > 1:  # rows 0 and 1 hold the two markers
            markers = actual.encoding("markers").dictionary
            assert markers.count(None) == 1
            assert ("NA" in markers) == ("NA" not in nulls)

    @pytest.mark.parametrize("mode", STORAGE_MODES)
    @pytest.mark.parametrize(
        "splits",
        [(B - 1,), (B,), (B + 1,), (1, B + 1, 2 * B + 3), (B - 1, B + 2, 3 * B)],
        ids=str,
    )
    def test_prefix_read_plus_appends_equals_whole_read(
        self, splits, mode, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(storage.SPILL_DIR_ENV, str(tmp_path))
        nulls = {"", "NA"}
        rows = _cells(3 * B + 7)
        mapped = [
            tuple(None if field in nulls else field for field in row) for row in rows
        ]
        bounds = (*splits, len(rows))
        with use_storage(mode):
            whole = read_csv_text(_csv_text(rows), null_values=nulls)
            grown = read_csv_text(_csv_text(rows[: bounds[0]]), null_values=nulls)
            for start, stop in zip(bounds, bounds[1:]):
                grown.append_rows(mapped[start:stop])
        _assert_same_relation(grown, whole)


class TestReadSpan:
    def test_read_and_append_are_traced_as_storage_reads(self):
        tracer = trace.enable()
        try:
            with use_storage("encoded"):
                relation = read_csv_text("a,b\n1,2\n3,4\n")
            relation.append_rows([("5", "6")])
        finally:
            trace.disable()
        ends = [e for e in tracer.events if e["type"] == "end"]
        assert [e["name"] for e in ends] == ["storage.read", "storage.read"]
        assert [e["attrs"] for e in ends] == [
            {"storage": "encoded", "rows": 2, "columns": 2},
            {"storage": "encoded", "rows": 1, "columns": 2},
        ]
        assert trace.validate_events(tracer.events) == len(tracer.events)

    def test_span_is_a_no_op_with_tracing_off(self):
        tracer = trace.enable()
        trace.disable()
        relation = read_csv_text("a\n1\n")
        relation.append_rows([("2",)])
        assert relation.n_rows == 2
        assert tracer.events == [] and tracer.counters == {}
