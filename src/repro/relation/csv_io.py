"""CSV input/output for :class:`~repro.relation.relation.Relation`.

The Metanome framework (the paper's execution environment) feeds algorithms
from CSV files; this module is the equivalent file-input substrate.  Reading
is instrumented-friendly: :func:`read_csv` accepts an open text handle so the
harness can wrap it with a byte/row counter to account shared-I/O costs.

Empty fields (and any string listed in ``null_values``) are decoded to
``None``.  Values are kept as strings — type inference is irrelevant for
dependency discovery and would only blur NULL semantics.
"""

from __future__ import annotations

import csv
import io
from array import array
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TextIO

from .. import trace as _trace
from ..faults import CSV_READ, FAULTS
from . import encoded as _storage
from .encoded import ColumnEncoder, EncodedColumn, _newest_keys
from .relation import (
    Relation,
    SchemaError,
    _column_hasher,
    _combine_column_digests,
    _hash_codes,
    _value_token,
)

__all__ = ["read_csv", "write_csv", "read_csv_text"]

DEFAULT_NULLS = frozenset({""})

_NULL_TOKEN = _value_token(None)

#: Rows pulled from ``csv.reader`` per columnar block.  It bounds the raw
#: rows held at once: in ``mmap`` mode the block sits next to one spill
#: chunk per column, and 512 rows keep that read's traced peak below the
#: encoded code payload (``TestBoundedMemory``) where 1024 do not.
_BLOCK_ROWS = 512


class _BlockColumn:
    """One column of the block-columnar read.

    Keeps the column's first-seen ``positions`` (raw field -> code), the
    fingerprint token of every dictionary entry so far, the running v2
    digest, and the :class:`ColumnEncoder` that receives the codes.  The
    NULL marker ``null`` is a dictionary key like any other field; it
    becomes ``None`` in the finished dictionary and in its token.
    """

    __slots__ = ("positions", "tokens", "digest", "encoder", "null")

    def __init__(self, name: str, null: str | None):
        self.positions: dict[str, int] = {}
        self.tokens: list[bytes] = []
        self.digest = _column_hasher(name)
        self.encoder = ColumnEncoder()
        self.null = null

    def add(self, fields: Sequence[str]) -> None:
        """Encode and fingerprint one block of this column's fields."""
        positions = self.positions
        codes = [positions.setdefault(field, len(positions)) for field in fields]
        tokens = self.tokens
        known = len(tokens)
        if len(positions) > known:
            fresh = _newest_keys(positions, len(positions) - known)
            tokens.extend(map(_value_token, fresh))
            null_code = positions.get(self.null, -1)
            if null_code >= known:
                tokens[null_code] = _NULL_TOKEN
        _hash_codes(self.digest, codes, tokens)
        self.encoder.extend_codes(array("i", codes))

    def finish(self) -> EncodedColumn:
        """Seal the column; the NULL marker's entry becomes ``None``."""
        dictionary: list[str | None] = list(self.positions)
        if self.null in self.positions:
            dictionary[self.positions[self.null]] = None
        return self.encoder.finish(dictionary)


def read_csv(
    source: str | Path | TextIO,
    delimiter: str = ",",
    has_header: bool = True,
    null_values: Iterable[str] = DEFAULT_NULLS,
    name: str | None = None,
) -> Relation:
    """Read a CSV file (or open handle) into a :class:`Relation`.

    The read is a **single pass over blocks of rows** shared by two
    consumers (paper §3's "one shared I/O" argument, taken literally).
    Rows are pulled from ``csv.reader`` and width-checked one at a time;
    every few hundred rows the block is transposed and each column is
    (a) dictionary-encoded by one first-seen comprehension into the
    active storage mode's code arrays (``encoded`` or ``mmap``), and
    (b) fingerprinted: only the block's new dictionary entries are
    tokenized, and the block's tokens go through the column's v2 hasher
    in one update — the same bytes as hashing cell by cell, so
    :meth:`Relation.fingerprint` (the result-cache key) is already
    computed when the function returns.  In ``mmap`` mode the decoded
    objects are *not* materialized: codes spill to memory-mapped files
    and only the per-column dictionaries stay resident, so peak memory
    scales with distinct values, not rows.

    A record with the wrong number of fields raises :class:`SchemaError`
    naming the physical line where it ends, before the rest of the input
    is read.  Blank lines at the end of the input are ignored; a blank
    line followed by more data is a :class:`SchemaError` at the blank
    line.

    Parameters
    ----------
    source:
        Path to a CSV file, or an already-open text handle.
    delimiter:
        Field separator.
    has_header:
        When true, the first row provides column names; otherwise columns
        are named ``column_0 .. column_{n-1}``.
    null_values:
        Strings decoded as SQL NULL (``None``).  Defaults to the empty
        string only.  A bare string is treated as *one* marker
        (``null_values="NA"`` means ``{"NA"}``), not iterated into its
        characters.
    name:
        Relation label; defaults to the file stem (or ``"relation"``).
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        # utf-8-sig: a UTF-8 BOM (as written by Excel and many Windows
        # exports) is consumed instead of being glued onto the first
        # column name; BOM-less files decode identically.
        with path.open(newline="", encoding="utf-8-sig") as handle:
            return read_csv(
                handle,
                delimiter=delimiter,
                has_header=has_header,
                null_values=null_values,
                name=name or path.stem,
            )

    # A bare string is a single NULL marker, not an iterable of
    # characters — frozenset("NA") would silently null every 'N' and 'A'.
    if isinstance(null_values, str):
        null_values = (null_values,)
    nulls = frozenset(null_values)
    # Every NULL marker is encoded as one canonical marker (any of them
    # will do), so the dictionary holds a single None entry; with one
    # marker (the default) fields are encoded as they are read.
    null = next(iter(nulls), None)
    aliases = nulls - {null}
    reader = csv.reader(source, delimiter=delimiter)
    first = next(reader, None)
    if first is None:
        raise SchemaError("empty CSV input: no header and no data")

    block: list[list[str]] = []
    if has_header:
        header = first
    else:
        header = [f"column_{i}" for i in range(len(first))]
        block.append(first)
    width = len(header)

    with _trace.span("storage.read", storage=_storage.ACTIVE) as span:
        columns = [_BlockColumn(str(column_name), null) for column_name in header]

        def add_block(rows: list[list[str]]) -> None:
            for column, fields in zip(columns, zip(*rows)):
                if aliases:
                    fields = [null if field in aliases else field for field in fields]
                column.add(fields)

        n_rows = 0
        blank_line = 0  # first blank line not yet followed by data
        try:
            # Pull and check rows one at a time, so a ragged record aborts
            # the read before the rest of the input is pulled.
            for row in reader:
                if FAULTS.armed:
                    FAULTS.trip(CSV_READ)  # deterministic I/O-failure injection
                if len(row) != width or blank_line:
                    if not row:
                        blank_line = blank_line or reader.line_num
                        continue
                    raise SchemaError(
                        f"line {blank_line or reader.line_num}: expected "
                        f"{width} fields, found {0 if blank_line else len(row)}"
                    )
                block.append(row)
                if len(block) == _BLOCK_ROWS:
                    add_block(block)
                    n_rows += _BLOCK_ROWS
                    block = []
            add_block(block)
            n_rows += len(block)
            built = [column.finish() for column in columns]
        except BaseException:
            for column in columns:
                column.encoder.abort()
            raise
        span.set(rows=n_rows, columns=width)

    hashers = [column.digest for column in columns]
    relation = Relation(header, built, name=name or "relation")
    relation._fingerprint = _combine_column_digests(
        width, n_rows, (hasher.digest() for hasher in hashers)
    )
    # Donate the streaming hashers: append_rows advances them in O(batch)
    # instead of re-hashing the relation from row 0.
    relation._hashers = hashers
    return relation


def read_csv_text(
    text: str,
    delimiter: str = ",",
    has_header: bool = True,
    null_values: Iterable[str] = DEFAULT_NULLS,
    name: str = "relation",
) -> Relation:
    """Parse CSV content given as a string (convenience for tests/examples)."""
    return read_csv(
        io.StringIO(text),
        delimiter=delimiter,
        has_header=has_header,
        null_values=null_values,
        name=name,
    )


def write_csv(
    relation: Relation,
    destination: str | Path | TextIO,
    delimiter: str = ",",
    null_repr: str = "",
) -> None:
    """Write a relation as CSV; ``None`` is encoded as ``null_repr``."""
    if isinstance(destination, (str, Path)):
        with Path(destination).open("w", newline="", encoding="utf-8") as handle:
            write_csv(relation, handle, delimiter=delimiter, null_repr=null_repr)
        return

    writer = csv.writer(destination, delimiter=delimiter)
    writer.writerow(relation.column_names)
    for row in relation.iter_rows():
        writer.writerow([null_repr if v is None else v for v in row])
