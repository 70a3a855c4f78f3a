"""Column-oriented relation over dictionary-encoded columns.

The profiling algorithms operate on a single relation instance.  Values are
arbitrary hashable Python objects; ``None`` denotes SQL NULL.  The relation
is column-oriented because every algorithm in this package consumes whole
columns (to build position list indexes or sorted distinct-value lists), not
whole rows.  Every column is an
:class:`~repro.relation.encoded.EncodedColumn` — a first-seen dictionary
plus one integer code per row — built when the relation is: ``read_csv``
encodes blocks of rows column by column, and the constructor encodes any
plain sequence in the armed storage mode.  Encoding merges values that
compare equal, so a column may not hold two values that are equal under
``==`` but fingerprint differently (``1``/``1.0``/``True``,
``0.0``/``-0.0``); such a column is a :class:`SchemaError`.

The paper assumes the input is duplicate-free (§3): a relation with two
identical rows has no UCC at all and most inter-task pruning rules would not
apply.  :meth:`Relation.deduplicated` implements that preprocessing step.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from .. import trace as _trace
from .encoded import SPILL_CHUNK_CODES, EncodedColumn, encode_column

Value = Any

__all__ = ["Relation", "SchemaError"]


class SchemaError(ValueError):
    """Raised for malformed schemas or ragged data."""


#: Type tags for :meth:`Relation.fingerprint` value encoding.  ``bool``
#: must precede ``int`` (it is a subclass) so True/1 get distinct tags.
_VALUE_TAGS: tuple[tuple[type, bytes], ...] = (
    (bool, b"\x00b"),
    (int, b"\x00i"),
    (float, b"\x00f"),
    (str, b"\x00s"),
)


def _value_token(value: Value) -> bytes:
    """Stable, process-independent byte encoding of one cell value.

    Every token is length-prefixed so values containing the tag bytes
    cannot recreate another value sequence's byte stream (no ambiguity
    between ``["a\\x00sb"]`` and ``["a", "b"]``).
    """
    if type(value) is str:  # every CSV field: the fast path
        payload = value.encode("utf-8", "surrogatepass")
        return b"\x00s%d:%b" % (len(payload), payload)
    if value is None:
        return b"\x00n0:"
    for kind, tag in _VALUE_TAGS:
        if type(value) is kind:
            payload = (
                value.encode("utf-8", "surrogatepass")
                if kind is str
                else repr(value).encode()
            )
            return tag + str(len(payload)).encode() + b":" + payload
    # Fallback for exotic hashables: type name + repr.  repr must be
    # deterministic for the fingerprint to be stable; the built-in scalar
    # types every loader in this package produces are all covered above.
    payload = type(value).__name__.encode() + b":" + repr(value).encode()
    return b"\x00o" + str(len(payload)).encode() + b":" + payload


#: Types whose equal values always share a fingerprint token.
_EXACT_TYPES = frozenset({str, int, bool})


def _reject_merged_values(
    name: str, values: Sequence[Value], known: EncodedColumn | None = None
) -> None:
    """Refuse values that encoding would merge but fingerprinting tells apart.

    Encoding groups values by ``==``, fingerprints tokenize them by type
    and ``repr``; a column holding ``1`` and ``1.0`` (or ``0.0`` and
    ``-0.0``) would decode to one of them and hash as the other.  Checks
    ``values`` against each other and against ``known``'s dictionary (an
    append batch).  CSV fields are ``str``/``None`` and never collide.
    """
    if known is None:
        kinds = set(map(type, values))
        kinds.discard(type(None))
        if len(kinds) <= 1 and kinds <= _EXACT_TYPES:
            return
        positions: dict[Value, int] = {}
        dictionary: Sequence[Value] = ()
    else:
        positions = known.positions()
        dictionary = known.dictionary
    fresh: dict[Value, Value] = {}
    for value in values:
        code = positions.get(value)
        if code is None:
            first = fresh.setdefault(value, value)
        else:
            first = dictionary[code]
        kind = type(value)
        if first is value or (type(first) is kind and kind in _EXACT_TYPES):
            continue
        if _value_token(first) != _value_token(value):
            raise SchemaError(
                f"column {name!r} holds {first!r} and {value!r}, which "
                "compare equal but are different values"
            )


def _encode(name: str, values: Sequence[Value]) -> EncodedColumn:
    """Encode one plain column in the armed storage mode."""
    _reject_merged_values(name, values)
    column = encode_column(values)
    _trace.count("storage.encoded_columns")
    _trace.count("storage.dictionary_entries", len(column.dictionary))
    return column


#: Domain separator of the fingerprint format.  v2 hashes each column
#: into its own SHA-256 digest and combines the per-column digests — the
#: shape that lets ``read_csv`` fold fingerprinting into its read (one
#: hasher per column, advanced a block of rows at a time) while the
#: post-hoc path walks whole columns; both hash one token per cell in row
#: order, hence identical bytes per column and identical fingerprints.
_FINGERPRINT_DOMAIN = b"repro-relation-v2\x00"


def _column_hasher(name: str) -> "hashlib._Hash":
    """Fresh per-column fingerprint hasher, seeded with the column name."""
    digest = hashlib.sha256()
    encoded = name.encode("utf-8", "surrogatepass")
    digest.update(b"\x00c" + str(len(encoded)).encode() + b":" + encoded)
    return digest


def _hash_codes(
    digest: "hashlib._Hash", codes: Sequence[int], tokens: Sequence[bytes]
) -> None:
    """Advance a column digest by one token per code, in one ``update``.

    ``tokens[code]`` is the :func:`_value_token` of dictionary entry
    ``code`` (a list over the dictionary, or a dict over the codes at
    hand), so each distinct value is tokenized once rather than once per
    cell.  The bytes are those of tokenizing every cell in row order,
    which is what keeps the v2 fingerprint unchanged.
    """
    digest.update(b"".join(map(tokens.__getitem__, codes)))


def _combine_column_digests(
    n_columns: int, n_rows: int, digests: Iterable[bytes]
) -> str:
    """Fold per-column digests plus the dimensions into the fingerprint."""
    final = hashlib.sha256()
    final.update(_FINGERPRINT_DOMAIN)
    final.update(f"{n_columns}x{n_rows}".encode())
    for digest in digests:
        final.update(digest)
    return final.hexdigest()


class Relation:
    """An immutable, column-oriented table.

    Parameters
    ----------
    column_names:
        Unique names, one per column.
    columns:
        One sequence of values per column, encoded in the armed storage
        mode, or an :class:`~repro.relation.encoded.EncodedColumn`, which
        the relation then owns as-is; all must share the same length.
    name:
        Optional label used in reports (defaults to ``"relation"``).
    """

    __slots__ = (
        "_names",
        "_columns",
        "_n_rows",
        "_name",
        "_positions",
        "_fingerprint",
        "_hashers",
        "_parent_fingerprint",
    )

    def __init__(
        self,
        column_names: Sequence[str],
        columns: Sequence[Sequence[Value]],
        name: str = "relation",
    ):
        names = tuple(str(n) for n in column_names)
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names!r}")
        if len(columns) != len(names):
            raise SchemaError(
                f"{len(names)} column names but {len(columns)} columns of data"
            )
        cols = [
            col if isinstance(col, (EncodedColumn, tuple, list)) else tuple(col)
            for col in columns
        ]
        lengths = {len(col) for col in cols}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self._names = names
        self._columns: tuple[EncodedColumn, ...] = tuple(
            col if isinstance(col, EncodedColumn) else _encode(name, col)
            for name, col in zip(names, cols)
        )
        self._n_rows = lengths.pop() if lengths else 0
        self._name = name
        self._positions = {n: i for i, n in enumerate(names)}
        self._fingerprint: str | None = None
        # Live per-column fingerprint hashers (v2 is a running digest per
        # column, so appends can advance it instead of re-hashing from row
        # 0).  ``read_csv`` hands over its streaming hashers; in-memory
        # relations rebuild them lazily on the first append.
        self._hashers: list["hashlib._Hash"] | None = None
        self._parent_fingerprint: str | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        column_names: Sequence[str],
        rows: Iterable[Sequence[Value]],
        name: str = "relation",
    ) -> "Relation":
        """Build a relation from an iterable of rows."""
        materialized = [tuple(row) for row in rows]
        width = len(column_names)
        for i, row in enumerate(materialized):
            if len(row) != width:
                raise SchemaError(
                    f"row {i} has {len(row)} values, expected {width}"
                )
        columns = (
            [list(col) for col in zip(*materialized)]
            if materialized
            else [[] for _ in range(width)]
        )
        return cls(column_names, columns, name=name)

    @classmethod
    def from_dict(
        cls, columns: dict[str, Sequence[Value]], name: str = "relation"
    ) -> "Relation":
        """Build a relation from a ``{name: values}`` mapping."""
        return cls(list(columns), list(columns.values()), name=name)

    # -- basic accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        """Label of this relation."""
        return self._name

    @property
    def column_names(self) -> tuple[str, ...]:
        """Names of all columns, in schema order."""
        return self._names

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._names)

    def column(self, key: int | str) -> EncodedColumn:
        """Return one column (a tuple-like view of its values), addressed
        by index or name."""
        return self._columns[self.column_index(key)]

    def column_index(self, key: int | str) -> int:
        """Resolve a column name (or pass through an index)."""
        if isinstance(key, str):
            try:
                return self._positions[key]
            except KeyError:
                raise KeyError(f"unknown column {key!r}") from None
        if not 0 <= key < len(self._names):
            raise IndexError(f"column index {key} out of range")
        return key

    def encoding(self, key: int | str) -> EncodedColumn:
        """This column's dictionary encoding (codes plus dictionary), the
        form the PLI substrate reads."""
        return self._columns[self.column_index(key)]

    def row(self, index: int) -> tuple[Value, ...]:
        """Materialize row ``index`` as a tuple."""
        return tuple(col[index] for col in self._columns)

    def iter_rows(self) -> Iterator[tuple[Value, ...]]:
        """Iterate over all rows as tuples."""
        return zip(*self._columns) if self._columns else iter(())

    # -- content addressing ------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of this relation: hex SHA-256 over schema + rows.

        The fingerprint is *content-addressed*: it covers the column names
        (in schema order) and every cell value, but not :attr:`name` — two
        relations with identical schema and data share a fingerprint no
        matter what they are called, which is what lets a result cache
        recognize an already-profiled input.  Values are streamed column
        by column through the hash (no materialized row tuples), each
        encoded with a type tag so ``1``, ``1.0``, ``"1"``, and ``True``
        never collide.  Computed once and cached on the instance (the
        relation is immutable).
        """
        if self._fingerprint is None:
            self._fingerprint = _combine_column_digests(
                len(self._names),
                self._n_rows,
                (digest.digest() for digest in self._ensure_hashers()),
            )
        return self._fingerprint

    @property
    def parent_fingerprint(self) -> str | None:
        """Fingerprint of the relation before its most recent append.

        ``None`` for relations that were never appended to.  Together with
        :meth:`fingerprint` this forms the verifiable chain
        ``fingerprint(old) ⊕ batch → fingerprint(new)`` that the result
        cache records as entry lineage.
        """
        return self._parent_fingerprint

    # -- appends -----------------------------------------------------------

    def _ensure_hashers(self) -> list["hashlib._Hash"]:
        """Per-column running digests matching the bytes hashed so far.

        Building them costs one pass over the codes — a token per
        dictionary entry, joined per chunk of codes, which is the byte
        sequence of tokenizing every cell.  Relations built by
        ``read_csv`` never pay it because the reader donates its streaming hashers.  ``digest()``
        does not consume a hasher, so :meth:`append_rows` advances them
        at O(batch).
        """
        hashers = self._hashers
        if hashers is not None:
            return hashers
        hashers = []
        for name, column in zip(self._names, self._columns):
            digest = _column_hasher(name)
            tokens = list(map(_value_token, column.dictionary))
            codes = column.codes
            for start in range(0, len(codes), SPILL_CHUNK_CODES):
                _hash_codes(digest, codes[start : start + SPILL_CHUNK_CODES], tokens)
            hashers.append(digest)
        self._hashers = hashers
        return hashers

    def append_rows(self, rows: Iterable[Sequence[Value]]) -> int:
        """Append a batch of rows in place; returns the number appended.

        Columns grow their code arrays (and dictionaries) in place —
        including the mmap spill files of out-of-core columns.  A batch
        value that compares equal to a different kept value (``1`` vs
        ``1.0``) raises :class:`SchemaError` before anything changes.
        The cached v2 fingerprint is
        *advanced* by hashing only the batch — one token per distinct
        batch value, joined in row order — through the retained
        per-column hashers, so appending is O(batch), and the
        resulting fingerprint is byte-identical to hashing the combined
        relation from scratch.  The pre-append fingerprint is kept as
        :attr:`parent_fingerprint`.

        This is the one sanctioned mutation of a relation: any previously
        taken ``hash()``, row count, or derived index refers to the
        pre-append content (the PLI layer maintains its structures through
        :meth:`repro.pli.store.PliStore.append_rows`).
        """
        materialized = [tuple(row) for row in rows]
        width = len(self._names)
        for i, row in enumerate(materialized):
            if len(row) != width:
                raise SchemaError(
                    f"appended row {i} has {len(row)} values, expected {width}"
                )
        if not materialized:
            return 0
        storage = self._columns[0].storage if self._columns else "encoded"
        with _trace.span(
            "storage.read", rows=len(materialized), columns=width, storage=storage
        ):
            batch_columns = list(zip(*materialized))
            for name, column, batch in zip(self._names, self._columns, batch_columns):
                _reject_merged_values(name, batch, known=column)
            parent = self.fingerprint()
            hashers = self._ensure_hashers()
            for column, batch, digest in zip(self._columns, batch_columns, hashers):
                codes = column.append_values(batch)
                dictionary = column.dictionary
                tokens = {code: _value_token(dictionary[code]) for code in set(codes)}
                _hash_codes(digest, codes, tokens)
        self._n_rows += len(materialized)
        self._parent_fingerprint = parent
        self._fingerprint = _combine_column_digests(
            width, self._n_rows, (digest.digest() for digest in hashers)
        )
        return len(materialized)

    # -- transformations ---------------------------------------------------

    # Derived relations copy their columns: ``append_rows`` grows columns
    # in place, which must never show through a projection or prefix.

    def project(self, keys: Sequence[int | str], name: str | None = None) -> "Relation":
        """Return a new relation containing only the given columns."""
        indexes = [self.column_index(k) for k in keys]
        return Relation(
            [self._names[i] for i in indexes],
            [self._columns[i].copy() for i in indexes],
            name=name or self._name,
        )

    def head(self, n_rows: int, name: str | None = None) -> "Relation":
        """Return a new relation containing only the first ``n_rows`` rows."""
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        return Relation(
            self._names,
            [col.head(n_rows) for col in self._columns],
            name=name or self._name,
        )

    def deduplicated(self, name: str | None = None) -> "Relation":
        """Drop duplicate rows, keeping first occurrences (paper §3).

        The holistic algorithms assume a duplicate-free input; a relation
        with two identical rows has no UCC at all.
        """
        seen: set[tuple[int, ...]] = set()
        keep: list[int] = []
        for index, row in enumerate(self._code_rows()):
            if row not in seen:
                seen.add(row)
                keep.append(index)
        if len(keep) == self._n_rows:
            return self
        # The row where a value first occurs duplicates no earlier row
        # (none holds that value), so it is kept: the kept codes stay
        # first-seen ordered over the unchanged dictionaries.
        return Relation(
            self._names,
            [col.take(keep) for col in self._columns],
            name=name or self._name,
        )

    def has_duplicate_rows(self) -> bool:
        """True iff at least two rows are identical."""
        seen: set[tuple[int, ...]] = set()
        for row in self._code_rows():
            if row in seen:
                return True
            seen.add(row)
        return False

    def _code_rows(self) -> Iterator[tuple[int, ...]]:
        """Rows as code tuples: rows are equal iff their codes are
        (encoding is a per-column bijection), so no value decoding."""
        return zip(*(col.codes for col in self._columns))

    # -- dunder ------------------------------------------------------------

    def __getstate__(self):
        # Live hash objects cannot be pickled (worker processes receive
        # relations); drop them — the receiver rebuilds lazily on append.
        state = {slot: getattr(self, slot) for slot in Relation.__slots__}
        state["_hashers"] = None
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return self._names == other._names and self._columns == other._columns
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._names, self._columns))

    def __repr__(self) -> str:
        return (
            f"Relation({self._name!r}, {self.n_columns} columns x "
            f"{self._n_rows} rows)"
        )
