"""Dictionary-encoded columnar storage (with an out-of-core spill path).

The profiling substrate never needs the *values* of a column on its hot
path — it needs to know which rows share a value.  Every column of a
:class:`~repro.relation.relation.Relation` is therefore stored as

* a **dictionary**: the distinct values in first-seen order, and
* a dense **code array**: one ``int32`` per row, the row's value's index
  in the dictionary.

Codes are assigned in first-seen order, which makes them exactly the
dense value ids :func:`repro.pli.pli.value_vector` would produce — so an
encoded column *is* the probe vector of FD refinement checks, and its
single-column PLI falls out of one grouping pass over integer codes with
no per-value hashing or boxing at all
(:meth:`repro.pli.backend.PythonBackend.column_pli_from_codes` /
the NumPy backend's argsort grouping, which consumes the code buffer
zero-copy via ``np.frombuffer``).

Encoding happens when a relation is built: ``read_csv`` encodes a
block of rows per column at a time and hands the codes to a
:class:`ColumnEncoder` per column, and ``Relation`` encodes any plain
sequence it is handed.  Two **storage modes** decide where the code
arrays live, selected process-globally like the PLI kernel backend
(``--storage`` / ``$REPRO_STORAGE`` / :func:`set_storage` /
:func:`use_storage`):

* ``encoded`` — the default: code arrays live in ``array('i')`` buffers
  (stdlib only, the zero-dependency promise).
* ``mmap`` — the out-of-core mode: code arrays are spilled to
  memory-mapped files under a spill directory
  (``$REPRO_SPILL_DIR`` or the system temp dir), so the resident cost of
  a relation is its dictionaries plus a bounded chunk buffer — relations
  far larger than RAM profile without thrashing.  Spill files are
  process-private temporaries: each is created with an unpredictable
  name, unlinked by a finalizer when its column is garbage collected,
  and never reused across runs.

Spill-file writes trip the :data:`~repro.faults.STORAGE_SPILL` fault
point and are retried under the harness retry policy (transient I/O is
absorbed exactly like cache/checkpoint writes).

Exactness: encoding is a bijective re-labelling per column, so PLIs,
value vectors, and distinct-value lists derived from codes equal those a
grouping of the decoded values would produce — the differential suites
pin this against :func:`repro.pli.pli.pli_from_column` and run both
modes.
"""

from __future__ import annotations

import io
import mmap
import os
import tempfile
import weakref
from array import array
from contextlib import contextmanager
from itertools import islice
from typing import Any, Iterator, Sequence

from .. import trace as _trace
from ..faults import FAULTS, STORAGE_SPILL

__all__ = [
    "ACTIVE",
    "ENV_VAR",
    "SPILL_DIR_ENV",
    "STORAGE_MODES",
    "CODE_BYTES",
    "SPILL_CHUNK_CODES",
    "ColumnEncoder",
    "EncodedColumn",
    "StorageUnavailable",
    "active_storage",
    "encode_column",
    "encode_relation",
    "resolve_storage",
    "set_storage",
    "spill_directory",
    "use_storage",
]

#: Environment variable naming the default storage mode for the process.
ENV_VAR = "REPRO_STORAGE"
#: Environment variable overriding the spill directory for ``mmap`` mode.
SPILL_DIR_ENV = "REPRO_SPILL_DIR"

#: Valid storage modes, in "most" to "least resident" order.
STORAGE_MODES = ("encoded", "mmap")

#: Bytes per code: ``array('i')`` / little-endian ``int32`` on every
#: platform this package targets (dictionary sizes are bounded by the
#: row count, which is far below 2^31).
CODE_BYTES = 4

#: Codes buffered in memory per column before an ``mmap``-mode spill
#: flush; bounds the resident build cost of one column to
#: ``SPILL_CHUNK_CODES * CODE_BYTES`` bytes regardless of row count.
SPILL_CHUNK_CODES = 65_536


class StorageUnavailable(RuntimeError):
    """An explicitly requested storage mode cannot be used."""


def resolve_storage(choice: str | None) -> str:
    """Validate a storage-mode name (``None`` means ``encoded``)."""
    name = (choice or "encoded").strip().lower()
    if name not in STORAGE_MODES:
        raise StorageUnavailable(
            f"unknown storage mode {choice!r}; available: {STORAGE_MODES}"
        )
    return name


def _from_environment() -> str:
    """Import-time default: ``$REPRO_STORAGE`` or ``encoded``.

    Like the kernel backend's environment path, an unusable value warns
    and degrades instead of poisoning every import of the package.
    """
    choice = os.environ.get(ENV_VAR)
    if not choice:
        return "encoded"
    try:
        return resolve_storage(choice)
    except StorageUnavailable as error:
        import warnings

        warnings.warn(
            f"{ENV_VAR}={choice!r} ignored ({error}); "
            "falling back to the encoded storage mode",
            RuntimeWarning,
            stacklevel=2,
        )
        return "encoded"


#: The process-wide active storage mode (read at ingest time by
#: ``read_csv`` and ``Relation``).
ACTIVE: str = _from_environment()


def active_storage() -> str:
    """The storage mode currently armed for the process."""
    return ACTIVE


def set_storage(choice: str | None) -> str:
    """Arm a storage mode process-wide and return its name.

    ``None`` re-resolves the environment default.  Raises
    :class:`StorageUnavailable` for an unknown explicit choice, leaving
    the previously armed mode in place.
    """
    global ACTIVE
    mode = _from_environment() if choice is None else resolve_storage(choice)
    ACTIVE = mode
    return mode


@contextmanager
def use_storage(choice: str | None) -> Iterator[str]:
    """Scoped storage-mode selection (tests, the ``profile()`` facade).
    ``None`` keeps the currently armed mode — a no-op context."""
    global ACTIVE
    if choice is None:
        yield ACTIVE
        return
    previous = ACTIVE
    ACTIVE = resolve_storage(choice)
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous


def spill_directory(override: str | None = None) -> str:
    """Resolve the spill directory for ``mmap``-mode code files.

    Precedence: explicit ``override``, ``$REPRO_SPILL_DIR``, the system
    temp dir.  The directory is created if missing.
    """
    root = override or os.environ.get(SPILL_DIR_ENV) or tempfile.gettempdir()
    os.makedirs(root, exist_ok=True)
    return root


class EncodedColumn:
    """One dictionary-encoded column: dense codes plus a dictionary.

    Behaves like the tuple of values it encodes — ``len``, indexing,
    slicing, iteration, equality, and hashing all see decoded values —
    which is what :meth:`~repro.relation.relation.Relation.column`
    returns.  The profiling substrate bypasses the decoded view entirely
    and reads :attr:`codes` / :attr:`dictionary` directly.

    ``codes`` is an ``array('i')`` (``encoded`` mode) or a ``memoryview``
    over a memory-mapped spill file (``mmap`` mode); both subscript to
    plain ints.  Do not mutate either attribute.
    """

    __slots__ = (
        "codes",
        "dictionary",
        "storage",
        "spill_path",
        "_mmap",
        "_hash",
        "_finalizer",
        "_positions",
        "__weakref__",
    )

    def __init__(
        self,
        codes: "array | memoryview",
        dictionary: list[Any],
        storage: str = "encoded",
        spill_path: str | None = None,
        mapped: "mmap.mmap | None" = None,
    ):
        self.codes = codes
        self.dictionary = dictionary
        self.storage = storage
        self.spill_path = spill_path
        self._mmap = mapped
        self._hash: int | None = None
        self._positions: dict[Any, int] | None = None
        # Spill-file lifecycle: the file exists exactly as long as some
        # column reads it; collection closes the map and unlinks.
        if spill_path is not None:
            self._finalizer = weakref.finalize(
                self, _release_spill, mapped, spill_path
            )
        else:
            self._finalizer = None

    # -- substrate views ---------------------------------------------------

    @property
    def n_codes(self) -> int:
        """Distinct values (the dictionary size)."""
        return len(self.dictionary)

    def code_buffer(self) -> "array | memoryview":
        """The raw int32 code buffer (zero-copy input for
        ``np.frombuffer``)."""
        return self.codes

    def python_vector(self) -> Sequence[int]:
        """Dense value vector in the pure-python kernel's preferred form.

        In-memory codes convert to a flat list once (list subscripts do
        not box, the hot-loop property the kernel relies on); mmap-backed
        codes stay a memoryview so the resident footprint keeps its
        bound — the slower subscript is the price of out-of-core mode.
        """
        if self.storage == "mmap":
            return self.codes
        return self.codes.tolist()

    def positions(self) -> dict[Any, int]:
        """Value -> code map of the dictionary (built once, kept current
        by :meth:`append_values`)."""
        if self._positions is None:
            self._positions = {
                value: code for code, value in enumerate(self.dictionary)
            }
        return self._positions

    # -- derived columns -----------------------------------------------------

    def copy(self) -> "EncodedColumn":
        """An independent column with the same content: appending to
        either one never shows through the other."""
        return _column_from_codes(self.codes, list(self.dictionary), self.storage)

    def head(self, n_rows: int) -> "EncodedColumn":
        """The first ``n_rows`` rows.  A prefix keeps first-seen order, so
        its codes are exactly ``0 .. max`` and the dictionary is cut
        there."""
        codes = self.codes[:n_rows]
        kept = max(codes, default=-1) + 1
        return _column_from_codes(codes, self.dictionary[:kept], self.storage)

    def take(self, rows: Sequence[int]) -> "EncodedColumn":
        """The given ascending rows, which must include every value's
        first occurrence (a first-occurrence dedup does): the gathered
        codes then stay first-seen ordered over the full dictionary."""
        codes = self.codes
        gathered = array("i", [codes[row] for row in rows])
        return _column_from_codes(gathered, list(self.dictionary), self.storage)

    # -- appends -----------------------------------------------------------

    def append_values(self, values: Sequence[Any]) -> list[int]:
        """Append a batch of values in place; returns their codes.

        The dictionary grows with first-seen new values (so codes stay
        the dense first-seen ids the kernel relies on) and the code array
        is extended in place.  ``mmap`` columns append to their spill
        file and re-map it.  Previously exported buffer views keep seeing
        the pre-append codes; callers holding derived vectors refresh
        them through the PLI layer's append path.
        """
        positions = self.positions()
        known = len(positions)
        codes = [positions.setdefault(value, len(positions)) for value in values]
        if not codes:
            return codes
        if len(positions) > known:
            self.dictionary.extend(_newest_keys(positions, len(positions) - known))
        batch = array("i", codes)
        if self.storage == "mmap":
            self._append_spill(batch)
        else:
            try:
                self.codes.extend(batch)
            except BufferError:
                # A numpy view (np.frombuffer) pins the old buffer; swap
                # in a fresh extended array — the old one stays alive for
                # exactly as long as those views do.
                fresh = array("i", self.codes)
                fresh.extend(batch)
                self.codes = fresh
        self._hash = None
        return codes

    def _append_spill(self, batch: "array") -> None:
        """Append a code batch to the spill file and re-map it."""
        payload = batch.tobytes()

        def write() -> None:
            if FAULTS.armed:
                FAULTS.trip(STORAGE_SPILL)
            with open(self.spill_path, "ab") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())

        from ..harness.retry import RetryPolicy

        RetryPolicy().call(write, key=f"storage.spill:{self.spill_path}")
        _trace.count("storage.spilled_bytes", len(payload))
        # Re-map the grown file under the same path.  The old finalizer is
        # detached first so it cannot unlink the file we keep using; the
        # new one owns the (map, path) pair from here on.  Closing the old
        # map fails with BufferError while old memoryviews are alive — it
        # is then closed by its own deallocation once they go away.
        if self._finalizer is not None:
            self._finalizer.detach()
        old_map = self._mmap
        with open(self.spill_path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self.codes = memoryview(mapped).cast("i")
        self._mmap = mapped
        self._finalizer = weakref.finalize(
            self, _release_spill, mapped, self.spill_path
        )
        if old_map is not None:
            try:
                old_map.close()
            except (BufferError, ValueError):
                pass

    # -- decoded tuple-like face -------------------------------------------

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key: int | slice) -> Any:
        if isinstance(key, slice):
            dictionary = self.dictionary
            return tuple(dictionary[code] for code in self.codes[key])
        return self.dictionary[self.codes[key]]

    def __iter__(self) -> Iterator[Any]:
        return map(self.dictionary.__getitem__, self.codes)

    def count(self, value: Any) -> int:
        return tuple(self).count(value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EncodedColumn):
            if self.dictionary == other.dictionary:
                return _codes_equal(self.codes, other.codes)
            other = tuple(other)
        if isinstance(other, (tuple, list)):
            if len(other) != len(self.codes):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        # Must match the decoded tuple's hash: a column compares equal to
        # the tuple of its values, so both must be the same dict/set key.
        if self._hash is None:
            self._hash = hash(tuple(self))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"EncodedColumn({len(self.codes)} rows, "
            f"{len(self.dictionary)} distinct, storage={self.storage!r})"
        )

    # -- process boundary --------------------------------------------------

    def __reduce__(self):
        # mmap views cannot travel; rebuild as an in-memory encoded
        # column on the far side (same codes, same dictionary).
        return (
            _rebuild_encoded_column,
            (array("i", self.codes), self.dictionary),
        )


def _rebuild_encoded_column(codes: "array", dictionary: list[Any]) -> EncodedColumn:
    return EncodedColumn(codes, dictionary, storage="encoded")


def _codes_equal(left, right) -> bool:
    if len(left) != len(right):
        return False
    return bytes(left) == bytes(right)


def _release_spill(mapped: "mmap.mmap | None", path: str) -> None:
    """Finalizer: close the map and delete the spill file (best effort)."""
    try:
        if mapped is not None:
            mapped.close()
    except (BufferError, ValueError, OSError):  # pragma: no cover - teardown
        pass
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - already gone / dir vanished
        pass


class ColumnEncoder:
    """Streaming builder of one :class:`EncodedColumn` from code batches.

    The caller assigns the codes (first-seen order over a dictionary it
    keeps, as ``read_csv`` does one block of rows at a time) and hands
    each batch to :meth:`extend_codes`; :meth:`finish` seals the codes
    over the final dictionary.  In ``mmap`` mode codes collect in a
    bounded chunk buffer that is spilled to the column's temp file (a
    retry-absorbed, fault-injectable write) whenever it reaches
    :data:`SPILL_CHUNK_CODES`, so the resident build cost never scales
    with the row count.
    """

    __slots__ = (
        "storage",
        "_codes",
        "_chunk",
        "_spill_dir",
        "_path",
        "_handle",
    )

    def __init__(self, storage: str | None = None, spill_dir: str | None = None):
        self.storage = resolve_storage(storage) if storage is not None else ACTIVE
        self._spill_dir = spill_dir
        self._path: str | None = None
        self._handle: io.BufferedWriter | None = None
        if self.storage == "mmap":
            self._codes = None
            self._chunk = array("i")
        else:
            self._codes = array("i")
            self._chunk = None

    def extend_codes(self, codes: "array | memoryview") -> None:
        """Append a batch of int32 codes (an ``array('i')`` or a view of
        one).  ``mmap`` mode spills each time the chunk buffer fills."""
        chunk = self._chunk
        if chunk is None:
            self._codes.extend(codes)
            return
        for start in range(0, len(codes), SPILL_CHUNK_CODES):
            chunk.extend(codes[start : start + SPILL_CHUNK_CODES])
            if len(chunk) >= SPILL_CHUNK_CODES:
                self._flush()

    # -- spill path --------------------------------------------------------

    def _open_spill(self) -> None:
        handle, path = tempfile.mkstemp(
            prefix="repro-codes-", suffix=".i32", dir=spill_directory(self._spill_dir)
        )
        self._handle = os.fdopen(handle, "wb")
        self._path = path

    def _flush(self) -> None:
        """Spill the chunk buffer to the column's code file.

        The write trips the ``storage.spill`` fault point and runs under
        the bounded retry policy, so transient I/O (a briefly-full disk,
        an injected fault) is absorbed exactly like cache/checkpoint
        writes; permanent errors surface immediately.
        """
        if not self._chunk:
            return
        if self._handle is None:
            self._open_spill()
        # Written straight from the chunk buffer: a ``tobytes()`` copy
        # would double the resident chunk cost at every flush.
        payload = self._chunk

        def write() -> None:
            if FAULTS.armed:
                FAULTS.trip(STORAGE_SPILL)
            self._handle.write(payload)

        # Deferred import: the harness layer imports the relation layer,
        # so the reverse edge must not run at module import time.
        from ..harness.retry import RetryPolicy

        RetryPolicy().call(write, key=f"storage.spill:{self._path}")
        _trace.count("storage.spilled_bytes", len(payload) * CODE_BYTES)
        del self._chunk[:]

    def finish(self, dictionary: list[Any]) -> EncodedColumn:
        """Seal the codes over ``dictionary`` (which the column then
        owns) and return the :class:`EncodedColumn`."""
        if self.storage != "mmap":
            return EncodedColumn(self._codes, dictionary, storage="encoded")
        self._flush()
        if self._handle is None:
            # Zero rows: nothing was ever spilled; an empty mmap is
            # invalid, so degrade to an (empty) in-memory column.
            return EncodedColumn(array("i"), dictionary, storage="encoded")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = None
        with open(self._path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        codes = memoryview(mapped).cast("i")
        return EncodedColumn(
            codes,
            dictionary,
            storage="mmap",
            spill_path=self._path,
            mapped=mapped,
        )

    def abort(self) -> None:
        """Discard a half-built column (close and unlink any spill file)."""
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None
        if self._path is not None:
            try:
                os.unlink(self._path)
            except OSError:
                pass
            self._path = None


def _newest_keys(positions: dict[Any, int], count: int) -> list[Any]:
    """The ``count`` most recently inserted keys of ``positions``, oldest
    first: the values a batch added to a first-seen dictionary, found in
    O(count) instead of a walk over the whole dictionary."""
    keys = list(islice(reversed(positions), count))
    keys.reverse()
    return keys


def encode_column(
    values: Sequence[Any],
    storage: str | None = None,
    spill_dir: str | None = None,
) -> EncodedColumn:
    """Dictionary-encode one materialized column."""
    positions: dict[Any, int] = {}
    codes = array(
        "i", [positions.setdefault(value, len(positions)) for value in values]
    )
    column = _column_from_codes(codes, list(positions), storage, spill_dir)
    column._positions = positions
    return column


def _column_from_codes(
    codes: Sequence[int],
    dictionary: list[Any],
    storage: str | None = None,
    spill_dir: str | None = None,
) -> EncodedColumn:
    """Seal already-assigned codes over ``dictionary`` into a new column.

    The codes must be first-seen ordered over the dictionary (code ``k``
    first appears after codes ``0 .. k-1``); the caller hands over the
    dictionary list, which the new column then owns.
    """
    encoder = ColumnEncoder(storage=storage, spill_dir=spill_dir)
    try:
        encoder.extend_codes(codes)
        return encoder.finish(dictionary)
    except BaseException:
        encoder.abort()
        raise


def encode_relation(
    relation: "Any",
    storage: str | None = None,
    spill_dir: str | None = None,
) -> "Any":
    """Return ``relation`` unchanged.

    Every :class:`~repro.relation.relation.Relation` is encoded when it
    is built, so there is nothing left to attach; kept for callers that
    still spell out the step.
    """
    return relation
