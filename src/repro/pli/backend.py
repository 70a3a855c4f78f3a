"""Selectable PLI kernel backends: pure-Python vs NumPy-vectorized.

The three kernel operations (:meth:`PLI.intersect`, :meth:`PLI.refines`,
uniqueness via the stripped-cluster form) dominate every discovery
algorithm's runtime, so the kernel supports swapping the *implementation*
of those operations while keeping the canonical stripped-cluster
representation — sorted tuples of sorted row ids — as the single source
of truth for equality, hashing, and serialization.  Whatever backend
computes an intersection, the resulting :class:`~repro.pli.pli.PLI` is
bit-identical; the differential suite pins this.

Two backends exist:

* ``python`` — the zero-dependency seed kernel: memoized flat-list probe
  vectors, per-row bucket grouping, early-aborting refinement scans.
  Always available.
* ``numpy`` — vectorized grouping: clustered rows, cluster sizes, and
  probe vectors are memoized as ``int64`` arrays; intersection sorts
  composite ``(small-cluster, large-cluster)`` keys with a stable radix
  sort and splits group boundaries in C, refinement checks per-cluster
  value constancy with ``minimum``/``maximum.reduceat``.  Available only
  when NumPy is importable — the package keeps its zero-dependency
  promise by falling back to ``python`` otherwise.

Backend selection is **process-global** (like :data:`~repro.pli.pli.KERNEL_STATS`
and the trace/guard actives): the kernel operations read :data:`ACTIVE`
at call time.  Select with ``set_backend``/``use_backend``, the
``$REPRO_PLI_BACKEND`` environment variable (read at import), the CLI's
``--pli-backend`` flag, or the ``pli_backend`` parameters plumbed through
:class:`~repro.pli.store.PliStore`,
:func:`~repro.harness.framework.default_framework`,
:func:`~repro.core.profiler.profile`, and the parallel sweep layer (each
worker re-arms the parent's backend before executing its point).

Per-call counter accounting differs between backends only where the
algorithmics force it (documented on each method); the differential
suite therefore compares counters modulo backend, but clusters and
discovered metadata exactly.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Sequence

if TYPE_CHECKING:  # real import lives in pli.py, which imports us
    from .pli import PLI, KernelStats

try:  # optional dependency: the numpy backend simply disappears without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

__all__ = [
    "ACTIVE",
    "ENV_VAR",
    "BackendUnavailable",
    "PythonBackend",
    "NumpyBackend",
    "available_backends",
    "numpy_available",
    "resolve_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable naming the default backend for the process.
ENV_VAR = "REPRO_PLI_BACKEND"


class BackendUnavailable(RuntimeError):
    """An explicitly requested backend cannot run in this environment."""


class PythonBackend:
    """The zero-dependency kernel (the seed implementation's hot loops)."""

    name = "python"

    def intersect(
        self, small: "PLI", large: "PLI", stats: "KernelStats"
    ) -> tuple[tuple[tuple[int, ...], ...], int, Any]:
        """Group ``small``'s clustered rows by their cluster id in
        ``large`` via the memoized probe vector and a flat bucket table
        (no hashing on the per-row path).

        Returns ``(canonical clusters, clustered rows, backend state)``;
        the python backend carries no per-PLI array state (``None``).
        """
        if not small.clusters or not large.clusters:
            # Trivially empty: nothing to group, so don't build (or count)
            # a probe vector for it — matching the numpy backend's
            # accounting on the same degenerate inputs.
            return (), 0, None
        probe = large.probe_vector()
        # Partner -1 (stripped in ``large``) lands in the one extra slot
        # at index -1 and is dropped during the sweep of touched slots.
        buckets: list[list[int] | None] = [None] * (len(large.clusters) + 1)
        result: list[tuple[int, ...]] = []
        append = result.append
        for cluster in small.clusters:
            touched: list[int] = []
            mark = touched.append
            for row in cluster:
                partner = probe[row]
                group = buckets[partner]
                if group is None:
                    buckets[partner] = [row]
                    mark(partner)
                else:
                    group.append(row)
            for partner in touched:
                group = buckets[partner]
                buckets[partner] = None
                if partner >= 0 and len(group) >= 2:
                    append(tuple(group))
        # Rows within a group ascend (cluster order); clusters are
        # disjoint, so ordering by first element is full canonical order.
        result.sort()
        return tuple(result), sum(map(len, result)), None

    def refines(
        self, pli: "PLI", vector: Sequence[int], stats: "KernelStats"
    ) -> tuple[bool, int]:
        """Early-aborting per-cluster value-constancy scan.

        Returns ``(holds, clusters scanned)``; a violation in the k-th
        cluster scans exactly k clusters (the abort position the kernel
        counters expose).
        """
        scanned = 0
        for cluster in pli.clusters:
            scanned += 1
            first = vector[cluster[0]]
            for row in cluster[1:]:
                if vector[row] != first:
                    return False, scanned
        return True, scanned

    def as_vector(self, vector: list[int]) -> Sequence[int]:
        """Native dense-vector representation (the flat list itself)."""
        return vector

    # -- dictionary-encoded column ingest -----------------------------------

    def vector_from_codes(self, column: Any) -> Sequence[int]:
        """Dense value vector of an encoded column.

        Codes are assigned in first-seen order, so the code array *is*
        the dense value vector :func:`~repro.pli.pli.value_vector` would
        compute over the values — no second grouping pass.  In-memory
        columns flatten to a list (the fast subscript the probe loops
        rely on); mmap-backed columns stay a memoryview to keep the
        bounded-memory property.
        """
        return column.python_vector()

    def column_pli_from_codes(
        self, column: Any, n_rows: int
    ) -> tuple[tuple[tuple[int, ...], ...], Any]:
        """Single-column PLI clusters from a code array.

        Grouping is a counting pass over dense ints — a list subscript
        per row instead of a per-value hash and equality.  Because codes
        are first-seen ordered, bucket order is first-occurrence order:
        clusters come out canonical (ascending min row, ascending rows
        within) with no sort.

        Returns ``(clusters, backend state)``; the python backend has no
        array state (``None``).
        """
        buckets: list[list[int] | None] = [None] * column.n_codes
        for row, code in enumerate(column.codes):
            group = buckets[code]
            if group is None:
                buckets[code] = [row]
            else:
                group.append(row)
        clusters = tuple(
            tuple(group)
            for group in buckets
            if group is not None and len(group) >= 2
        )
        return clusters, None


def _boxed_clusters(flat: Any, ends: Any) -> tuple[tuple[int, ...], ...]:
    """Box a flat canonical row array into per-cluster tuples.

    Many small clusters (the common lattice shape) box fastest through
    one bulk ``tolist()`` sliced per cluster.  A few huge clusters (low-
    cardinality columns, where nearly every row is clustered) take the
    per-cluster slice path instead: same tuples, but the row-sized
    pointer list never exists — on a 10M-row categorical column that
    intermediate alone is an ~80 MiB peak-RSS spike per PLI.
    """
    bounds = ends.tolist()
    clusters: list[tuple[int, ...]] = []
    append = clusters.append
    previous = 0
    if len(bounds) * 16 <= flat.size:
        for bound in bounds:
            append(tuple(flat[previous:bound].tolist()))
            previous = bound
    else:
        flat_list = flat.tolist()
        for bound in bounds:
            append(tuple(flat_list[previous:bound]))
            previous = bound
    return tuple(clusters)


class NumpyBackend:
    """Vectorized kernel over ``int64`` arrays.

    Each PLI lazily memoizes (in its ``_np`` slot) the flat array of its
    clustered rows in canonical order, the per-cluster sizes, and — on
    first use as the probed side — a dense per-row cluster-id array.
    Intersections produced by this backend seed the result's arrays
    directly, so chained lattice descents never re-encode the canonical
    tuples.
    """

    name = "numpy"

    def __init__(self) -> None:
        if _np is None:  # pragma: no cover - guarded by resolve_backend
            raise BackendUnavailable(
                "the numpy PLI backend needs numpy installed"
            )

    # -- per-PLI array state ----------------------------------------------

    @staticmethod
    def _arrays(pli: "PLI") -> list[Any]:
        """Memoized ``[rows, sizes, probe, cluster_ids]`` arrays of one
        PLI (``probe`` and ``cluster_ids`` stay ``None`` until first
        needed)."""
        state = pli._np
        if state is None:
            sizes = _np.fromiter(
                (len(c) for c in pli.clusters),
                dtype=_np.int64,
                count=len(pli.clusters),
            )
            rows = _np.fromiter(
                (row for cluster in pli.clusters for row in cluster),
                dtype=_np.int64,
                count=int(sizes.sum()),
            )
            state = [rows, sizes, None, None]
            pli._np = state
        return state

    @classmethod
    def _cluster_ids(cls, pli: "PLI") -> Any:
        """Per-clustered-row cluster ids (parallel to ``rows``), memoized:
        the scanned side of every intersection reuses one expansion."""
        state = cls._arrays(pli)
        if state[3] is None:
            state[3] = _np.repeat(
                _np.arange(state[1].size, dtype=_np.int64), state[1]
            )
        return state[3]

    def _probe(self, pli: "PLI", stats: "KernelStats") -> Any:
        """Dense per-row cluster ids (``-1`` marks stripped rows) as an
        array; built once and memoized, mirroring the python backend's
        probe-vector accounting (``probe_builds``/``probe_reuses``)."""
        from .. import trace as _trace

        state = self._arrays(pli)
        tracer = _trace.ACTIVE
        if state[2] is not None:
            stats.probe_reuses += 1
            if tracer is not None:
                tracer.count("pli.probe_reuses")
            return state[2]
        stats.probe_builds += 1
        if tracer is not None:
            tracer.count("pli.probe_builds")
        rows, sizes = state[0], state[1]
        probe = _np.full(pli.n_rows, -1, dtype=_np.int64)
        probe[rows] = _np.repeat(_np.arange(sizes.size, dtype=_np.int64), sizes)
        state[2] = probe
        return probe

    # -- kernel operations --------------------------------------------------

    def intersect(
        self, small: "PLI", large: "PLI", stats: "KernelStats"
    ) -> tuple[tuple[tuple[int, ...], ...], int, Any]:
        """Vectorized grouping by composite ``(small, large)`` cluster key.

        A stable integer sort (radix) orders the composite keys, group
        boundaries fall out of one shifted comparison, and the surviving
        groups are re-ordered by smallest row id — exactly the canonical
        form the python path produces, materialized once via C-level list
        slicing.
        """
        s_rows = self._arrays(small)[0]
        if s_rows.size == 0 or not large.clusters:
            return (), 0, None
        probe = self._probe(large, stats)
        partner = probe[s_rows]
        keep = partner >= 0
        if keep.all():
            # Every row of ``small`` lands in a ``large`` cluster (the
            # common case for correlated columns): no filtering gathers.
            rows = s_rows
            sid = self._cluster_ids(small)
        else:
            rows = s_rows[keep]
            if rows.size < 2:
                return (), 0, None
            sid = self._cluster_ids(small)[keep]
            partner = partner[keep]
        key = sid * len(large.clusters) + partner
        order = _np.argsort(key, kind="stable")
        key = key[order]
        rows = rows[order]
        boundary = _np.empty(key.size, dtype=bool)
        boundary[0] = True
        _np.not_equal(key[1:], key[:-1], out=boundary[1:])
        starts = _np.flatnonzero(boundary)
        sizes = _np.diff(_np.append(starts, key.size))
        survive = sizes >= 2
        if not survive.any():
            return (), 0, None
        starts = starts[survive]
        sizes = sizes[survive]
        # Canonical cluster order: by smallest row id.  Rows within a
        # group already ascend (the stable sort preserved each source
        # cluster's ascending order), so the group's first row is its
        # minimum, and groups are disjoint — a plain argsort of the first
        # rows is the full canonical order.
        canonical = _np.argsort(rows[starts], kind="stable")
        starts = starts[canonical]
        sizes = sizes[canonical]
        ends = _np.cumsum(sizes)
        offsets = ends - sizes
        positions = _np.repeat(starts - offsets, sizes) + _np.arange(
            int(ends[-1]), dtype=_np.int64
        )
        flat = rows[positions]
        clusters = _boxed_clusters(flat, ends)
        # Seed the result's array state: chained intersections (lattice
        # descent) reuse these instead of re-encoding the tuples.
        return clusters, int(ends[-1]), [flat, sizes, None, None]

    def refines(
        self, pli: "PLI", vector: Sequence[int], stats: "KernelStats"
    ) -> tuple[bool, int]:
        """Per-cluster value constancy via ``min == max`` group reductions.

        The whole check is one vectorized pass (no row-level early abort),
        but the *reported* scan position matches the python backend: a
        violation in the k-th canonical cluster charges k cluster scans.
        """
        state = self._arrays(pli)
        rows, sizes = state[0], state[1]
        if sizes.size == 0:
            return True, 0
        values = (
            vector
            if isinstance(vector, _np.ndarray)
            else _np.asarray(vector, dtype=_np.int64)
        )[rows]
        starts = _np.cumsum(sizes) - sizes
        mismatch = _np.minimum.reduceat(values, starts) != _np.maximum.reduceat(
            values, starts
        )
        if mismatch.any():
            return False, int(mismatch.argmax()) + 1
        return True, int(sizes.size)

    def as_vector(self, vector: list[int]) -> Sequence[int]:
        """Dense value vectors as ``int64`` arrays, so refinement probes
        gather without a per-call list conversion."""
        return _np.asarray(vector, dtype=_np.int64)

    # -- dictionary-encoded column ingest -----------------------------------

    def vector_from_codes(self, column: Any) -> Sequence[int]:
        """Zero-copy ``int32`` view over the column's code buffer.

        Works for both ``array('i')`` buffers and memory-mapped spill
        files — either way no per-value boxing or copying happens between
        the storage layer and the kernel.
        """
        return _np.frombuffer(column.code_buffer(), dtype=_np.int32)

    def column_pli_from_codes(
        self, column: Any, n_rows: int
    ) -> tuple[tuple[tuple[int, ...], ...], Any]:
        """Single-column PLI via a stable argsort of the code array.

        Sorting by code groups equal values contiguously; boundaries fall
        out of one shifted comparison.  Codes are first-seen ordered, so
        code order *is* ascending-min-row order and the stable sort keeps
        rows ascending within each group — the output is canonical with
        no extra reorder.  Returns the clusters plus seeded
        ``[rows, sizes, None, None]`` array state so the first lattice
        intersection never re-encodes the tuples.
        """
        codes = _np.frombuffer(column.code_buffer(), dtype=_np.int32)
        if codes.size == 0:
            return (), None
        order = _np.argsort(codes, kind="stable").astype(_np.int64, copy=False)
        key = codes[order]
        boundary = _np.empty(key.size, dtype=bool)
        boundary[0] = True
        _np.not_equal(key[1:], key[:-1], out=boundary[1:])
        starts = _np.flatnonzero(boundary)
        sizes = _np.diff(_np.append(starts, key.size))
        survive = sizes >= 2
        if not survive.any():
            return (), None
        starts = starts[survive]
        sizes = sizes[survive]
        ends = _np.cumsum(sizes)
        offsets = ends - sizes
        positions = _np.repeat(starts - offsets, sizes) + _np.arange(
            int(ends[-1]), dtype=_np.int64
        )
        flat = order[positions]
        clusters = _boxed_clusters(flat, ends)
        return clusters, [flat, sizes, None, None]


def numpy_available() -> bool:
    """True when the numpy backend can be constructed in this process."""
    return _np is not None


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`set_backend` in this environment."""
    return ("python", "numpy") if numpy_available() else ("python",)


def resolve_backend(choice: str | None) -> PythonBackend | NumpyBackend:
    """Construct the backend named ``choice`` (``None`` means ``python``).

    An explicit request for an unavailable or unknown backend raises
    :class:`BackendUnavailable` — silent fallback is reserved for the
    environment-variable path at import time, where crashing every run
    of a numpy-less container would break the zero-dependency promise.
    """
    name = (choice or "python").strip().lower()
    if name == "python":
        return PythonBackend()
    if name == "numpy":
        if not numpy_available():
            raise BackendUnavailable(
                "PLI backend 'numpy' requested but numpy is not installed; "
                "use the default 'python' backend or install numpy"
            )
        return NumpyBackend()
    raise BackendUnavailable(
        f"unknown PLI backend {choice!r}; available: {available_backends()}"
    )


def _from_environment() -> PythonBackend | NumpyBackend:
    """Import-time default: ``$REPRO_PLI_BACKEND`` or pure python.

    A value naming an unusable backend degrades to python with a warning
    instead of poisoning every import of the package.
    """
    choice = os.environ.get(ENV_VAR)
    if not choice:
        return PythonBackend()
    try:
        return resolve_backend(choice)
    except BackendUnavailable as error:
        warnings.warn(
            f"{ENV_VAR}={choice!r} ignored ({error}); "
            "falling back to the python PLI backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return PythonBackend()


#: The process-wide active kernel backend (read by PLI.intersect/refines
#: at call time; swap with set_backend/use_backend).
ACTIVE: PythonBackend | NumpyBackend = _from_environment()


def set_backend(choice: str | None) -> PythonBackend | NumpyBackend:
    """Arm a kernel backend process-wide and return it.

    ``None`` re-resolves the environment default.  Raises
    :class:`BackendUnavailable` for an explicit unusable choice, leaving
    the previously armed backend in place.
    """
    global ACTIVE
    backend = _from_environment() if choice is None else resolve_backend(choice)
    ACTIVE = backend
    return backend


@contextmanager
def use_backend(choice: str | None) -> Iterator[PythonBackend | NumpyBackend]:
    """Scoped backend selection (tests, the differential suite, and the
    :func:`~repro.core.profiler.profile` facade).  ``None`` keeps the
    currently armed backend — a no-op context."""
    global ACTIVE
    if choice is None:
        yield ACTIVE
        return
    previous = ACTIVE
    ACTIVE = resolve_backend(choice)
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous
