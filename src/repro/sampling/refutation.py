"""Queryable violation evidence harvested from a row sample.

A :class:`RefutationIndex` is the sample-local analogue of the PLI
substrate: per-column value vectors restricted to the sampled rows, plus
memoized sample *groupings* per column mask (the agree-sets of the
sample, stripped to size ≥ 2 like a PLI).  Against it,

* an FD candidate ``X → A`` is **refuted** when some sample group of
  ``X`` is not value-constant in ``A`` (two sampled rows agree on ``X``
  but differ on ``A`` — a difference-set witness),
* a UCC candidate ``X`` is **refuted** when the sample grouping of ``X``
  is non-empty (a sampled duplicate on ``X``).

Both answers are *sound*: sampled rows are relation rows, so a witness in
the sample is a witness in the relation.  The converse does not hold — a
candidate the sample cannot refute may still be invalid — which is why
the planner forwards survivors to the exact PLI path.  Groupings are
derived with :meth:`repro.pli.index.RelationIndex.pli`'s rule: refine the
memoized direct-subset grouping with the fewest grouped positions, and
peel the lowest column off only when no direct subset is memoized.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..relation.columnset import bit, iter_bits, lowest_bit

__all__ = ["RefutationIndex"]


class RefutationIndex:
    """Sample-local groupings with FD/UCC refutation queries.

    Parameters
    ----------
    rows:
        Sampled row ids (ascending; as produced by
        :func:`~repro.sampling.harvester.focused_sample`).
    vectors:
        The relation's full per-column dense value vectors (borrowed from
        the owning :class:`~repro.pli.index.RelationIndex`); only the
        sampled positions are copied out.
    """

    __slots__ = ("rows", "n_columns", "_svectors", "_groups", "_grouped")

    def __init__(self, rows: Sequence[int], vectors: Sequence[Sequence[int]]):
        self.rows: tuple[int, ...] = tuple(rows)
        self.n_columns = len(vectors)
        self._svectors: list[list[int]] = [
            [vector[row] for row in self.rows] for vector in vectors
        ]
        self._groups: dict[int, tuple[tuple[int, ...], ...]] = {}
        #: Grouped positions per memoized mask (the derivation's cost key).
        self._grouped: dict[int, int] = {}

    @property
    def n_rows(self) -> int:
        """Number of sampled rows."""
        return len(self.rows)

    def groups(self, mask: int) -> tuple[tuple[int, ...], ...]:
        """Stripped sample grouping of a non-empty column mask (memoized).

        Positions index into :attr:`rows`; only groups of size ≥ 2 are
        kept (singleton sample rows witness nothing, exactly like
        stripped PLI clusters).
        """
        if mask == 0:
            raise ValueError("the empty column combination has no grouping")
        cached = self._groups.get(mask)
        if cached is not None:
            return cached
        grouped = self._grouped
        cheapest: int | None = None
        for column in iter_bits(mask):
            size = grouped.get(mask ^ bit(column))
            if size is not None and (cheapest is None or size < cheapest):
                cheapest, low = size, column
        if cheapest is None:
            low = lowest_bit(mask)
        rest = mask ^ bit(low)
        svector = self._svectors[low]
        if rest == 0:
            buckets: dict[int, list[int]] = {}
            for position, value in enumerate(svector):
                buckets.setdefault(value, []).append(position)
            result = tuple(
                tuple(group) for group in buckets.values() if len(group) >= 2
            )
        else:
            refined: list[tuple[int, ...]] = []
            for group in self.groups(rest):
                buckets = {}
                for position in group:
                    buckets.setdefault(svector[position], []).append(position)
                for sub in buckets.values():
                    if len(sub) >= 2:
                        refined.append(tuple(sub))
            result = tuple(refined)
        self._groups[mask] = result
        grouped[mask] = sum(map(len, result))
        return result

    def refutes_ucc(self, mask: int) -> bool:
        """True iff the sample holds a duplicate on ``mask`` — an exact
        witness that ``mask`` is not unique."""
        if mask == 0:
            return len(self.rows) >= 2
        return bool(self.groups(mask))

    def refutes_fd(self, lhs_mask: int, rhs_index: int) -> bool:
        """True iff two sampled rows agree on ``lhs_mask`` but differ on
        ``rhs_index`` — an exact witness that the FD does not hold."""
        if lhs_mask >> rhs_index & 1:
            return False  # trivial FDs always hold
        svector = self._svectors[rhs_index]
        if lhs_mask == 0:
            # An empty lhs holds only for constant columns; two distinct
            # sampled values refute it.
            return any(value != svector[0] for value in svector)
        for group in self.groups(lhs_mask):
            first = svector[group[0]]
            for position in group[1:]:
                if svector[position] != first:
                    return True
        return False

    def refuted_rhs(self, lhs_mask: int, rhs_mask: int) -> int:
        """Bitmask of ``rhs_mask`` columns refuted as rhs of ``lhs_mask``.

        Equivalent to or-ing :meth:`refutes_fd` over every rhs bit, but
        walks the sample groups once for the whole candidate set — the
        query shape of level-wise solvers, which refute all right-hand
        sides of a lattice node together.  Columns inside ``lhs_mask``
        (trivial FDs) are never refuted.
        """
        live = rhs_mask & ~lhs_mask
        if not live:
            return 0
        vectors = self._svectors
        refuted = 0
        if lhs_mask == 0:
            for rhs in iter_bits(live):
                svector = vectors[rhs]
                first = svector[0] if svector else None
                if any(value != first for value in svector):
                    refuted |= bit(rhs)
            return refuted
        pending = [(rhs, vectors[rhs]) for rhs in iter_bits(live)]
        for group in self.groups(lhs_mask):
            first = group[0]
            rest = group[1:]
            survivors = []
            for rhs, svector in pending:
                head = svector[first]
                for position in rest:
                    if svector[position] != head:
                        refuted |= bit(rhs)
                        break
                else:
                    survivors.append((rhs, svector))
            pending = survivors
            if not pending:
                break
        return refuted

    def __repr__(self) -> str:
        return (
            f"RefutationIndex({self.n_rows} sampled rows x "
            f"{self.n_columns} columns, {len(self._groups)} cached groupings)"
        )
