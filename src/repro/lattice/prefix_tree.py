"""Set of column combinations with subset/superset lookups (§5.4, Fig. 5).

MUDS performs two kinds of lookups against the set of minimal UCCs, both of
which degrade to linear scans with a plain list:

* **subset lookup** — all stored combinations that are subsets of a given
  column combination (used by the shadowed-FD pruning of Algorithm 3), and
* **superset lookup** — all stored combinations that are supersets of a
  given *connector* (the connector lookup of §5.1, Table 2).

The generic border search (:mod:`repro.lattice.search`) asks the same two
questions of its antichains tens of thousands of times per walk, mostly in
their early-exit forms.

The paper stores combinations as ascending column paths in a trie.  This
implementation deliberately diverges to DUCC's *pruning graph* view
(Bläsius, Friedrich and Schirneck): a containment query is a set test,
not a traversal.  Every stored combination occupies a *slot*, and each
column keeps a Python-int bitmap of the slots whose combination contains
it.  Then

* the stored subsets of ``mask`` are the live slots minus the bitmaps of
  every column outside ``mask``, and
* the stored supersets of ``mask`` are the AND of the bitmaps of the
  columns of ``mask``,

each a handful of big-int operations instead of a recursive descent.
Freed slots are reused (lowest first), so the bitmaps never grow past the
peak number of live entries.  Iteration keeps the trie's pre-order,
``sorted(masks, key=bits)``, which callers that feed it to seeded choices
rely on.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator

from ..relation.columnset import bits, iter_bits

__all__ = ["PrefixTree"]


class PrefixTree:
    """Set of column bitmasks with fast subset/superset retrieval."""

    __slots__ = ("_masks", "_slot_of", "_free", "_live", "_columns")

    def __init__(self, masks: Iterable[int] = ()):
        #: slot -> stored mask (0 marks a free slot).
        self._masks: list[int] = []
        #: stored mask -> its slot.
        self._slot_of: dict[int, int] = {}
        #: Free slots, a min-heap so reuse keeps the bitmaps short.
        self._free: list[int] = []
        #: Bitmap of the occupied slots.
        self._live = 0
        #: column -> bitmap of the slots whose mask contains the column.
        self._columns: list[int] = []
        for mask in masks:
            self.add(mask)

    def __len__(self) -> int:
        return len(self._slot_of)

    def __iter__(self) -> Iterator[int]:
        # The trie's pre-order: ascending column paths, prefixes first.
        return iter(sorted(self._slot_of, key=bits))

    def __contains__(self, mask: int) -> bool:
        return mask in self._slot_of

    def add(self, mask: int) -> None:
        """Insert a column combination (idempotent)."""
        if mask == 0:
            raise ValueError("cannot store the empty column combination")
        if mask in self._slot_of:
            return
        if self._free:
            slot = heapq.heappop(self._free)
            self._masks[slot] = mask
        else:
            slot = len(self._masks)
            self._masks.append(mask)
        self._slot_of[mask] = slot
        flag = 1 << slot
        self._live |= flag
        columns = self._columns
        missing = mask.bit_length() - len(columns)
        if missing > 0:
            columns.extend([0] * missing)
        for column in iter_bits(mask):
            columns[column] |= flag

    def remove(self, mask: int) -> bool:
        """Remove a combination; returns False if it was not stored."""
        slot = self._slot_of.pop(mask, None)
        if slot is None:
            return False
        self._masks[slot] = 0
        flag = 1 << slot
        self._live ^= flag
        columns = self._columns
        for column in iter_bits(mask):
            columns[column] ^= flag
        heapq.heappush(self._free, slot)
        return True

    # -- slot bitmaps ------------------------------------------------------------

    def _subset_slots(self, mask: int) -> int:
        """Slots of the stored subsets of ``mask``: every live slot that
        no column outside ``mask`` claims."""
        found = self._live
        columns = self._columns
        outside = ((1 << len(columns)) - 1) & ~mask
        while outside and found:
            low = outside & -outside
            found &= ~columns[low.bit_length() - 1]
            outside ^= low
        return found

    def _superset_slots(self, mask: int) -> int:
        """Slots of the stored supersets of ``mask``: the slots every
        column of ``mask`` claims."""
        columns = self._columns
        if mask.bit_length() > len(columns):
            return 0  # a column no stored mask contains
        found = self._live
        while mask and found:
            low = mask & -mask
            found &= columns[low.bit_length() - 1]
            mask ^= low
        return found

    def _decode(self, slots: int) -> list[int]:
        masks = self._masks
        found: list[int] = []
        while slots:
            low = slots & -slots
            found.append(masks[low.bit_length() - 1])
            slots ^= low
        return found

    # -- subset lookup ---------------------------------------------------------

    def subsets_of(self, mask: int) -> list[int]:
        """All stored combinations that are subsets of ``mask`` (in slot
        order; callers treat the result as a set)."""
        return self._decode(self._subset_slots(mask))

    def contains_subset_of(self, mask: int) -> bool:
        """True iff some stored combination is a subset of ``mask``.

        The dominant check of the shadowed-FD phase (a lhs containing a
        UCC cannot be minimal) and of the border search's positive prune.
        """
        return self._subset_slots(mask) != 0

    # -- superset lookup ---------------------------------------------------------

    def supersets_of(self, mask: int) -> list[int]:
        """All stored combinations that are supersets of ``mask`` (the
        connector lookup of §5.1; in slot order)."""
        return self._decode(self._superset_slots(mask))

    def has_superset_of(self, mask: int) -> bool:
        """True iff some stored combination is a superset of ``mask``.

        MUDS uses it for the rule-1 filter (an FD whose lhs ∪ rhs fits
        inside one minimal UCC cannot exist) and for key pruning; the
        border search for its negative prune.
        """
        return self._superset_slots(mask) != 0

    def __repr__(self) -> str:
        return f"PrefixTree({len(self)} combinations)"
