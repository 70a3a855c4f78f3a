"""Result container shared by all profiling algorithms.

A profiling run produces three result sets (INDs, UCCs, FDs) plus the
bookkeeping that the paper's evaluation reports: wall-clock time per phase
and check counters.  Algorithms construct results from bitmask-level
output through :meth:`ProfilingResult.from_masks`, which also canonicalizes
ordering so result sets compare reproducibly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from ..relation.columnset import bits
from .fd import FD
from .ind import IND
from .ucc import UCC

__all__ = ["ProfilingResult", "fd_signature", "ucc_signature"]


def fd_signature(fds: Iterable[FD]) -> frozenset[tuple[frozenset[str], str]]:
    """Order-insensitive signature of an FD set (for comparisons/tests)."""
    return frozenset((frozenset(fd.lhs), fd.rhs) for fd in fds)


def ucc_signature(uccs: Iterable[UCC]) -> frozenset[frozenset[str]]:
    """Order-insensitive signature of a UCC set."""
    return frozenset(frozenset(u.columns) for u in uccs)


@dataclass(slots=True)
class ProfilingResult:
    """Joint output of one profiling run over one relation."""

    relation_name: str
    column_names: tuple[str, ...]
    inds: list[IND] = field(default_factory=list)
    uccs: list[UCC] = field(default_factory=list)
    fds: list[FD] = field(default_factory=list)
    #: Wall-clock seconds per named phase (e.g. ``"spider"``, ``"ducc"``).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Algorithm counters (PLI intersections, FD checks, ...).
    counters: dict[str, int] = field(default_factory=dict)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_masks(
        cls,
        relation_name: str,
        column_names: Sequence[str],
        ind_pairs: Iterable[tuple[int, int]] = (),
        ucc_masks: Iterable[int] = (),
        fd_pairs: Iterable[tuple[int, int]] = (),
        phase_seconds: Mapping[str, float] | None = None,
        counters: Mapping[str, int] | None = None,
    ) -> "ProfilingResult":
        """Build a result from index-level output.

        ``ind_pairs`` are ``(dependent, referenced)`` column indexes,
        ``ucc_masks`` are column bitmasks, and ``fd_pairs`` are
        ``(lhs_mask, rhs_index)`` pairs.
        """
        names = tuple(column_names)
        inds = sorted(
            IND(names[dep], names[ref]) for dep, ref in ind_pairs
        )
        uccs = sorted(
            UCC(tuple(names[i] for i in bits(mask))) for mask in ucc_masks
        )
        fds = sorted(
            FD(tuple(names[i] for i in bits(lhs)), names[rhs])
            for lhs, rhs in fd_pairs
        )
        return cls(
            relation_name=relation_name,
            column_names=names,
            inds=inds,
            uccs=uccs,
            fds=fds,
            phase_seconds=dict(phase_seconds or {}),
            counters=dict(counters or {}),
        )

    # -- views ---------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded phase durations."""
        return sum(self.phase_seconds.values())

    def fd_map(self) -> dict[frozenset[str], set[str]]:
        """Group FDs by left-hand side: ``{lhs: {rhs, ...}}`` (X → Y form)."""
        grouped: dict[frozenset[str], set[str]] = {}
        for fd in self.fds:
            grouped.setdefault(frozenset(fd.lhs), set()).add(fd.rhs)
        return grouped

    def same_metadata(self, other: "ProfilingResult") -> bool:
        """True iff both results describe identical INDs, UCCs, and FDs."""
        return (
            set(self.inds) == set(other.inds)
            and ucc_signature(self.uccs) == ucc_signature(other.uccs)
            and fd_signature(self.fds) == fd_signature(other.fds)
        )

    def no_ucc_reason(self) -> str:
        """Why a complete profile lists no minimal UCC.

        With at least one column the full column set is a UCC unless two
        rows agree on every column, so only two causes remain: a relation
        without columns, or duplicate rows (which survive only when
        deduplication was turned off, e.g. ``--keep-duplicates``).
        """
        if not self.column_names:
            return "the relation has no columns"
        return "the relation has duplicate rows"

    def summary(self) -> str:
        """One-line count summary, the shape Fig. 7's secondary axis uses."""
        return (
            f"{self.relation_name}: {len(self.inds)} INDs, "
            f"{len(self.uccs)} UCCs, {len(self.fds)} FDs "
            f"in {self.total_seconds:.3f}s"
        )

    def __repr__(self) -> str:
        return f"ProfilingResult({self.summary()})"
