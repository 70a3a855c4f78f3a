"""Generic DUCC-style random-walk border search (§2.2, §4.2, §5.2).

Both UCC discovery (DUCC) and MUDS' per-right-hand-side FD sub-lattice
traversal solve the same abstract problem: given a *monotone* predicate on
column combinations (supersets of a positive node are positive — true for
uniqueness and for FD validity with a fixed rhs), find the minimal positive
border.  The traversal strategy is the one the paper describes:

* start from random seeds on level 1,
* from a positive node step down to a random unvisited direct subset, from
  a negative node step up to a random unvisited direct superset,
* prune supersets of known positives and subsets of known negatives,
* when the walk exhausts, find "holes" left by the combined up/down
  pruning by comparing the found minimal positives with the minimal
  hitting sets of the complements of the found maximal negatives, and
  re-walk from any unresolved hole until both borders agree.

The pruning knowledge lives in two antichains — minimal known positives
and maximal known negatives — DUCC's "pruning graph", each stored as
per-column slot bitmaps (:class:`~repro.lattice.prefix_tree.PrefixTree`):
a containment query costs a few big-int operations instead of a scan
over the whole border, which is what keeps dense borders (thousands of
entries) tractable.

:class:`LatticeSearch` also accepts *prior knowledge* — positives and
negatives known from other profiling tasks — which is exactly the
inter-task pruning MUDS feeds into its R∖Z walks (§5.2).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable

from .. import checkpointing as _ckpt
from .. import trace as _trace
from ..guard import BudgetExceeded, checkpoint
from ..relation.columnset import direct_subsets, direct_supersets
from .hitting_set import minimal_hitting_sets
from .prefix_tree import PrefixTree

__all__ = ["LatticeSearch"]


class LatticeSearch:
    """Random-walk search for the minimal positive border of a monotone
    predicate over the subsets of ``universe``.

    Parameters
    ----------
    universe:
        Bitmask of the columns spanning the (sub-)lattice.
    predicate:
        Monotone membership test, called once per actually-checked node.
    rng:
        Random source for walk decisions (deterministic when seeded).
    known_positives / known_negatives:
        Prior knowledge injected before the walk; these nodes are never
        re-checked and prune their supersets/subsets immediately.  They
        must be *sound* (truly positive / negative) but need not be
        minimal/maximal.
    checkpoint_stage:
        When set and a checkpoint session is active, the walk saves a
        boundary under this stage name after every completed seed walk
        and hole round.  The antichains *are* the walk's complete
        knowledge, so a resumed search continues bit-identically: the
        restored RNG state replays the in-flight walk's choices and the
        restored knowledge base skips exactly the checks an undisturbed
        run would have skipped.
    """

    def __init__(
        self,
        universe: int,
        predicate: Callable[[int], bool],
        rng: random.Random | None = None,
        known_positives: Iterable[int] = (),
        known_negatives: Iterable[int] = (),
        checkpoint_stage: str | None = None,
    ):
        self.universe = universe
        self.predicate = predicate
        self.rng = rng or random.Random(0)
        self.checkpoint_stage = checkpoint_stage
        self.evaluations = 0
        self.hole_rounds = 0
        # Antichains of knowledge (the pruning graph): minimal known
        # positives and maximal known negatives.  The empty set is negative
        # by convention — level 0 is outside every search space in the
        # paper — and is kept implicit (the antichains store non-empty sets).
        self._pos = PrefixTree()
        self._neg = PrefixTree()
        for mask in known_positives:
            self._add_positive(mask)
        for mask in known_negatives:
            if mask:
                self._add_negative(mask)

    # -- knowledge base ---------------------------------------------------

    def _lookup(self, mask: int) -> bool | None:
        """Classification by pruning knowledge only (no predicate call)."""
        if mask == 0:
            return False
        if self._pos.contains_subset_of(mask):
            return True
        if self._neg.has_superset_of(mask):
            return False
        return None

    def _add_positive(self, mask: int) -> None:
        if self._pos.contains_subset_of(mask):
            return
        for dominated in self._pos.supersets_of(mask):
            self._pos.remove(dominated)
        self._pos.add(mask)

    def _add_negative(self, mask: int) -> None:
        if self._neg.has_superset_of(mask):
            return
        for dominated in self._neg.subsets_of(mask):
            self._neg.remove(dominated)
        self._neg.add(mask)

    def _classify(self, mask: int) -> bool:
        result = self._lookup(mask)
        if result is not None:
            return result
        self.evaluations += 1
        result = bool(self.predicate(mask))
        if result:
            self._add_positive(mask)
        else:
            self._add_negative(mask)
        return result

    # -- traversal ---------------------------------------------------------

    def _walk(self, start: int) -> None:
        path = [start]
        while path:
            checkpoint()
            current = path[-1]
            if self._classify(current):
                neighbors = [s for s in direct_subsets(current) if s != 0]
            else:
                neighbors = direct_supersets(current, self.universe)
            unknown = [n for n in neighbors if self._lookup(n) is None]
            if unknown:
                path.append(self.rng.choice(unknown))
            else:
                path.pop()

    def run(self) -> tuple[list[int], list[int]]:
        """Execute the search.

        Returns ``(minimal_positives, max_known_negatives)``.  The positive
        border is exact and complete; the negative border is the pruned
        antichain of everything observed or derived, which is what callers
        use for downstream pruning (it equals the true maximal-negative
        border whenever the walk had to chart the whole negative region).

        When the active execution budget runs out mid-walk, the raised
        :class:`~repro.guard.BudgetExceeded` carries ``partial`` — the
        ``(known_positives, known_negatives)`` antichains charted so far
        (sound but possibly non-minimal/non-maximal) — unless an inner
        layer already attached its own partial payload.
        """
        if self.universe == 0:
            return [], []
        ckpt = _ckpt.ACTIVE if self.checkpoint_stage is not None else None
        phase = "seeds"
        state = ckpt.resume(self.checkpoint_stage) if ckpt is not None else None
        if state is not None:
            # The antichains are the walk's complete knowledge; re-adding
            # them restores every prune the undisturbed run had made.
            for mask in state["positives"]:
                self._add_positive(mask)
            for mask in state["negatives"]:
                self._add_negative(mask)
            self.rng.setstate(_ckpt.rng_state_from_json(state["rng"]))
            self.evaluations = state["evaluations"]
            self.hole_rounds = state["hole_rounds"]
            phase = state["phase"]
            pending = list(state["pending_seeds"])
        else:
            pending = [
                1 << i
                for i in range(self.universe.bit_length())
                if self.universe >> i & 1
            ]
            self.rng.shuffle(pending)
        try:
            if phase == "seeds":
                evals_before = self.evaluations
                with _trace.span(
                    "search.seed_walks", seeds=len(pending)
                ) as walk_span:
                    while pending:
                        seed = pending.pop(0)
                        if self._lookup(seed) is None:
                            self._walk(seed)
                            if ckpt is not None:
                                ckpt.boundary(
                                    self.checkpoint_stage,
                                    self._snapshot("seeds", pending),
                                )
                    walk_span.set(validated=self.evaluations - evals_before)
                if ckpt is not None:
                    ckpt.boundary(
                        self.checkpoint_stage, self._snapshot("holes", [])
                    )
            while True:
                evals_before = self.evaluations
                with _trace.span(
                    "search.hole_round", round=self.hole_rounds + 1
                ) as round_span:
                    negatives = list(self._neg) or [0]
                    candidates = minimal_hitting_sets(
                        (self.universe & ~negative for negative in negatives),
                        self.universe,
                    )
                    unresolved = [
                        c for c in candidates if not self._confirmed_minimal(c)
                    ]
                    round_span.set(
                        candidates_generated=len(candidates),
                        pruned=len(candidates) - len(unresolved),
                        validated=self.evaluations - evals_before,
                    )
                    if not unresolved:
                        return (
                            sorted(candidates),
                            sorted(negatives) if negatives != [0] else [],
                        )
                    self.hole_rounds += 1
                    for candidate in unresolved:
                        self._walk(candidate)
                    round_span.set(validated=self.evaluations - evals_before)
                if ckpt is not None:
                    ckpt.boundary(
                        self.checkpoint_stage, self._snapshot("holes", [])
                    )
        except BudgetExceeded as error:
            if error.partial is None:
                error.partial = (sorted(self._pos), sorted(self._neg))
            raise

    def _snapshot(self, phase: str, pending: list[int]) -> dict:
        """Complete walk state at a boundary (JSON-ready)."""
        return {
            "phase": phase,
            "pending_seeds": list(pending),
            "positives": sorted(self._pos),
            "negatives": sorted(self._neg),
            "rng": _ckpt.rng_state_to_json(self.rng),
            "evaluations": self.evaluations,
            "hole_rounds": self.hole_rounds,
        }

    def _confirmed_minimal(self, mask: int) -> bool:
        """True iff ``mask`` is known positive with all direct subsets known
        negative — i.e. a fully verified minimal positive."""
        if self._lookup(mask) is not True:
            return False
        return all(self._lookup(sub) is False for sub in direct_subsets(mask))
