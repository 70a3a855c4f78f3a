"""Tests for the shared RelationIndex."""

import random

import pytest
from hypothesis import given

from repro.algorithms.naive import holds_fd, is_unique
from repro.pli import PLI, RelationIndex, available_backends, use_backend
from repro.relation import Relation
from repro.relation.columnset import full_mask, iter_bits
from repro.sampling import RefutationIndex

from ..conftest import relations


class TestIndexBasics:
    def test_shapes(self, employees):
        index = RelationIndex(employees)
        assert index.n_rows == 5
        assert index.n_columns == 5

    def test_vectors_group_equal_values(self, employees):
        index = RelationIndex(employees)
        city = index.vector(1)
        assert city[0] == city[1]  # Portland == Portland
        assert city[0] != city[2]

    def test_distinct_values_first_seen_order(self):
        rel = Relation.from_rows(["A"], [("b",), ("a",), ("b",)])
        index = RelationIndex(rel)
        assert index.distinct_values(0) == ["b", "a"]

    def test_empty_mask_pli_rejected(self, employees):
        index = RelationIndex(employees)
        try:
            index.pli(0)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_pli_memoized(self, employees):
        index = RelationIndex(employees)
        first = index.pli(0b110)
        before = index.intersections
        again = index.pli(0b110)
        assert first is again
        assert index.intersections == before

    def test_distinct_count_of_empty_set(self, employees):
        index = RelationIndex(employees)
        assert index.distinct_count(0) == 1


class TestChecksAgainstDefinitions:
    @given(relations(max_columns=4, max_rows=10))
    def test_is_unique_matches_definition(self, rel):
        index = RelationIndex(rel)
        for mask in range(1, 1 << rel.n_columns):
            assert index.is_unique(mask) == is_unique(rel, mask)

    @given(relations(max_columns=4, max_rows=10))
    def test_check_fd_matches_definition(self, rel):
        index = RelationIndex(rel)
        universe = full_mask(rel.n_columns)
        for rhs in range(rel.n_columns):
            for lhs in range(1, universe + 1):
                if lhs >> rhs & 1:
                    assert index.check_fd(lhs, rhs)  # trivial FD
                else:
                    assert index.check_fd(lhs, rhs) == holds_fd(rel, lhs, rhs)

    @given(relations(max_columns=4, max_rows=10, allow_nulls=True))
    def test_valid_rhs_matches_single_checks(self, rel):
        index = RelationIndex(rel)
        universe = full_mask(rel.n_columns)
        for lhs in range(1, universe + 1):
            batch = index.valid_rhs(lhs, universe)
            for rhs in range(rel.n_columns):
                assert bool(batch >> rhs & 1) == index.check_fd(lhs, rhs)

    @given(relations(max_columns=4, max_rows=8))
    def test_counters_move(self, rel):
        index = RelationIndex(rel)
        universe = full_mask(rel.n_columns)
        if universe:
            index.is_unique(universe)
            assert index.uniqueness_checks == 1


# -- derivation path independence -------------------------------------------


def _seeded_relation(rng: random.Random, n_columns: int, n_rows: int) -> Relation:
    """Random relation with NULLs and one constant column, duplicate-free."""
    constant = rng.randrange(n_columns)
    domains = [rng.randint(2, 6) for _ in range(n_columns)]
    seen: set[tuple] = set()
    rows = []
    for _ in range(n_rows):
        row = tuple(
            "k"
            if column == constant
            else (None if rng.random() < 0.15 else rng.randrange(domains[column]))
            for column in range(n_columns)
        )
        if row not in seen:
            seen.add(row)
            rows.append(row)
    names = [f"c{column}" for column in range(n_columns)]
    return Relation.from_rows(names, rows, name="derivation")


def _grouped(keys) -> list[list[int]]:
    """Positions grouped by key; groups of one are stripped."""
    buckets: dict[tuple, list[int]] = {}
    for position, key in enumerate(keys):
        buckets.setdefault(key, []).append(position)
    return [group for group in buckets.values() if len(group) >= 2]


def _oracle_pli(relation: Relation, mask: int) -> PLI:
    """The PLI of ``mask`` grouped directly from the joint column codes."""
    codes = [list(relation.encoding(c).codes) for c in iter_bits(mask)]
    return PLI(_grouped(zip(*codes)), relation.n_rows)


def _mask_sequence(rng: random.Random, universe: int, length: int) -> list[int]:
    """Walk-like requests (one column flipped per step) mixed with jumps,
    so both the cached-direct-subset and the fallback paths run."""
    n_columns = universe.bit_length()
    masks = []
    mask = rng.randint(1, universe)
    for _ in range(length):
        if rng.random() < 0.25:
            mask = rng.randint(1, universe)
        else:
            mask ^= 1 << rng.randrange(n_columns)
            mask = mask or 1 << rng.randrange(n_columns)
        masks.append(mask)
    return masks


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("seed", range(6))
class TestDerivationPathIndependence:
    """Whatever cached subset a PLI or sample grouping is derived from,
    the result equals grouping the rows directly."""

    def test_pli_equals_direct_grouping(self, backend_name, seed):
        rng = random.Random(seed)
        with use_backend(backend_name):
            relation = _seeded_relation(rng, n_columns=7, n_rows=60)
            index = RelationIndex(relation, sampling=False)
            universe = full_mask(relation.n_columns)
            for mask in _mask_sequence(rng, universe, 120):
                assert index.pli(mask) == _oracle_pli(relation, mask), (
                    f"mask {mask:#b}"
                )

    def test_pli_equals_direct_grouping_after_append(self, backend_name, seed):
        rng = random.Random(1000 + seed)
        with use_backend(backend_name):
            whole = _seeded_relation(rng, n_columns=6, n_rows=70)
            rows = list(whole.iter_rows())
            cut = len(rows) * 2 // 3
            relation = Relation.from_rows(
                list(whole.column_names), rows[:cut], name="base"
            )
            index = RelationIndex(relation, sampling=False)
            universe = full_mask(relation.n_columns)
            for mask in _mask_sequence(rng, universe, 80):
                index.pli(mask)
            relation.append_rows(rows[cut:])
            index.apply_append(cut)
            assert index._pending_merges, "no deferred composite to merge"
            for mask in _mask_sequence(rng, universe, 80):
                assert index.pli(mask) == _oracle_pli(relation, mask), (
                    f"mask {mask:#b}"
                )

    def test_sample_groups_equal_direct_grouping(self, backend_name, seed):
        rng = random.Random(2000 + seed)
        with use_backend(backend_name):
            relation = _seeded_relation(rng, n_columns=7, n_rows=80)
            index = RelationIndex(relation, sampling=False)
            rows = sorted(rng.sample(range(relation.n_rows), relation.n_rows // 2))
            sample = RefutationIndex(
                rows, [index.vector(c) for c in range(relation.n_columns)]
            )
            codes = [list(relation.encoding(c).codes) for c in range(relation.n_columns)]
            universe = full_mask(relation.n_columns)
            for mask in _mask_sequence(rng, universe, 120):
                keys = [
                    tuple(codes[c][row] for c in iter_bits(mask)) for row in rows
                ]
                expected = {frozenset(group) for group in _grouped(keys)}
                got = {frozenset(group) for group in sample.groups(mask)}
                assert got == expected, f"mask {mask:#b}"
