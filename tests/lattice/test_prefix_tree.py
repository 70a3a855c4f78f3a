"""Tests for the UCC prefix tree (§5.4), cross-validated against scans."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lattice import PrefixTree
from repro.relation.columnset import bits, is_subset

mask_sets = st.sets(st.integers(1, (1 << 7) - 1), max_size=14)
probes = st.integers(0, (1 << 7) - 1)


class TestBasics:
    def test_paper_figure5_layout(self):
        # Fig. 5: combinations (1,3,8), (1,5), (1,10), (1,11,17), (1,12),
        # (7), (15,18) over column indexes.
        combos = [
            (1 << 1) | (1 << 3) | (1 << 8),
            (1 << 1) | (1 << 5),
            (1 << 1) | (1 << 10),
            (1 << 1) | (1 << 11) | (1 << 17),
            (1 << 1) | (1 << 12),
            (1 << 7),
            (1 << 15) | (1 << 18),
        ]
        tree = PrefixTree(combos)
        assert len(tree) == 7
        assert sorted(tree) == sorted(combos)
        for combo in combos:
            assert combo in tree

    def test_add_idempotent(self):
        tree = PrefixTree()
        tree.add(0b101)
        tree.add(0b101)
        assert len(tree) == 1

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            PrefixTree().add(0)

    def test_contains_prefix_is_not_member(self):
        tree = PrefixTree([0b111])
        assert 0b011 not in tree

    def test_remove(self):
        tree = PrefixTree([0b101, 0b111])
        assert tree.remove(0b101)
        assert 0b101 not in tree
        assert 0b111 in tree
        assert len(tree) == 1

    def test_remove_missing_returns_false(self):
        tree = PrefixTree([0b1])
        assert not tree.remove(0b10)
        assert not tree.remove(0b11)

    def test_remove_prefix_member(self):
        tree = PrefixTree([0b011, 0b111])
        assert tree.remove(0b111)
        assert 0b011 in tree

    @given(mask_sets)
    def test_iteration_matches_contents(self, masks):
        tree = PrefixTree(masks)
        assert sorted(tree) == sorted(masks)
        assert len(tree) == len(masks)


class TestSubsetLookup:
    @given(mask_sets, probes)
    def test_subsets_of_matches_scan(self, masks, probe):
        tree = PrefixTree(masks)
        expected = sorted(m for m in masks if is_subset(m, probe))
        assert sorted(tree.subsets_of(probe)) == expected

    @given(mask_sets, probes)
    def test_contains_subset_of_matches_scan(self, masks, probe):
        tree = PrefixTree(masks)
        assert tree.contains_subset_of(probe) == any(
            is_subset(m, probe) for m in masks
        )


class TestSupersetLookup:
    def test_paper_table2_connector_lookup(self):
        # Table 2: minimal UCCs AFG, BDFG, DEF, CEFG; connector FG matches
        # AFG, BDFG, CEFG but not DEF.
        def mask(text):
            return sum(1 << (ord(c) - ord("A")) for c in text)

        tree = PrefixTree([mask("AFG"), mask("BDFG"), mask("DEF"), mask("CEFG")])
        matched = tree.supersets_of(mask("FG"))
        assert sorted(matched) == sorted(
            [mask("AFG"), mask("BDFG"), mask("CEFG")]
        )

    @given(mask_sets, probes)
    def test_supersets_of_matches_scan(self, masks, probe):
        tree = PrefixTree(masks)
        expected = sorted(m for m in masks if is_subset(probe, m))
        assert sorted(tree.supersets_of(probe)) == expected

    @given(mask_sets, probes)
    def test_has_superset_of_matches_scan(self, masks, probe):
        tree = PrefixTree(masks)
        assert tree.has_superset_of(probe) == any(
            is_subset(probe, m) for m in masks
        )

    @given(mask_sets, st.lists(st.integers(1, (1 << 7) - 1), max_size=6), probes)
    def test_lookups_after_removals(self, masks, removals, probe):
        tree = PrefixTree(masks)
        remaining = set(masks)
        for mask in removals:
            tree.remove(mask)
            remaining.discard(mask)
        assert sorted(tree.subsets_of(probe)) == sorted(
            m for m in remaining if is_subset(m, probe)
        )
        assert sorted(tree.supersets_of(probe)) == sorted(
            m for m in remaining if is_subset(probe, m)
        )


#: One step of a random antichain workload: ``(operation, mask)``.
#: ``minimal`` / ``maximal`` insert the way the border search maintains
#: its positive and negative antichains; ``probe`` only looks.
steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "minimal", "maximal", "probe"]),
        st.integers(1, (1 << 8) - 1),
    ),
    max_size=60,
)


class TestAgainstListModel:
    """Random add/remove/lookup sequences against a naive list of masks."""

    @staticmethod
    def _check(tree: PrefixTree, model: list[int], probe: int) -> None:
        subsets = [m for m in model if is_subset(m, probe)]
        supersets = [m for m in model if is_subset(probe, m)]
        assert set(tree.subsets_of(probe)) == set(subsets)
        assert len(tree.subsets_of(probe)) == len(subsets)
        assert set(tree.supersets_of(probe)) == set(supersets)
        assert len(tree.supersets_of(probe)) == len(supersets)
        assert tree.contains_subset_of(probe) == bool(subsets)
        assert tree.has_superset_of(probe) == bool(supersets)

    @given(steps, probes)
    def test_lookups_order_and_slots_match_model(self, sequence, final_probe):
        tree = PrefixTree()
        model: list[int] = []
        peak = 0
        for operation, mask in sequence:
            if operation == "add":
                tree.add(mask)
                if mask not in model:
                    model.append(mask)
            elif operation == "remove":
                assert tree.remove(mask) == (mask in model)
                if mask in model:
                    model.remove(mask)
            elif operation == "minimal":
                if not any(is_subset(m, mask) for m in model):
                    for dominated in tree.supersets_of(mask):
                        tree.remove(dominated)
                    model = [m for m in model if not is_subset(mask, m)]
                    tree.add(mask)
                    model.append(mask)
            elif operation == "maximal":
                if not any(is_subset(mask, m) for m in model):
                    for dominated in tree.subsets_of(mask):
                        tree.remove(dominated)
                    model = [m for m in model if not is_subset(m, mask)]
                    tree.add(mask)
                    model.append(mask)
            self._check(tree, model, mask)
            peak = max(peak, len(model))
            assert len(tree) == len(model)
            assert list(tree) == sorted(model, key=bits)
            assert all((m in tree) == (m in model) for m in range(1, 1 << 8, 7))
            # Freed slots are reused: storage never outgrows the peak.
            assert len(tree._masks) <= peak
        self._check(tree, model, final_probe)
