"""Tests for the column-oriented Relation model."""

import pytest
from hypothesis import given

from repro.relation import Relation, SchemaError, read_csv_text

from ..conftest import relations


class TestConstruction:
    def test_from_rows(self):
        rel = Relation.from_rows(["A", "B"], [(1, 2), (3, 4)])
        assert rel.n_rows == 2
        assert rel.n_columns == 2
        assert rel.column("A") == (1, 3)
        assert rel.column(1) == (2, 4)

    def test_from_dict(self):
        rel = Relation.from_dict({"x": [1, 2], "y": [3, 4]})
        assert rel.column_names == ("x", "y")
        assert rel.row(1) == (2, 4)

    def test_empty_relation(self):
        rel = Relation.from_rows(["A", "B"], [])
        assert rel.n_rows == 0
        assert list(rel.iter_rows()) == []

    def test_zero_columns(self):
        rel = Relation([], [])
        assert rel.n_columns == 0
        assert rel.n_rows == 0

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Relation(["A", "A"], [[1], [2]])

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Relation(["A", "B"], [[1, 2], [3]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_rows(["A", "B"], [(1, 2), (3,)])

    def test_name_column_count_mismatch(self):
        with pytest.raises(SchemaError):
            Relation(["A"], [[1], [2]])


class TestAccess:
    def test_column_index_by_name_and_position(self, employees):
        assert employees.column_index("zip") == 2
        assert employees.column_index(2) == 2

    def test_unknown_column_name(self, employees):
        with pytest.raises(KeyError):
            employees.column("nope")

    def test_column_index_out_of_range(self, employees):
        with pytest.raises(IndexError):
            employees.column(17)

    def test_iter_rows_matches_rows(self, employees):
        listed = list(employees.iter_rows())
        assert listed[0] == employees.row(0)
        assert len(listed) == employees.n_rows


class TestTransformations:
    def test_project(self, employees):
        projected = employees.project(["city", "state"])
        assert projected.column_names == ("city", "state")
        assert projected.n_rows == employees.n_rows

    def test_head(self, employees):
        assert employees.head(2).n_rows == 2
        assert employees.head(100).n_rows == employees.n_rows

    def test_head_negative(self, employees):
        with pytest.raises(ValueError):
            employees.head(-1)

    def test_deduplicated_removes_duplicates(self):
        rel = Relation.from_rows(["A", "B"], [(1, 2), (1, 2), (3, 4)])
        assert rel.has_duplicate_rows()
        deduped = rel.deduplicated()
        assert deduped.n_rows == 2
        assert not deduped.has_duplicate_rows()

    def test_deduplicated_noop_returns_self(self, employees):
        assert employees.deduplicated() is employees

    def test_deduplicated_keeps_first_occurrence(self):
        rel = Relation.from_rows(["A", "B"], [(1, "x"), (2, "y"), (1, "x")])
        assert list(rel.deduplicated().iter_rows()) == [(1, "x"), (2, "y")]

    @given(relations(max_columns=4, max_rows=10))
    def test_deduplicated_is_idempotent(self, rel):
        once = rel.deduplicated()
        assert once.deduplicated() == once
        assert not once.has_duplicate_rows()


class TestDunder:
    def test_equality(self):
        a = Relation.from_rows(["A"], [(1,), (2,)])
        b = Relation.from_rows(["A"], [(1,), (2,)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_data(self):
        a = Relation.from_rows(["A"], [(1,)])
        b = Relation.from_rows(["A"], [(2,)])
        assert a != b

    def test_repr_mentions_shape(self, employees):
        assert "5 columns" in repr(employees)
        assert "5 rows" in repr(employees)


class TestGoldenFingerprints:
    """v2 fingerprints are result-cache and checkpoint keys: these digests
    were taken before the single-substrate refactor and must never
    drift."""

    CSV = "id,name,city\n1,ann,oslo\n2,bob,\n3,ann,rome\n4,,oslo\n"
    READ = "5a463237bba574777f289f0ffd83111e883b33912b1201eebff5671df8a9fdda"
    BUILT = "355f6396ee8d36dd00e57a2509852983239a2b24c118b98d185f21d87f9f5131"
    APPENDED = "c792addda17f2d737e02135dd31ecf6b953d9e2127374a4e53c82ffd768ae231"

    def test_read_csv(self):
        assert read_csv_text(self.CSV).fingerprint() == self.READ

    def test_in_memory_ints_strings_and_nulls(self):
        relation = Relation(
            ["k", "label", "score"],
            [
                (1, 2, 3, None, 5),
                ("x", "y", None, "x", "z"),
                (10, None, 10, -7, 0),
            ],
        )
        assert relation.fingerprint() == self.BUILT

    def test_after_one_append(self):
        relation = read_csv_text(self.CSV)
        relation.append_rows([("5", "cid", "oslo"), ("6", None, "bergen")])
        assert relation.fingerprint() == self.APPENDED
        assert relation.parent_fingerprint == self.READ


class TestMergedValuesRejected:
    """Encoding groups values by ``==``; values that are equal but
    fingerprint differently would silently become one of them."""

    @pytest.mark.parametrize(
        "values, first, second",
        [
            ((1, 1.0, True, 2), "1", "1.0"),
            ((0.0, -0.0), "0.0", "-0.0"),
            ((True, 1), "True", "1"),
            (("x", None, 2.5, 2), None, None),  # no equal pair: accepted
        ],
    )
    def test_construction(self, values, first, second):
        if first is None:
            assert Relation(["a"], [values]).column(0) == values
            return
        with pytest.raises(SchemaError) as error:
            Relation(["a"], [values])
        assert "'a'" in str(error.value)
        assert first in str(error.value) and second in str(error.value)

    def test_append_checks_before_mutating(self):
        relation = Relation(["a", "b"], [(1, 2), ("x", "y")])
        before = relation.fingerprint()
        with pytest.raises(SchemaError, match="'a'.*2.*2.0"):
            relation.append_rows([(3, "z"), (2.0, "w")])
        assert relation.n_rows == 2
        assert relation.column(0) == (1, 2)
        assert relation.column(0).dictionary == [1, 2]
        assert relation.fingerprint() == before

    def test_append_checks_within_the_batch(self):
        relation = Relation(["a"], [("x",)])
        with pytest.raises(SchemaError):
            relation.append_rows([(0.0,), (-0.0,)])
        relation.append_rows([(0.0,), (0.0,), ("y",)])
        assert relation.column(0) == ("x", 0.0, 0.0, "y")

    def test_muds_agrees_with_the_oracle(self):
        """Regression: on this input MUDS used to report a ⊆ b (the
        encoder merged 1.0 into 1) while the oracle, reading str(1.0),
        reported no IND."""
        from repro.algorithms import naive_inds
        from repro.core.muds import Muds

        from ..conftest import inds_as_pairs

        with pytest.raises(SchemaError, match="'a'"):
            Relation(["a", "b"], [(1, 1.0, 2), ("1", "2", "3")])
        relation = Relation(["a", "b"], [(1, 1, 2), ("1", "2", "3")])
        result = Muds(seed=0).profile(relation)
        assert inds_as_pairs(result, relation) == sorted(naive_inds(relation))
