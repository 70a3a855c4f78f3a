"""Tests for the Markdown profile report renderer."""

from repro import Muds
from repro.harness import render_profile_report
from repro.relation import Relation


class TestRenderProfileReport:
    def test_sections_present(self, employees):
        result = Muds().profile(employees)
        report = render_profile_report(employees, result)
        for heading in (
            "# Data profile: employees",
            "## Column statistics",
            "## Key candidates",
            "## Functional dependencies",
            "## Inclusion dependencies",
            "## Phase timings",
        ):
            assert heading in report

    def test_statistics_rows(self, employees):
        result = Muds().profile(employees)
        report = render_profile_report(employees, result)
        assert "| employee_id | 5 | 0 | yes |" in report

    def test_listing_cap_is_explicit(self, employees):
        result = Muds().profile(employees)
        report = render_profile_report(employees, result, max_listed=2)
        assert "... and" in report

    def test_duplicate_rows_note(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 1), (2, 2)])
        result = Muds().profile(rel)
        report = render_profile_report(rel, result)
        assert "duplicate rows" in report

    def test_duplicate_rows_kept_explain_missing_uccs(self):
        rel = Relation.from_rows(["A", "B"], [(1, 1), (1, 1), (2, 2)])
        report = render_profile_report(rel, Muds().profile(rel))
        assert "(none — the relation has duplicate rows)" in report

    def test_truncated_run_does_not_explain_missing_uccs(self):
        from repro.guard import Budget
        from repro.harness import default_framework

        # Duplicate-free: columns i mod 2..7 over i < 60 (mod 3, 4, 5
        # together already form a key).
        rel = Relation.from_rows(
            list("ABCDEF"), [tuple(i % k for k in range(2, 8)) for i in range(60)]
        )
        execution = default_framework().run(
            "muds", rel, budget=Budget(max_intersections=1)
        )
        assert execution.status == "timeout" and not execution.result.uccs
        report = render_profile_report(rel, execution.result, execution=execution)
        assert "(none found before the run stopped)" in report
        assert "duplicate" not in report

    def test_zero_columns_explain_missing_uccs(self):
        rel = Relation.from_rows([], [])
        report = render_profile_report(rel, Muds().profile(rel))
        assert "(none — the relation has no columns)" in report
        assert "duplicate" not in report

    def test_example_script_runs(self, capsys):
        import runpy
        import sys
        from pathlib import Path

        examples = Path(__file__).parent.parent.parent / "examples"
        old = sys.argv
        sys.argv = ["profile_report.py", "iris", "80"]
        try:
            runpy.run_path(str(examples / "profile_report.py"), run_name="__main__")
        finally:
            sys.argv = old
        assert "# Data profile: iris" in capsys.readouterr().out
