"""Tests for the execution-guard layer: budgets, deadlines, partial results."""

import random

import pytest

from repro.guard import ACTIVE, Budget, BudgetExceeded, active_budget, guarded
from repro.harness import default_framework
from repro.relation import Relation


def wide_relation(n_columns: int = 8, n_rows: int = 120, seed: int = 7) -> Relation:
    rng = random.Random(seed)
    rows = [
        tuple(str(rng.randrange(4)) for _ in range(n_columns))
        for _ in range(n_rows)
    ]
    names = [f"c{i}" for i in range(n_columns)]
    return Relation.from_rows(names, rows, name="wide").deduplicated()


class TestBudgetUnit:
    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(deadline_seconds=-1)
        with pytest.raises(ValueError):
            Budget(max_intersections=-1)
        with pytest.raises(ValueError):
            Budget(checkpoint_stride=0)

    def test_intersection_budget_reason_is_timeout(self):
        budget = Budget(max_intersections=2)
        budget.charge_intersection(10)
        budget.charge_intersection(10)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge_intersection(10)
        assert excinfo.value.reason == "timeout"

    def test_cluster_memory_reason_is_memory(self):
        budget = Budget(max_cluster_bytes=1)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge_intersection(100)
        assert excinfo.value.reason == "memory"

    def test_deadline_checked_at_stride(self):
        budget = Budget(deadline_seconds=0.0, checkpoint_stride=4)
        budget.checkpoint()
        budget.checkpoint()
        budget.checkpoint()  # below the stride: clock never read
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.checkpoint()  # 4th call reads the expired clock
        assert excinfo.value.reason == "timeout"

    def test_start_rearms_counters(self):
        budget = Budget(max_intersections=1)
        budget.charge_intersection(5)
        with pytest.raises(BudgetExceeded):
            budget.charge_intersection(5)
        budget.start()
        assert budget.intersections == 0
        budget.charge_intersection(5)  # does not raise after re-arm

    def test_guarded_installs_and_restores(self):
        outer, inner = Budget(), Budget()
        assert active_budget() is None
        with guarded(outer):
            assert active_budget() is outer
            with guarded(inner):
                assert active_budget() is inner
            assert active_budget() is outer
        assert active_budget() is None

    def test_guarded_none_is_noop(self):
        with guarded(None):
            assert active_budget() is None

    def test_guarded_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with guarded(Budget()):
                raise RuntimeError("boom")
        assert active_budget() is None


class TestBudgetedExecutions:
    """Framework integration: budgets stop runs mid-lattice, the execution
    records the TL/ML status, and partial results survive."""

    @pytest.mark.parametrize("algorithm", ["muds", "holistic_fun", "baseline", "tane"])
    def test_intersection_budget_yields_timeout_status(self, algorithm):
        framework = default_framework()
        execution = framework.run(
            algorithm, wide_relation(), budget=Budget(max_intersections=1)
        )
        assert execution.status == "timeout"
        assert execution.marker == "TL"
        assert "intersection budget" in execution.error
        assert not execution.ok

    def test_partial_results_survive_the_stop(self):
        # SPIDER (no intersections) completes before the budget can fire,
        # so the truncated run must still report the discovered INDs.
        framework = default_framework()
        execution = framework.run(
            "muds", wide_relation(), budget=Budget(max_intersections=1)
        )
        assert execution.status == "timeout"
        assert len(execution.result.inds) > 0

    def test_memory_budget_yields_memory_status(self):
        framework = default_framework()
        execution = framework.run(
            "muds", wide_relation(), budget=Budget(max_cluster_bytes=1)
        )
        assert execution.status == "memory"
        assert execution.marker == "ML"
        assert len(execution.result.inds) > 0

    def test_deadline_mid_lattice_yields_timeout(self):
        framework = default_framework()
        execution = framework.run(
            "holistic_fun",
            wide_relation(),
            budget=Budget(deadline_seconds=0.0, checkpoint_stride=1),
        )
        assert execution.status == "timeout"
        assert "deadline" in execution.error

    def test_unbudgeted_run_is_unaffected(self):
        framework = default_framework()
        reference = framework.run("holistic_fun", wide_relation())
        assert reference.status == "ok"
        assert reference.error is None

    def test_per_algorithm_budget_leaves_others_ok(self):
        relation = wide_relation()
        framework = default_framework()
        executions = framework.run_all(
            relation, budget={"muds": Budget(max_intersections=1)}
        )
        by_name = {e.algorithm: e for e in executions}
        assert by_name["muds"].status == "timeout"
        assert by_name["holistic_fun"].status == "ok"
        assert by_name["baseline"].status == "ok"
        # The completed contenders still agree (run_all verified it), and
        # their metadata matches an unbudgeted run exactly.
        unbudgeted = default_framework().run("holistic_fun", relation)
        assert by_name["holistic_fun"].result.same_metadata(unbudgeted.result)

    def test_budget_reusable_across_runs(self):
        framework = default_framework()
        budget = Budget(max_intersections=1)
        first = framework.run("muds", wide_relation(), budget=budget)
        second = framework.run("muds", wide_relation(), budget=budget)
        assert first.status == second.status == "timeout"


class TestCliBudget:
    def test_deadline_exhaustion_exits_3_with_warning(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "data.csv"
        rng = random.Random(3)
        lines = ["a,b,c,d,e,f"]
        lines += [
            ",".join(str(rng.randrange(3)) for _ in range(6)) for _ in range(80)
        ]
        path.write_text("\n".join(lines) + "\n")
        code = main([str(path), "--max-intersections", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert "warning [TL]" in captured.err
        assert "partial" in captured.err
        # No UCC was reached; the listing must not blame the data.
        assert "(none found before the budget ran out)" in captured.out
        assert "duplicate" not in captured.out

    def test_unbudgeted_cli_still_exits_0(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        assert main([str(path)]) == 0
