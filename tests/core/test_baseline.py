"""Tests for the sequential baseline profiler."""

import pytest
from hypothesis import given

from repro.core.baseline import BaselineProfiler
from repro.core.holistic_fun import HolisticFun

from ..conftest import relations


class TestSequentialBaseline:
    @given(relations(max_columns=5, max_rows=12))
    def test_matches_holistic_results(self, rel):
        """Sequential execution must find identical metadata — it only
        pays more (three input passes instead of one)."""
        baseline = BaselineProfiler(seed=1).profile(rel)
        holistic = HolisticFun().profile(rel)
        assert baseline.same_metadata(holistic)

    def test_three_separate_phases(self, employees):
        result = BaselineProfiler().profile(employees)
        assert set(result.phase_seconds) == {"spider", "ducc", "fun"}

    def test_counters(self, employees):
        result = BaselineProfiler().profile(employees)
        assert result.counters["ucc_checks"] > 0
        assert result.counters["fd_checks"] > 0


class TestConcurrentBaseline:
    """The jobs>1 mode runs SPIDER, DUCC, and FUN in separate processes."""

    def test_matches_sequential_metadata(self, employees):
        sequential = BaselineProfiler(seed=1).profile(employees)
        concurrent = BaselineProfiler(seed=1, jobs=3).profile(employees)
        assert concurrent.same_metadata(sequential)
        assert set(concurrent.phase_seconds) == {"spider", "ducc", "fun"}
        assert concurrent.counters["baseline_jobs"] == 3
        assert concurrent.counters["ucc_checks"] > 0
        assert concurrent.counters["fd_checks"] > 0

    def test_reports_both_runtime_metrics(self, employees):
        """The paper's Fig. 6 metric is the *sum* of the three task
        runtimes (one machine, one task at a time); the concurrent mode
        additionally has a wall-clock makespan <= that sum on real
        multicore hardware.  Both must be populated and sane."""
        profiler = BaselineProfiler(jobs=2)
        result = profiler.profile(employees)
        assert profiler.sum_of_task_seconds is not None
        assert profiler.makespan_seconds is not None
        assert profiler.sum_of_task_seconds >= 0
        assert profiler.makespan_seconds >= 0
        assert result.total_seconds == pytest.approx(
            profiler.sum_of_task_seconds
        )

    def test_sequential_mode_populates_the_same_metrics(self, employees):
        profiler = BaselineProfiler()
        profiler.profile(employees)
        assert profiler.sum_of_task_seconds is not None
        assert profiler.makespan_seconds is not None

    def test_budget_exhaustion_carries_partials(self, employees):
        """A budget that kills the PLI-based tasks still yields SPIDER's
        INDs as a partial result, exactly like the sequential mode."""
        from repro.core.baseline import BaselineProfiler
        from repro.guard import Budget, BudgetExceeded, guarded

        profiler = BaselineProfiler(jobs=3)
        with pytest.raises(BudgetExceeded) as excinfo:
            with guarded(Budget(max_intersections=0, checkpoint_stride=1)):
                profiler.profile(employees)
        partial = excinfo.value.partial_result
        assert partial is not None
        assert excinfo.value.reason == "timeout"
        assert len(partial.inds) > 0  # SPIDER does no PLI intersections
