"""Lossless round-trip guarantees for the types that cross process and
disk boundaries: :class:`~repro.metadata.results.ProfilingResult` and
:class:`~repro.harness.framework.Execution`.

The parallel sweep layer ships these through pickle (worker boundary) and
JSON (journal, result cache); both transports must be equality-lossless,
including for the partial results of budget-stopped runs.
"""

import json
import pickle

import pytest
from hypothesis import given, settings

from repro.guard import Budget, BudgetExceeded, guarded
from repro.harness import Execution, default_framework
from repro.metadata.results import ProfilingResult
from repro.metadata.serialize import (
    dumps,
    loads,
    result_from_dict,
    result_to_dict,
)
from repro.relation import Relation

from ..conftest import relations


@pytest.fixture
def toy() -> Relation:
    return Relation.from_rows(
        ["A", "B", "C"],
        [(1, 1, 2), (2, 1, 2), (3, 2, 4), (4, 2, 4)],
        name="toy",
    )


def _rich_result() -> ProfilingResult:
    return ProfilingResult.from_masks(
        relation_name="rich",
        column_names=("A", "B", "C"),
        ind_pairs=[(0, 1), (2, 0)],
        ucc_masks=[0b011, 0b100],
        fd_pairs=[(0b001, 1), (0b110, 0)],
        phase_seconds={"spider": 0.25, "ducc": 1.5},
        counters={"ucc_checks": 7, "pli_intersections": 3},
    )


class TestProfilingResultRoundTrip:
    def test_json_document_round_trip_is_equality_lossless(self):
        result = _rich_result()
        assert result_from_dict(result_to_dict(result)) == result

    def test_json_string_round_trip_is_equality_lossless(self):
        result = _rich_result()
        assert loads(dumps(result)) == result

    def test_pickle_round_trip_is_equality_lossless(self):
        result = _rich_result()
        assert pickle.loads(pickle.dumps(result)) == result

    def test_empty_result_round_trips(self):
        empty = ProfilingResult.from_masks("empty", ("A",))
        assert result_from_dict(result_to_dict(empty)) == empty
        assert pickle.loads(pickle.dumps(empty)) == empty

    @settings(max_examples=25, deadline=None)
    @given(relation=relations(max_columns=4, max_rows=8))
    def test_real_profiles_round_trip(self, relation):
        result = default_framework().run("holistic_fun", relation).result
        assert loads(dumps(result)) == result
        assert pickle.loads(pickle.dumps(result)) == result


class TestExecutionRoundTrip:
    def test_ok_execution_record_round_trip(self, toy):
        execution = default_framework().run("holistic_fun", toy)
        restored = Execution.from_record(execution.to_record())
        assert restored == execution
        # The record itself must be pure JSON (journal/cache transport).
        assert Execution.from_record(
            json.loads(json.dumps(execution.to_record()))
        ) == execution

    def test_pickle_round_trip(self, toy):
        execution = default_framework().run("muds", toy)
        assert pickle.loads(pickle.dumps(execution)) == execution

    def test_budget_stopped_execution_round_trips_with_partials(self, toy):
        """A TL cell carries the partial metadata discovered before the
        stop; that payload must survive both transports untouched."""
        budget = Budget(deadline_seconds=0.0, checkpoint_stride=1)
        execution = default_framework().run("muds", toy, budget=budget)
        assert execution.status == "timeout"
        assert execution.marker == "TL"
        restored = Execution.from_record(
            json.loads(json.dumps(execution.to_record()))
        )
        assert restored == execution
        assert restored.result == execution.result
        assert pickle.loads(pickle.dumps(execution)) == execution

    def test_crash_execution_round_trips_with_error_text(self, toy):
        framework = default_framework()

        class Boom:
            def profile(self, relation):
                raise RuntimeError("kaput")

        framework.register("boom", lambda: Boom())
        execution = framework.run("boom", toy)
        assert execution.status == "error"
        restored = Execution.from_record(execution.to_record())
        assert restored == execution
        assert restored.error == execution.error

    def test_cached_flag_survives_round_trip(self, toy):
        execution = default_framework().run("holistic_fun", toy)
        record = execution.to_record()
        record["cached"] = True
        restored = Execution.from_record(record)
        assert restored.cached is True
        assert Execution.from_record(restored.to_record()) == restored


class TestBudgetExceededPartials:
    def test_partial_result_survives_pickle_inside_exception(self, toy):
        """BudgetExceeded (with its partial_result) crosses the worker
        boundary when a budgeted baseline task stops mid-flight."""
        try:
            with guarded(Budget(deadline_seconds=0.0, checkpoint_stride=1)):
                from repro.core.profiler import profile

                profile(toy, algorithm="muds")
        except BudgetExceeded as error:
            restored = pickle.loads(pickle.dumps(error))
            assert isinstance(restored, BudgetExceeded)
            assert restored.reason == error.reason
            assert restored.partial_result == error.partial_result
        else:
            pytest.fail("expected BudgetExceeded under a zero deadline")
