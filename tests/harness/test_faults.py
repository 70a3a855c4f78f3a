"""Tests for the deterministic fault-injection registry and its harness
containment: an injected fault becomes a recorded failure, never an
aborted comparison run or sweep."""

import pytest

from repro.faults import (
    CACHE_PUT,
    CHECKPOINT_LOAD,
    CHECKPOINT_SAVE,
    CSV_READ,
    FAULT_POINTS,
    INCREMENTAL_APPEND,
    PROFILER_STEP,
    RESULT_CACHE_GET,
    RESULT_CACHE_PUT,
    SAMPLING_HARVEST,
    SCHEMA_LOAD,
    STORAGE_SPILL,
    FAULTS,
    FaultInjected,
    FaultRegistry,
)
from repro.harness import ExperimentRunner, default_framework
from repro.relation import Relation, read_csv


@pytest.fixture(autouse=True)
def _disarm_after_each_test():
    yield
    FAULTS.disarm()


def toy_relation() -> Relation:
    return Relation.from_rows(
        ["A", "B", "C"],
        [(1, 1, 2), (2, 1, 2), (3, 2, 4), (4, 2, 4)],
        name="toy",
    )


class TestRegistry:
    def test_fires_exactly_once_on_nth_hit(self):
        registry = FaultRegistry()
        registry.arm(CSV_READ, at=3)
        registry.trip(CSV_READ)
        registry.trip(CSV_READ)
        with pytest.raises(FaultInjected) as excinfo:
            registry.trip(CSV_READ)
        assert excinfo.value.point == CSV_READ
        assert excinfo.value.hit == 3
        registry.trip(CSV_READ)  # 4th hit: already fired, stays quiet
        assert registry.hits(CSV_READ) == 4
        assert registry.fired(CSV_READ) == 1

    def test_unarmed_points_are_free(self):
        registry = FaultRegistry()
        assert not registry.armed
        registry.trip(CSV_READ)  # no-op
        assert registry.hits(CSV_READ) == 0

    def test_disarm_clears_flag(self):
        registry = FaultRegistry()
        registry.arm(CSV_READ)
        registry.arm(CACHE_PUT)
        registry.disarm(CSV_READ)
        assert registry.armed  # CACHE_PUT still armed
        registry.disarm()
        assert not registry.armed

    def test_unknown_point_rejected(self):
        registry = FaultRegistry()
        with pytest.raises(ValueError, match="unknown fault point"):
            registry.arm("bogus.point")

    def test_invalid_arming_rejected(self):
        registry = FaultRegistry()
        with pytest.raises(ValueError):
            registry.arm(CSV_READ, at=0)
        with pytest.raises(ValueError):
            registry.arm_seeded(CSV_READ, probability=0.0)
        with pytest.raises(ValueError):
            registry.arm_seeded(CSV_READ, probability=1.5)

    def test_seeded_arming_replays_bit_identically(self):
        def firing_pattern(seed: int) -> list[bool]:
            registry = FaultRegistry()
            registry.arm_seeded(PROFILER_STEP, probability=0.3, seed=seed)
            pattern = []
            for _ in range(50):
                try:
                    registry.trip(PROFILER_STEP)
                    pattern.append(False)
                except FaultInjected:
                    pattern.append(True)
            return pattern

        assert firing_pattern(11) == firing_pattern(11)
        assert firing_pattern(11) != firing_pattern(12)


class TestInstrumentedSites:
    def test_csv_read_point_fires_per_data_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        FAULTS.arm(CSV_READ, at=2)
        with pytest.raises(FaultInjected, match="csv.read"):
            read_csv(path)

    def test_cache_put_point_fires_during_profiling(self):
        FAULTS.arm(CACHE_PUT, at=1)
        from repro.core.holistic_fun import HolisticFun

        with pytest.raises(FaultInjected, match="cache.put"):
            HolisticFun().profile(toy_relation())

    def test_profiler_step_point_fires_during_profiling(self):
        FAULTS.arm(PROFILER_STEP, at=1)
        from repro.core.muds import Muds

        with pytest.raises(FaultInjected, match="profiler.step"):
            Muds().profile(toy_relation())


class TestHarnessContainment:
    """Every registered fault point, when armed, must leave the sweep
    recorded-but-running: a failed cell or point-level error, no
    propagation."""

    @pytest.mark.parametrize(
        "point", [CACHE_PUT, PROFILER_STEP, SAMPLING_HARVEST]
    )
    def test_algorithm_fault_becomes_err_cell(self, point):
        FAULTS.arm(point, at=1)
        framework = default_framework()
        execution = framework.run("muds", toy_relation())
        assert execution.status == "error"
        assert execution.marker == "ERR"
        assert "injected fault" in execution.error
        FAULTS.disarm()
        # The framework is intact: the next run succeeds.
        assert framework.run("muds", toy_relation()).status == "ok"

    def test_workload_fault_becomes_point_error(self, tmp_path):
        # CSV_READ fires in the workload builder, before any algorithm
        # runs: the sweep records a point-level error and continues.
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n2,1\n3,3\n")
        FAULTS.arm(CSV_READ, at=2)
        runner = ExperimentRunner(default_framework(), algorithms=("holistic_fun",))
        points = runner.sweep(["first", "second"], lambda label: read_csv(path))
        assert points[0].error is not None
        assert "injected fault" in points[0].error
        assert points[0].executions == []
        # The armed fault fired exactly once; the second point succeeded.
        assert points[1].error is None
        assert points[1].executions[0].status == "ok"

    def test_every_point_is_exercised_somewhere(self):
        # Guard against new fault points being added without containment
        # coverage: this class must be extended alongside FAULT_POINTS.
        # The retry-absorbed I/O points (checkpoint + result cache +
        # storage spill, see tests/test_fault_injection.py) are exercised
        # in tests/harness/test_retry.py and the fault campaign; the
        # schema.load point in the dedicated schema campaign there; the
        # incremental.append point in the incremental-append campaign and
        # tests/incremental/test_fault_containment.py.
        assert set(FAULT_POINTS) == {
            CSV_READ,
            CACHE_PUT,
            PROFILER_STEP,
            SAMPLING_HARVEST,
            CHECKPOINT_SAVE,
            CHECKPOINT_LOAD,
            RESULT_CACHE_GET,
            RESULT_CACHE_PUT,
            SCHEMA_LOAD,
            STORAGE_SPILL,
            INCREMENTAL_APPEND,
        }
