"""Tests for worker liveness heartbeats and the hung-worker watchdog.

Unit layer: :class:`~repro.liveness.Heartbeat` touch/throttle semantics
and :class:`~repro.harness.watchdog.Watchdog` kill rules against real
(but disposable) child processes.  Integration layer: a parallel sweep
whose workload hangs its worker on the first attempt — the watchdog must
kill the silent worker and the suspects/isolation round must complete the
point, end to end.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import liveness
from repro.harness.parallel import (
    FrameworkSpec,
    PointTask,
    WorkloadSpec,
    run_sweep_points,
)
from repro.harness.runner import SweepPoint
from repro.harness.watchdog import Watchdog
from repro.relation.relation import Relation


@pytest.fixture(autouse=True)
def _disarm_heartbeat():
    yield
    liveness.disarm()


def sleeping_child() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(600)"]
    )


def stale(path: Path, age: float = 3600.0) -> None:
    past = time.time() - age
    os.utime(path, (past, past))


class TestHeartbeat:
    def test_touch_writes_pid_and_label(self, tmp_path):
        beat = liveness.Heartbeat(tmp_path / "w.hb", label="point-3")
        beat.touch()
        assert (tmp_path / "w.hb").read_text() == f"{os.getpid()} point-3\n"

    def test_beat_throttles_by_stride_and_interval(self, tmp_path):
        clock = {"now": 0.0}
        beat = liveness.Heartbeat(
            tmp_path / "w.hb", interval=1.0, clock=lambda: clock["now"]
        )
        beat.touch()
        (tmp_path / "w.hb").unlink()
        # A full stride of ticks inside the interval: no touch.
        clock["now"] = 0.5
        for _ in range(liveness.TICK_STRIDE):
            beat.beat()
        assert not (tmp_path / "w.hb").exists()
        # Once the interval has elapsed, the next full stride touches.
        clock["now"] = 1.5
        for _ in range(liveness.TICK_STRIDE):
            beat.beat()
        assert (tmp_path / "w.hb").exists()

    def test_touch_survives_vanished_directory(self, tmp_path):
        beat = liveness.Heartbeat(tmp_path / "gone" / "w.hb")
        beat.touch()  # must not raise
        beat.clear()  # must not raise

    def test_arm_installs_and_disarm_clears(self, tmp_path):
        armed = liveness.arm(tmp_path / "w.hb", label="x")
        assert liveness.ACTIVE is armed
        assert (tmp_path / "w.hb").exists()
        liveness.disarm()
        assert liveness.ACTIVE is None
        assert not (tmp_path / "w.hb").exists()


class TestWatchdogScan:
    def test_kills_stale_worker_in_live_set(self, tmp_path):
        child = sleeping_child()
        try:
            hb = tmp_path / f"{child.pid}.hb"
            hb.write_text(f"{child.pid} p\n")
            stale(hb)
            dog = Watchdog(tmp_path, grace=5.0, pids_fn=lambda: [child.pid])
            assert dog.scan() == [child.pid]
            assert child.wait(timeout=10) == -signal.SIGKILL
            assert not hb.exists()  # one hang is counted once
            assert dog.kills == [child.pid]
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

    def test_fresh_heartbeat_is_left_alone(self, tmp_path):
        child = sleeping_child()
        try:
            hb = tmp_path / f"{child.pid}.hb"
            hb.write_text(f"{child.pid} p\n")
            dog = Watchdog(tmp_path, grace=3600.0, pids_fn=lambda: [child.pid])
            assert dog.scan() == []
            assert child.poll() is None
        finally:
            child.kill()
            child.wait()

    def test_never_kills_a_pid_outside_the_live_set(self, tmp_path):
        child = sleeping_child()
        try:
            hb = tmp_path / f"{child.pid}.hb"
            hb.write_text(f"{child.pid} p\n")
            stale(hb)
            dog = Watchdog(tmp_path, grace=5.0, pids_fn=lambda: [])
            assert dog.scan() == []
            assert child.poll() is None  # stale file, but not our worker
        finally:
            child.kill()
            child.wait()

    def test_tolerates_already_dead_pid_and_junk_files(self, tmp_path):
        child = sleeping_child()
        child.kill()
        child.wait()
        hb = tmp_path / f"{child.pid}.hb"
        hb.write_text(f"{child.pid} p\n")
        stale(hb)
        (tmp_path / "not-a-pid.hb").write_text("junk\n")
        dog = Watchdog(tmp_path, grace=5.0, pids_fn=lambda: [child.pid])
        assert dog.scan() == []

    def test_invalid_grace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Watchdog(tmp_path, grace=0.0, pids_fn=list)


# -- end-to-end: a hanging worker inside a parallel sweep --------------------
#
# The workload hangs (uncooperatively: a plain sleep, no guard
# checkpoints, so the heartbeat goes silent) only the FIRST time it is
# built, recording the attempt in a flag directory shared with the
# parent.  Attempt two — the isolation re-dispatch after the watchdog
# kill — builds the real relation and completes the point.


def hang_once_workload(label, flag_dir: str = "") -> Relation:
    flag = Path(flag_dir) / f"hung-{label}"
    if not flag.exists():
        flag.touch()
        time.sleep(600)
    return Relation.from_rows(
        ["A", "B"], [(1, 1), (2, 1), (3, 2)], name=f"point-{label}"
    )


class TestHungWorkerEndToEnd:
    def test_watchdog_kills_hang_and_point_completes_via_redispatch(
        self, tmp_path
    ):
        task = PointTask(
            label="p0",
            workload=WorkloadSpec(
                hang_once_workload, kwargs={"flag_dir": str(tmp_path)}
            ),
            algorithms=("holistic_fun",),
            framework=FrameworkSpec(),
        )
        started = time.monotonic()
        results = list(run_sweep_points([task], jobs=1, watchdog_grace=1.0))
        elapsed = time.monotonic() - started
        assert elapsed < 120, "watchdog never fired; sweep only unblocked late"
        assert len(results) == 1
        label, record = results[0]
        assert label == "p0"
        point = SweepPoint.from_record(record)
        # The hang was killed, the isolation round re-built the workload
        # (flag now set → no hang) and the point completed normally.
        assert point.error is None
        assert [e.status for e in point.executions] == ["ok"]
        assert (tmp_path / "hung-p0").exists()

    def test_reproducible_hang_becomes_point_error(self, tmp_path):
        # A workload that hangs on *every* attempt: the solo round's
        # watchdog kills it again and the point is recorded as an error,
        # never raised and never stalled forever.
        task = PointTask(
            label="p0",
            workload=WorkloadSpec(always_hang_workload),
            algorithms=("holistic_fun",),
            framework=FrameworkSpec(),
        )
        results = list(run_sweep_points([task], jobs=1, watchdog_grace=1.0))
        assert len(results) == 1
        point = SweepPoint.from_record(results[0][1])
        assert point.error is not None
        assert "worker failed after 2 attempts" in point.error
        assert point.executions == []


def always_hang_workload(label) -> Relation:
    time.sleep(600)
    raise AssertionError("unreachable")
