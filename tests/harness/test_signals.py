"""Graceful SIGTERM/SIGINT shutdown: in-process semantics plus real
subprocess runs of the CLI and the sweep runner.

The contract: a termination signal unwinds cleanly (journal flushed,
checkpoint kept), the interrupted execution is marked ``interrupted``
(never an ERR cell), the process exits with the distinct code 4, and a
re-run resumes instead of starting over.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.harness import (
    EXIT_INTERRUPTED,
    Framework,
    Interrupted,
    default_framework,
    graceful_shutdown,
)
from repro.relation.relation import Relation

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def toy() -> Relation:
    return Relation.from_rows(
        ["A", "B", "C"],
        [(1, 1, 2), (2, 1, 2), (3, 2, 4), (4, 2, 4)],
        name="toy",
    )


class TestGracefulShutdown:
    def test_signal_raises_interrupted_in_scope(self):
        with pytest.raises(Interrupted) as excinfo:
            with graceful_shutdown():
                os.kill(os.getpid(), signal.SIGTERM)
        assert excinfo.value.signum == signal.SIGTERM
        assert "SIGTERM" in str(excinfo.value)

    def test_handlers_are_restored_after_scope(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_shutdown():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_noop_outside_main_thread(self):
        import threading

        outcome = {}

        def run():
            with graceful_shutdown():
                outcome["ok"] = True

        worker = threading.Thread(target=run)
        worker.start()
        worker.join()
        assert outcome == {"ok": True}


class _SelfInterruptingProfiler:
    """Stands in for a profiler hit by SIGTERM mid-traversal."""

    def profile(self, relation):
        raise Interrupted(signal.SIGTERM)


class TestFrameworkInterruption:
    def test_interrupted_execution_is_marked_and_reraised(self):
        framework = Framework()
        framework.register("slow", _SelfInterruptingProfiler)
        with pytest.raises(Interrupted):
            framework.run("slow", toy())
        execution = framework.executions[-1]
        assert execution.status == "interrupted"
        assert execution.marker == "INT"
        assert "SIGTERM" in execution.error

    def test_interruption_is_never_an_err_cell(self):
        framework = Framework()
        framework.register("slow", _SelfInterruptingProfiler)
        with pytest.raises(Interrupted):
            framework.run("slow", toy())
        assert all(e.status != "error" for e in framework.executions)


# -- subprocess: the CLI ------------------------------------------------------


def run_script(tmp_path, name: str, body: str, *argv: str):
    script = tmp_path / name
    script.write_text(textwrap.dedent(body))
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(script), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=str(tmp_path),
    )


@pytest.fixture
def big_csv(tmp_path):
    import random

    # Wide enough that muds takes on the order of a second, so a timer
    # firing a fraction of the way in reliably lands mid-traversal.
    rng = random.Random(11)
    columns = [f"c{i}" for i in range(15)]
    lines = [",".join(columns)]
    lines += [
        ",".join(str(rng.randrange(3)) for _ in columns) for _ in range(900)
    ]
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


CLI_INTERRUPT_SCRIPT = """
    import os, signal, sys, threading
    from repro.cli import main

    csv_path, checkpoint_dir, delay = sys.argv[1], sys.argv[2], sys.argv[3]
    timer = None
    if float(delay) >= 0:
        timer = threading.Timer(
            float(delay), lambda: os.kill(os.getpid(), signal.SIGTERM)
        )
        timer.start()
    rc = main(
        [
            csv_path,
            "--algorithm",
            "muds",
            "--checkpoint-dir",
            checkpoint_dir,
            "--no-result-cache",
            "--json",
            "out.json",
        ]
    )
    if timer is not None:
        timer.cancel()
    raise SystemExit(rc)
"""


class TestCliSubprocess:
    def test_sigterm_exits_4_and_rerun_resumes_with_parity(
        self, tmp_path, big_csv
    ):
        ckpt = tmp_path / "ckpt"
        interrupted = run_script(
            tmp_path,
            "interrupt_cli.py",
            CLI_INTERRUPT_SCRIPT,
            str(big_csv),
            str(ckpt),
            "0.3",
        )
        # Defensive: on a very fast machine the run may finish before the
        # timer fires (rc 0, or -SIGTERM if the cancel raced the timer);
        # the interesting assertions need the interrupt.
        if interrupted.returncode != EXIT_INTERRUPTED:
            pytest.skip("profile finished before the signal was delivered")
        assert "stopping cleanly" in interrupted.stderr
        assert "checkpoint kept" in interrupted.stderr

        resumed = run_script(
            tmp_path,
            "interrupt_cli.py",
            CLI_INTERRUPT_SCRIPT,
            str(big_csv),
            str(ckpt),
            "-1",
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming muds from checkpoint" in resumed.stderr
        resumed_payload = json.loads((tmp_path / "out.json").read_text())

        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        reference = run_script(
            fresh_dir,
            "interrupt_cli.py",
            CLI_INTERRUPT_SCRIPT,
            str(big_csv),
            str(tmp_path / "ckpt-unused"),
            "-1",
        )
        assert reference.returncode == 0, reference.stderr
        reference_payload = json.loads((fresh_dir / "out.json").read_text())
        # Wall-clock timings are the one documented parity exclusion.
        resumed_payload.pop("phase_seconds", None)
        reference_payload.pop("phase_seconds", None)
        assert resumed_payload == reference_payload

    def test_completed_run_cleans_up_its_checkpoint(self, tmp_path, big_csv):
        ckpt = tmp_path / "ckpt"
        finished = run_script(
            tmp_path,
            "interrupt_cli.py",
            CLI_INTERRUPT_SCRIPT,
            str(big_csv),
            str(ckpt),
            "-1",
        )
        assert finished.returncode == 0, finished.stderr
        leftovers = list(ckpt.rglob("*.ckpt.json")) if ckpt.exists() else []
        assert leftovers == []


# -- subprocess: the sweep runner ---------------------------------------------

SWEEP_INTERRUPT_SCRIPT = """
    import os, signal, sys
    from pathlib import Path

    from repro.harness import (
        EXIT_INTERRUPTED,
        ExperimentRunner,
        Interrupted,
        SweepJournal,
        default_framework,
    )
    from repro.relation.relation import Relation

    flag_dir = Path(sys.argv[1])

    def workload(n_rows):
        # Deliver SIGTERM while building the SECOND point, once.
        if int(n_rows) == 6 and not (flag_dir / "sent").exists():
            (flag_dir / "sent").touch()
            os.kill(os.getpid(), signal.SIGTERM)
        return Relation.from_rows(
            ["A", "B"],
            [(i, i % 2) for i in range(int(n_rows))],
            name=f"toy[{n_rows}]",
        )

    runner = ExperimentRunner(default_framework(), algorithms=("holistic_fun",))
    journal = SweepJournal(flag_dir / "sweep.jsonl")
    try:
        runner.sweep([4, 6], workload, journal=journal, handle_signals=True)
    except Interrupted:
        raise SystemExit(EXIT_INTERRUPTED)
    raise SystemExit(0)
"""


class TestSweepSubprocess:
    def test_sweep_interrupt_keeps_journal_and_resumes(self, tmp_path):
        first = run_script(
            tmp_path, "interrupt_sweep.py", SWEEP_INTERRUPT_SCRIPT,
            str(tmp_path),
        )
        assert first.returncode == EXIT_INTERRUPTED, first.stderr
        # The finished point was journaled before the signal; the
        # interrupted point was not.
        journal_lines = (
            (tmp_path / "sweep.jsonl").read_text().strip().splitlines()
        )
        assert len(journal_lines) == 1

        second = run_script(
            tmp_path, "interrupt_sweep.py", SWEEP_INTERRUPT_SCRIPT,
            str(tmp_path),
        )
        assert second.returncode == 0, second.stderr
        journal_lines = (
            (tmp_path / "sweep.jsonl").read_text().strip().splitlines()
        )
        assert len(journal_lines) == 2
