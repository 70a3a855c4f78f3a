"""Tests for the command-line interface."""

import json
import random

import pytest

from repro.cli import (
    build_cache_parser,
    build_parser,
    build_schema_parser,
    build_watch_parser,
    main,
)
from repro.core.profiler import profile
from repro.faults import FAULTS, PROFILER_STEP
from repro.harness import ResultCache, default_framework
from repro.metadata.serialize import result_to_dict
from repro.pli import backend as _backend
from repro.relation import Relation, encoded as _storage, read_csv, write_csv


@pytest.fixture
def csv_path(tmp_path, employees):
    path = tmp_path / "employees.csv"
    write_csv(employees, path)
    return path


class TestParser:
    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_csv_and_dataset_are_exclusive(self, csv_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args([str(csv_path), "--dataset", "iris"])


class TestTextOutput:
    def test_profile_csv(self, csv_path, capsys):
        assert main([str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "minimal functional dependencies" in out
        assert "employee_id" in out
        assert "phase seconds" in out

    def test_builtin_dataset(self, capsys):
        assert main(["--dataset", "iris", "--max-rows", "60"]) == 0
        out = capsys.readouterr().out
        assert "minimal unique column combinations" in out

    def test_stats_flag(self, csv_path, capsys):
        assert main([str(csv_path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "per-column statistics" in out
        assert "distinct=" in out

    def test_algorithm_choice(self, csv_path, capsys):
        assert main([str(csv_path), "--algorithm", "baseline"]) == 0

    def test_as_published_flag(self, csv_path, capsys):
        assert main([str(csv_path), "--algorithm", "muds", "--as-published"]) == 0

    def test_max_rows(self, csv_path, capsys):
        assert main([str(csv_path), "--max-rows", "2"]) == 0


class TestJsonOutput:
    def test_json_to_stdout(self, csv_path, capsys):
        assert main([str(csv_path), "--json", "-"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format_version"] == 1
        assert "employee_id" in document["columns"]

    def test_json_to_file_roundtrips(self, csv_path, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert main([str(csv_path), "--json", str(out_path)]) == 0
        from repro.metadata import loads

        result = loads(out_path.read_text())
        assert result.fds


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["/does/not/exist.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_dataset(self, capsys):
        assert main(["--dataset", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestDuplicateHandling:
    def test_deduplicates_by_default(self, tmp_path, capsys):
        rel = Relation.from_rows(["A", "B"], [(1, 2), (1, 2), (3, 4)])
        path = tmp_path / "dups.csv"
        write_csv(rel, path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "UCCs" in out

    def test_keep_duplicates_flag(self, tmp_path, capsys):
        rel = Relation.from_rows(["A", "B"], [(1, 2), (1, 2), (3, 4)])
        path = tmp_path / "dups.csv"
        write_csv(rel, path)
        assert main([str(path), "--keep-duplicates"]) == 0
        out = capsys.readouterr().out
        assert "duplicate rows" in out  # the no-UCCs hint

    def test_no_ucc_explained_by_kept_duplicates(self, tmp_path, capsys):
        path = tmp_path / "dups.csv"
        path.write_text("a,b\n1,2\n1,2\n", encoding="utf-8")
        assert main([str(path), "--keep-duplicates", "--no-result-cache"]) == 0
        out = capsys.readouterr().out
        assert "(none — the relation has duplicate rows)" in out
        assert "?" not in out

    def test_no_ucc_explained_by_missing_columns(self, tmp_path, capsys):
        # A one-byte file: an empty header line, so zero columns.
        path = tmp_path / "empty.csv"
        path.write_bytes(b"\n")
        assert main([str(path), "--no-result-cache"]) == 0
        out = capsys.readouterr().out
        assert "(none — the relation has no columns)" in out
        assert "duplicate" not in out


class TestResultCacheFlags:
    def test_second_invocation_hits_the_cache(self, csv_path, capsys):
        assert main([str(csv_path), "--algorithm", "muds"]) == 0
        capsys.readouterr()
        assert main([str(csv_path), "--algorithm", "muds"]) == 0
        captured = capsys.readouterr()
        assert "result cache hit for muds" in captured.err
        # The cached profile prints the same report a computed one does.
        assert "minimal functional dependencies" in captured.out

    def test_no_result_cache_always_recomputes(self, csv_path, capsys):
        assert main([str(csv_path), "--no-result-cache"]) == 0
        capsys.readouterr()
        assert main([str(csv_path), "--no-result-cache"]) == 0
        assert "result cache hit" not in capsys.readouterr().err

    def test_explicit_cache_dir(self, csv_path, tmp_path, capsys):
        cache_dir = tmp_path / "explicit-cache"
        argv = [str(csv_path), "--result-cache", str(cache_dir)]
        assert main(argv) == 0
        assert any(cache_dir.rglob("*.json"))
        capsys.readouterr()
        assert main(argv) == 0
        assert "result cache hit" in capsys.readouterr().err

    def test_budgeted_runs_bypass_the_cache(self, csv_path, capsys):
        assert main([str(csv_path)]) == 0  # populate
        capsys.readouterr()
        # Even a generous deadline disables the cache: partials are a
        # property of the budget, not the input.
        assert main([str(csv_path), "--deadline", "60"]) == 0
        assert "result cache hit" not in capsys.readouterr().err

    def test_cached_and_computed_json_are_identical(self, csv_path, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main([str(csv_path), "--json", str(first)]) == 0
        assert main([str(csv_path), "--json", str(second)]) == 0
        computed = json.loads(first.read_text())
        cached = json.loads(second.read_text())
        for volatile in ("phase_seconds",):
            computed.pop(volatile, None)
            cached.pop(volatile, None)
        assert computed == cached


class TestJobsFlag:
    def test_jobs_zero_rejected(self, csv_path, capsys):
        assert main([str(csv_path), "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_baseline_with_jobs(self, csv_path, capsys):
        argv = [str(csv_path), "--algorithm", "baseline", "--jobs", "2",
                "--no-result-cache"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "minimal functional dependencies" in out


class TestSetupErrors:
    """Bad run options end in ``error:`` and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--deadline", "-1", "deadline_seconds"),
            ("--max-intersections", "-5", "max_intersections"),
            ("--max-cluster-bytes", "-1", "max_cluster_bytes"),
        ],
    )
    def test_negative_budget_rejected(self, csv_path, capsys, flag, value, field):
        assert main([str(csv_path), flag, value]) == 2
        assert f"error: {field} must be non-negative" in capsys.readouterr().err

    def test_negative_budget_rejected_by_profile_schema(self, csv_path, capsys):
        argv = ["profile-schema", str(csv_path.parent), "--deadline", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: deadline_seconds must be non-negative" in captured.err
        assert captured.out == ""

    def test_unwritable_json_path(self, csv_path, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        assert main([str(csv_path), "--json", str(target)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_json_path_in_profile_schema(self, csv_path, tmp_path, capsys):
        target = tmp_path / "missing" / "c.json"
        argv = ["profile-schema", str(csv_path.parent), "--json", str(target)]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


class TestCrashContainment:
    """A crashing profiler ends in ``error:`` and exit 1, never a
    traceback, and its checkpoint survives for the next attempt."""

    @pytest.fixture
    def wide_csv(self, tmp_path):
        rng = random.Random(5)
        lines = ["a,b,c,d,e,f"]
        lines += [
            ",".join(str(rng.randrange(3)) for _ in range(6)) for _ in range(60)
        ]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        FAULTS.disarm()

    def test_injected_fault_exits_1(self, wide_csv, capsys):
        FAULTS.arm(PROFILER_STEP, at=1)
        assert main([str(wide_csv), "--no-result-cache"]) == 1
        captured = capsys.readouterr()
        assert "error: FaultInjected: " in captured.err
        assert captured.out == ""

    def test_checkpoint_kept_and_resumed(self, wide_csv, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        argv = [str(wide_csv), "--algorithm", "muds", "--no-result-cache",
                "--checkpoint-dir", str(ckpt)]
        FAULTS.arm(PROFILER_STEP, at=5)
        assert main(argv) == 1
        assert "error: FaultInjected: " in capsys.readouterr().err
        assert list(ckpt.rglob("*.ckpt.json"))
        FAULTS.disarm()
        assert main(argv) == 0
        assert "resuming muds from checkpoint" in capsys.readouterr().err
        assert not list(ckpt.rglob("*.ckpt.json"))


def _cli_cache_config():
    """The configuration a default ``repro CSV`` run keys its cache with."""
    return {
        "seed": 0,
        "as_published": False,
        "sampling": True,
        "pli_backend": _backend.ACTIVE.name,
        "storage": _storage.ACTIVE,
    }


class TestOneCachePayload:
    """The CLI and ``Framework.run`` read and write one entry shape."""

    def test_cli_entry_serves_the_framework(self, csv_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [str(csv_path), "--algorithm", "holistic_fun",
                "--result-cache", str(cache_dir)]
        assert main(argv) == 0
        execution = default_framework().run(
            "holistic_fun",
            read_csv(csv_path).deduplicated(),
            cache=ResultCache(cache_dir),
            cache_config=_cli_cache_config(),
        )
        assert execution.cached

    def test_framework_entry_serves_the_cli(self, csv_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        execution = default_framework().run(
            "holistic_fun",
            read_csv(csv_path).deduplicated(),
            cache=ResultCache(cache_dir),
            cache_config=_cli_cache_config(),
        )
        assert not execution.cached
        argv = [str(csv_path), "--algorithm", "holistic_fun",
                "--result-cache", str(cache_dir)]
        assert main(argv) == 0
        assert "result cache hit for holistic_fun" in capsys.readouterr().err

    def test_bare_result_entry_is_recomputed_and_replaced(
        self, csv_path, tmp_path, capsys
    ):
        relation = read_csv(csv_path).deduplicated()
        cache = ResultCache(tmp_path / "cache")
        config = _cli_cache_config()
        bare = result_to_dict(profile(relation, algorithm="holistic_fun"))
        cache.put(relation.fingerprint(), "holistic_fun", bare, config)
        argv = [str(csv_path), "--algorithm", "holistic_fun",
                "--result-cache", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "result cache hit" not in capsys.readouterr().err
        record = cache.get(relation.fingerprint(), "holistic_fun", config)
        assert record["algorithm"] == "holistic_fun"
        assert main(argv) == 0
        assert "result cache hit" in capsys.readouterr().err


def _surface(parser):
    """Every argument's parse-relevant attributes, and the exclusive groups."""
    actions = {
        " ".join(action.option_strings) or action.dest: (
            action.dest,
            action.default,
            tuple(action.choices) if action.choices else None,
            action.nargs,
            getattr(action.type, "__name__", None),
            type(action).__name__,
        )
        for action in parser._actions
        if not action.option_strings or action.option_strings[0] != "-h"
    }
    groups = sorted(
        (
            tuple(sorted(
                " ".join(action.option_strings) or action.dest
                for action in group._group_actions
            )),
            group.required,
        )
        for group in parser._mutually_exclusive_groups
    )
    return actions, groups


_ALGORITHMS = ("auto", "muds", "holistic_fun", "baseline")
_SAMPLING_GROUP = (("--no-sampling", "--sampling"), False)
# Recorded from the four parsers before their shared flags were factored
# into parent parsers; any drift in grammar shows up here.
_PROFILE_FLAGS = {
    "--algorithm": ("algorithm", "auto", _ALGORITHMS, None, None, "_StoreAction"),
    "--seed": ("seed", 0, None, None, "int", "_StoreAction"),
    "--delimiter": ("delimiter", ",", None, None, None, "_StoreAction"),
    "--no-header": ("no_header", False, None, 0, None, "_StoreTrueAction"),
    "--sampling": ("sampling", True, None, 0, None, "_StoreTrueAction"),
    "--no-sampling": ("sampling", True, None, 0, None, "_StoreFalseAction"),
    "--trace": ("trace", None, None, None, None, "_StoreAction"),
    "--json": ("json", None, None, None, None, "_StoreAction"),
}
_LIMIT_FLAGS = {
    "--deadline": ("deadline", None, None, None, "float", "_StoreAction"),
    "--max-intersections": (
        "max_intersections", None, None, None, "int", "_StoreAction"
    ),
    "--max-cluster-bytes": (
        "max_cluster_bytes", None, None, None, "int", "_StoreAction"
    ),
    "--jobs": ("jobs", 1, None, None, "int", "_StoreAction"),
    "--checkpoint-dir": ("checkpoint_dir", None, None, None, None, "_StoreAction"),
}
_SUBSTRATE_FLAGS = {
    "--pli-backend": (
        "pli_backend", None, ("python", "numpy"), None, None, "_StoreAction"
    ),
    "--storage": ("storage", None, ("encoded", "mmap"), None, None, "_StoreAction"),
}
_RESULT_CACHE_FLAG = {
    "--result-cache": ("result_cache", None, None, None, None, "_StoreAction"),
}


class TestSurface:
    def test_profile_parser(self):
        assert _surface(build_parser()) == (
            {
                "csv": ("csv", None, None, "?", None, "_StoreAction"),
                "--dataset": ("dataset", None, None, None, None, "_StoreAction"),
                "--as-published": (
                    "as_published", False, None, 0, None, "_StoreTrueAction"
                ),
                "--max-rows": ("max_rows", None, None, None, "int", "_StoreAction"),
                "--keep-duplicates": (
                    "keep_duplicates", False, None, 0, None, "_StoreTrueAction"
                ),
                "--stats": ("stats", False, None, 0, None, "_StoreTrueAction"),
                "--no-result-cache": (
                    "no_result_cache", False, None, 0, None, "_StoreTrueAction"
                ),
                "--append": ("append", None, None, None, None, "_AppendAction"),
                **_PROFILE_FLAGS,
                **_LIMIT_FLAGS,
                **_SUBSTRATE_FLAGS,
                **_RESULT_CACHE_FLAG,
            },
            [(("--dataset", "csv"), True), _SAMPLING_GROUP],
        )

    def test_schema_parser(self):
        assert _surface(build_schema_parser()) == (
            {
                "directory": ("directory", None, None, None, None, "_StoreAction"),
                "--no-resume": ("no_resume", False, None, 0, None, "_StoreTrueAction"),
                "--max-fk": ("max_fk", None, None, None, "int", "_StoreAction"),
                **_PROFILE_FLAGS,
                **_LIMIT_FLAGS,
            },
            [_SAMPLING_GROUP],
        )

    def test_watch_parser(self):
        assert _surface(build_watch_parser()) == (
            {
                "directory": ("directory", None, None, None, None, "_StoreAction"),
                "--interval": ("interval", 2.0, None, None, "float", "_StoreAction"),
                "--once": ("once", False, None, 0, None, "_StoreTrueAction"),
                "--max-batches": (
                    "max_batches", None, None, None, "int", "_StoreAction"
                ),
                **_PROFILE_FLAGS,
                **_SUBSTRATE_FLAGS,
            },
            [_SAMPLING_GROUP],
        )

    def test_cache_parser(self):
        assert _surface(build_cache_parser()) == (
            {
                "action": ("action", None, ("ls",), None, None, "_StoreAction"),
                **_RESULT_CACHE_FLAG,
            },
            [],
        )
