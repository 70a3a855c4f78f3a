"""End-to-end benchmark of the profiler.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uniprot_rows --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --self-test

Load model: a closed loop with one client.  This process builds the
seeded inputs (untimed), then starts one fresh child process at a time
(``child.py``); each child sets up, runs one workload's operations back
to back and exits.  A timed run (``--trace 0``) starts ``CHILDREN``
children that share ``--seconds`` of measuring; a traced run
(``--trace 1``) starts one child that alternates untraced and traced
operations.  Everything runs with one job, sized for a 2-core machine.

Workloads (why each one is here):

* ``uniprot_rows`` -- 50,000 x 10 ``uniprot``-shaped rows through
  ``repro CSV --pli-backend numpy``: ingest-bound, small lattice; shows
  ingest, fingerprint, PLI-build and SPIDER changes on the NumPy kernel.
* ``ionosphere_cols`` -- 19 columns x 351 rows, python kernel:
  lattice-bound (the R minus Z sub-lattice walks); ingest is negligible, so
  an ingest change must show no change here.
* ``uniprot_append`` -- a 50,000-row base profiled during set-up, then
  1% batches (500 rows), each one ``read_csv`` + ``maintain``: the
  write path (delta-PLI merges, refute-only re-validation).
* ``schema_dir`` -- 15 CSVs through ``repro profile-schema --jobs 1``:
  a parent, 11 FK children, two byte-identical copies and one
  ``ncvoter``-shaped table; the only workload exercising ``schema``.

End-to-end metrics (timed runs): ``setup_s`` (child start until the first
operation can begin, median over the children), ``wall_s`` (median
seconds per operation), ``peak_rss_mib`` (largest child ``ru_maxrss``).
The last line of standard output is the JSON result; the lines before it
give each metric with its sample count, the failure ratio and a stamp
(source digest, machine, versions, input digests).

Every operation's output is checked against ``expected.json``, written
once by ``expected.py`` and cross-checked there against an independent
algorithm.  Any failed operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

#: Children per timed run; ``setup_s`` is their median set-up.
CHILDREN = 3
#: Seconds a child may run past its share before it is killed.
CHILD_GRACE = 150

SIZES = {
    "full": {
        "uniprot_rows": 50_000,
        "ionosphere_cols": 19,
        "append_base": 50_000,
        "append_batches": 50,
        "schema": {"children": 11, "child_rows": 3_000, "copies": 2, "voter_rows": 2_000},
    },
    "smoke": {
        "uniprot_rows": 1_500,
        "ionosphere_cols": 8,
        "append_base": 2_000,
        "append_batches": 4,
        "schema": {"children": 3, "child_rows": 300, "copies": 1, "voter_rows": 300},
    },
}

BACKENDS = {
    "uniprot_rows": "numpy",
    "ionosphere_cols": "python",
    "uniprot_append": "python",
    "schema_dir": "python",
}


def build_inputs(workload: str, size: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    """Write the workload's inputs for ``seed`` under ``workdir``.

    Returns ``(inputs, stamp)``: the paths the child reads, and the shape
    and SHA-256 digest of every file written."""
    sizes = SIZES[size]
    table = gen.cipher(seed)
    if workload in ("uniprot_rows", "ionosphere_cols"):
        if workload == "uniprot_rows":
            header, rows = gen.uniprot(sizes["uniprot_rows"])
        else:
            header, rows = gen.ionosphere(sizes["ionosphere_cols"])
        path = workdir / f"{workload}.csv"
        digest = gen.write_csv(path, header, rows, table)
        return {"csv": str(path)}, {
            "rows": len(rows), "columns": len(header), "digests": {path.name: digest},
        }
    if workload == "uniprot_append":
        base = sizes["append_base"]
        step = max(1, base // 100)
        header, rows = gen.uniprot(base + step * sizes["append_batches"])
        digests = {"base.csv": gen.write_csv(workdir / "base.csv", header, rows[:base], table)}
        batches = []
        for index in range(sizes["append_batches"]):
            name = f"batch_{index:03d}.csv"
            chunk = rows[base + index * step: base + (index + 1) * step]
            digests[name] = gen.write_csv(workdir / name, header, chunk, table)
            batches.append(str(workdir / name))
        return {"base": str(workdir / "base.csv"), "batches": batches}, {
            "rows": base, "batch_rows": step, "columns": len(header), "digests": digests,
        }
    if workload == "schema_dir":
        root = workdir / "schema"
        digests = gen.star_schema(root, table=table, **sizes["schema"])
        return {"directory": str(root)}, {
            "tables": len(digests),
            "rows": sum(
                sum(1 for _ in (root / name).open(encoding="utf-8")) - 1
                for name in digests
            ),
            "digests": digests,
        }
    raise ValueError(f"unknown workload {workload!r}")


def expected_output(workload: str, size: str):
    document = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return document[size][workload]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(workload: str, seed: int, shape: dict) -> dict:
    """Where and on what a result was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:
        numpy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": BACKENDS[workload],
        **shape,
    }


class ChildFailed(RuntimeError):
    """A child could not set up or did not report: no result exists."""


def run_child(plan: dict, workdir: Path) -> dict:
    """Start one child, time its set-up from outside, collect its report
    and its resource usage.  Waits for the child to end in every case."""
    plan_path = workdir / f"plan-{time.monotonic_ns()}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    # Program defaults only, and temporary files inside the work directory.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = str(workdir / "tmp")
    (workdir / "tmp").mkdir(exist_ok=True)
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(plan_path)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT, env=env,
        text=True,
    )
    killer = threading.Timer(plan["seconds"] + CHILD_GRACE, process.kill)
    killer.start()
    try:
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - started
        report_line = process.stdout.readline() if ready.strip() == "ready" else ""
        process.stdout.read()
    finally:
        killer.cancel()
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
        process.stdout.close()
    if ready.strip() != "ready" or not report_line or process.returncode != 0:
        raise ChildFailed(
            f"{plan['workload']} child exited with code {process.returncode} "
            f"({'after' if ready.strip() == 'ready' else 'before'} set-up)"
        )
    report = json.loads(report_line)
    report["setup_s"] = setup_s
    report["peak_rss_mib"] = usage.ru_maxrss / 1024.0
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", expected=None) -> tuple[dict, list[str]]:
    """One benchmark run.  Returns ``(result, report lines)``."""
    if workload not in BACKENDS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {sorted(BACKENDS)}")
    workdir = HERE / "_work" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        inputs, shape = build_inputs(workload, size, seed, workdir)
        plan = {
            "workload": workload,
            "backend": BACKENDS[workload],
            "inputs": inputs,
            "expected": expected if expected is not None else expected_output(workload, size),
            "workdir": str(workdir),
            "mode": "traced" if trace else "timed",
        }
        if trace:
            reports = [run_child({**plan, "seconds": seconds, "min_ops": 2}, workdir)]
        else:
            reports = [
                run_child({**plan, "seconds": seconds / CHILDREN, "min_ops": 1}, workdir)
                for _ in range(CHILDREN)
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's files are still there

    ops = [op for report in reports for op in report["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    lines = [f"stamp {json.dumps(stamp(workload, seed, shape), sort_keys=True)}"]
    lines += [f"failed op: {op['error']}" for op in failed[:5]]
    lines.append(
        f"failed_ratio = {len(failed) / max(1, len(ops)):.4f} "
        f"({len(failed)} of {len(ops)} operations)"
    )
    if trace:
        metrics = traced_metrics(workload, reports[0], lines)
    else:
        good = [op["seconds"] for op in ops if op["error"] is None] or [
            op["seconds"] for op in ops
        ]
        setups = [report["setup_s"] for report in reports]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(good), "unit": "s"},
            "peak_rss_mib": {
                "value": max(report["peak_rss_mib"] for report in reports),
                "unit": "MiB",
            },
        }
        lines.append(f"setup_s = {metrics['setup_s']['value']:.4f} s "
                     f"(median of {len(setups)} child set-ups)")
        lines.append(f"wall_s = {metrics['wall_s']['value']:.4f} s "
                     f"(median of {len(good)} operations)")
        lines.append(f"peak_rss_mib = {metrics['peak_rss_mib']['value']:.1f} MiB "
                     f"(largest of {len(reports)} children)")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, lines


#: Per-layer metrics: name -> unit.  Seconds are medians over the traced
#: operations; counters are those of the first traced operation.
LAYER_UNITS = {
    "relation.read_csv_s": "s", "relation.read_csv_rss_mib": "MiB",
    "relation.deduplicate_s": "s", "relation.fingerprint_s": "s",
    "core.profile_s": "s", "pli.build_s": "s", "algorithms.spider_s": "s",
    "algorithms.ducc_s": "s", "core.minimize_fds_s": "s", "core.r_minus_z_s": "s",
    "core.shadowed_s": "s", "core.completion_s": "s",
    "pli.intersections": "count", "pli.probe_builds": "count",
    "pli.probe_reuses": "count", "pli.refine_calls": "count",
    "pli.refine_cluster_scans": "count", "pli.cache_hits": "count",
    "pli.cache_misses": "count", "pli.cache_evictions": "count",
    "pli.cache_hit_ratio": "ratio",
    "core.fd_checks": "count", "core.ucc_checks": "count",
    "core.sublattice_checks": "count", "core.check_cache_hits": "count",
    "sampling.fd_queries": "count", "sampling.fd_refuted": "count",
    "sampling.refute_ratio": "ratio", "sampling.exact_avoided": "count",
    "metadata.dumps_s": "s",
    "incremental.profile_base_s": "s", "incremental.maintain_s": "s",
    "pli.delta_merges": "count", "pli.delta_reclustered_rows": "count",
    "incremental.refuted_fds": "count", "incremental.refuted_uccs": "count",
    "incremental.composites_deferred": "count",
    "schema.load_s": "s", "schema.tables_s": "s", "schema.profile_schema_s": "s",
    "algorithms.spider_across_s": "s", "schema.dedup_hits": "count",
    "schema.inds_across": "count", "schema.fk_candidates": "count",
    "trace.coverage": "ratio", "trace.overhead_ratio": "ratio",
}

_CACHE = ("pli.cache_hits", "pli.cache_misses", "pli.cache_evictions", "pli.cache_hit_ratio")

#: Layers a workload's calls do not reach from outside, and why.
ABSENT = {
    "schema_dir": {
        **dict.fromkeys(_CACHE, "profile_schema builds its PLI stores inside"),
        "relation.read_csv_rss_mib": "profile_schema reads the tables inside",
        "relation.deduplicate_s": "profile_schema does not deduplicate rows",
        "relation.fingerprint_s": "computed while the CSV is read",
        "core.profile_s": "per-table profiles are summed in schema.tables_s",
    },
    "uniprot_append": {
        **dict.fromkeys(_CACHE, "IncrementalProfiler builds its PLI store inside"),
        "core.profile_s": "the base profile is incremental.profile_base_s",
    },
}


def traced_metrics(workload: str, report: dict, lines: list[str]) -> dict:
    traced = report["traced"]
    plain = [op["seconds"] for op in report["ops"] if not op["traced"] and op["error"] is None]
    metrics = {}
    if not traced or not plain:
        return metrics
    first = traced[0]
    merged = {**report["setup_spans"], **first}
    for name, unit in LAYER_UNITS.items():
        if unit == "s" and name in first:
            value = statistics.median(layers[name] for layers in traced)
        else:
            value = merged.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    coverage = [layers["trace.top_level_s"] / layers["trace.op_s"] for layers in traced]
    metrics["trace.coverage"]["value"] = min(coverage)
    metrics["trace.overhead_ratio"]["value"] = (
        statistics.median(layers["trace.op_s"] for layers in traced)
        / statistics.median(plain)
    )
    lines.append(
        f"traced {len(traced)} operations beside {len(plain)} untraced; "
        f"trace.coverage = {min(coverage):.4f} (lowest)"
    )
    for name, reason in ABSENT.get(workload, {}).items():
        lines.append(f"absent on {workload}: {name} -- {reason}")
    unreached = sorted(
        name for name in LAYER_UNITS
        if name not in merged and not name.startswith("trace.")
        and name not in ABSENT.get(workload, {})
    )
    if unreached:
        lines.append(f"not exercised by {workload} (reported as 0): {', '.join(unreached)}")
    return metrics


def self_test() -> int:
    """Shrunken end-to-end pass over every workload (seconds, not minutes).

    Asserts that every metric named in BENCHMARK.json is emitted, that
    two traced runs at one seed give identical work counters, and that a
    wrong expected output is reported as a failure, not as a number."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        known = len(problems)
        timed, _ = measure(workload, 7, 1.0, False, size="smoke")
        traced, _ = measure(workload, 7, 1.0, True, size="smoke")
        again, _ = measure(workload, 7, 1.0, True, size="smoke")
        for result, names in ((timed, end_to_end), (traced, per_layer)):
            if not result["correct"]:
                problems.append(f"{workload}: failed operations in the smoke run")
            if set(result["metrics"]) != names:
                problems.append(f"{workload}: metrics {sorted(set(result['metrics']) ^ names)}")
        counts = {n: m["value"] for n, m in traced["metrics"].items() if m["unit"] == "count"}
        counts_again = {n: m["value"] for n, m in again["metrics"].items() if m["unit"] == "count"}
        if counts != counts_again:
            problems.append(f"{workload}: work counters differ between two traced runs")
        wrong = expected_output(workload, "smoke")
        if isinstance(wrong, str):
            wrong = "0" * len(wrong)
        elif isinstance(wrong, list):
            wrong = ["0" * len(wrong[0])] * len(wrong)
        else:
            wrong = {**wrong, "cross_inds": []}
        bad, _ = measure(workload, 7, 1.0, False, size="smoke", expected=wrong)
        if bad["correct"] or bad["failed"] == 0:
            problems.append(f"{workload}: a wrong expected output was not reported as failed")
        print(f"self-test {workload}: {'ok' if len(problems) == known else 'problems'}", flush=True)
    for problem in problems:
        print(f"self-test problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help=f"one of {sorted(BACKENDS)}, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload shrunken and check the benchmark itself")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    workloads = list(BACKENDS) if args.workload == "all" else [args.workload]
    code = 0
    for workload in workloads:
        try:
            result, lines = measure(workload, args.seed, args.seconds, bool(args.trace))
        except ChildFailed as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        for line in lines:
            print(line)
        print(json.dumps(result), flush=True)
        code = code or (0 if result["correct"] else 1)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
