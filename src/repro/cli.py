"""Command-line interface: profile a CSV file (or built-in dataset).

Examples::

    python -m repro data.csv
    python -m repro data.csv --algorithm muds --json result.json
    python -m repro --dataset bridges --stats
    python -m repro data.csv --delimiter ';' --no-header --max-rows 5000
    python -m repro data.csv --algorithm baseline --jobs 3
    python -m repro data.csv --pli-backend numpy
    python -m repro big.csv --storage mmap
    python -m repro data.csv --no-result-cache
    python -m repro --dataset bridges --trace out.jsonl
    python -m repro profile-schema tables/ --jobs 4 --json catalog.json

``profile-schema DIR`` switches to the multi-table mode: every ``*.csv``
under DIR is profiled as one schema job (per-table FDs/UCCs/INDs,
content-identical tables deduplicated by fingerprint, one cross-table
SPIDER merge, ranked foreign-key candidates); see
``repro profile-schema --help``.

Completed profiles are cached under a content address of the input
(``Relation.fingerprint()``); re-profiling an identical file answers
from ``benchmarks/results/cache/`` (override with ``--result-cache`` /
``$REPRO_RESULT_CACHE_DIR``, disable with ``--no-result-cache``).

``--trace PATH`` (or ``REPRO_TRACE=PATH`` in the environment) records a
structured per-phase trace of the run — spans per algorithm phase and
lattice level with candidate/pruning counters — as JSONL, one event per
line (schema: ``docs/trace_schema.json``), and prints the per-phase
summary table after the profile.

``--checkpoint-dir DIR`` (or ``$REPRO_CHECKPOINT_DIR``) makes the run
restartable: the traversal snapshots its state at level/phase boundaries
into DIR, SIGTERM/SIGINT stop the run cleanly with exit code 4 (the
snapshot survives), and re-running the same command resumes from the last
completed boundary with bit-identical results.  A budget-stopped run
(exit code 3) keeps its snapshot too, so re-running without the budget
continues instead of starting over.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from . import trace as _trace
from .checkpointing import active_session
from .core.profiler import ALGORITHMS, choose_algorithm, profile
from .pli import backend as _pli_backend
from .relation import encoded as _storage
from .core.statistics import profile_statistics
from .guard import Budget, BudgetExceeded, guarded
from .harness.checkpoint import CheckpointStore
from .harness.result_cache import DEFAULT_CACHE_DIR, ResultCache
from .harness.signals import EXIT_INTERRUPTED, Interrupted, graceful_shutdown
from .metadata.results import ProfilingResult
from .metadata.serialize import dumps, result_from_dict, result_to_dict
from .relation.csv_io import read_csv
from .relation.relation import Relation

__all__ = [
    "main",
    "build_parser",
    "build_schema_parser",
    "schema_main",
    "build_watch_parser",
    "watch_main",
    "build_cache_parser",
    "cache_main",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Holistic data profiling: discover unary INDs, minimal UCCs, "
            "and minimal FDs of a relation in one pass (EDBT 2016 "
            "reproduction)."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("csv", nargs="?", help="path to a CSV file")
    source.add_argument(
        "--dataset",
        help="profile a built-in dataset instead (e.g. bridges, iris)",
    )
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="auto",
        help="profiling algorithm (default: the paper's §6.5 heuristic)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random-walk seed")
    parser.add_argument(
        "--as-published",
        action="store_true",
        help="run MUDS exactly as published (skip the completeness walk)",
    )
    parser.add_argument("--delimiter", default=",", help="CSV field separator")
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="CSV has no header row (columns become column_0..n)",
    )
    parser.add_argument(
        "--max-rows", type=int, default=None, help="profile only the first N rows"
    )
    parser.add_argument(
        "--keep-duplicates",
        action="store_true",
        help="skip the duplicate-row preprocessing step (§3)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="also print per-column statistics",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry print the partial results "
        "discovered so far and exit with code 3 (TL)",
    )
    parser.add_argument(
        "--max-intersections",
        type=int,
        default=None,
        metavar="N",
        help="PLI-intersection work budget; exceeded counts as TL",
    )
    parser.add_argument(
        "--max-cluster-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="estimated PLI cluster-memory budget; exceeded counts as ML",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the baseline algorithm's three "
        "independent tasks (SPIDER, DUCC, FUN); the holistic algorithms "
        "are single search processes and run with one",
    )
    parser.add_argument(
        "--pli-backend",
        choices=("python", "numpy"),
        default=None,
        help="PLI kernel backend: 'python' (zero-dependency, the default) "
        "or 'numpy' (vectorized; needs numpy installed). Results are "
        "bit-identical either way. Defaults to $REPRO_PLI_BACKEND, or "
        "'python' when unset",
    )
    parser.add_argument(
        "--storage",
        choices=_storage.STORAGE_MODES,
        default=None,
        help="where the dictionary-encoded int32 code arrays of every "
        "column live: 'encoded' (in memory, the default) or 'mmap' "
        "(spilled to memory-mapped files under $REPRO_SPILL_DIR so "
        "relations larger than RAM profile within a bounded footprint). "
        "Results are bit-identical in both modes. Defaults to "
        "$REPRO_STORAGE, or 'encoded' when unset",
    )
    sampling_group = parser.add_mutually_exclusive_group()
    sampling_group.add_argument(
        "--sampling",
        dest="sampling",
        action="store_true",
        default=True,
        help="enable the sampling-driven refutation engine (default): "
        "candidates refuted by a small row sample skip their exact PLI "
        "check; sampling only refutes, never accepts, so results are "
        "exact either way",
    )
    sampling_group.add_argument(
        "--no-sampling",
        dest="sampling",
        action="store_false",
        help="disable sample-based refutation; every candidate is "
        "validated on the exact PLI path",
    )
    parser.add_argument(
        "--result-cache",
        metavar="DIR",
        default=None,
        help="content-addressed result cache directory (default: "
        f"$REPRO_RESULT_CACHE_DIR or {DEFAULT_CACHE_DIR}); "
        "already-profiled inputs are answered from disk instead of "
        "recomputed",
    )
    parser.add_argument(
        "--no-result-cache",
        action="store_true",
        help="always recompute; neither read nor write the result cache",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="snapshot the traversal state at level/phase boundaries into "
        "DIR and resume from the last completed boundary when an earlier "
        "run of the same input/configuration was killed, interrupted, or "
        "budget-stopped (default: $REPRO_CHECKPOINT_DIR; checkpointing is "
        "off when neither is set). Results are bit-identical to an "
        "undisturbed run",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a structured per-phase trace of the run and write it "
        "as JSONL to PATH (one event per line; see docs/trace_schema.json). "
        "Defaults to $REPRO_TRACE when that holds a path; tracing is off "
        "otherwise",
    )
    parser.add_argument(
        "--append",
        action="append",
        default=None,
        metavar="BATCH_CSV",
        help="after profiling (or cache-hitting) the base input, append "
        "the rows of BATCH_CSV and incrementally maintain the result "
        "instead of re-profiling from scratch; repeatable — batches are "
        "applied in order, and each maintained result is cached under the "
        "grown relation's fingerprint with a parent_fingerprint link back "
        "to the pre-append entry (see 'repro cache ls')",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the result as JSON (use '-' for stdout)",
    )
    return parser


def _load(args: argparse.Namespace) -> Relation:
    if args.dataset:
        from .datasets.registry import load

        relation = load(args.dataset, n_rows=args.max_rows, seed=args.seed)
    else:
        relation = read_csv(
            args.csv, delimiter=args.delimiter, has_header=not args.no_header
        )
        if args.max_rows is not None:
            relation = relation.head(args.max_rows)
    if not args.keep_duplicates:
        relation = relation.deduplicated()
    return relation


def _print_text_report(result, stats_lines: list[str]) -> None:
    print(result.summary())
    print("\nunary inclusion dependencies:")
    for ind in result.inds:
        print(f"  {ind}")
    if not result.inds:
        print("  (none)")
    print("\nminimal unique column combinations:")
    for ucc in result.uccs:
        print(f"  {ucc}")
    if not result.uccs:
        print("  (none — the relation has duplicate rows?)")
    print("\nminimal functional dependencies:")
    for fd in result.fds:
        print(f"  {fd}")
    if not result.fds:
        print("  (none)")
    print("\nphase seconds:")
    for phase, seconds in result.phase_seconds.items():
        print(f"  {phase:28s} {seconds:10.4f}")
    for line in stats_lines:
        print(line)


def _open_result_cache(args: argparse.Namespace, budget: Budget | None):
    """Resolve the CLI's result cache (or ``None`` when disabled).

    Budgeted runs bypass the cache: a TL/ML partial is a property of the
    budget, not the input, and must never be served — or stored — as the
    input's profile.
    """
    if args.no_result_cache or budget is not None:
        return None
    root = (
        args.result_cache
        or os.environ.get("REPRO_RESULT_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )
    return ResultCache(root)


def _apply_appends(
    args: argparse.Namespace,
    profiler,
    relation: Relation,
    result: ProfilingResult,
    algorithm: str,
    cache,
    cache_config: dict,
    checkpoint_dir: str | None,
) -> ProfilingResult:
    """Fold each ``--append`` batch into the profiled relation in order.

    Every batch advances the fingerprint chain: the maintained result is
    cached under the grown relation's fingerprint with a
    ``parent_fingerprint`` link to the pre-append entry, so a later plain
    run over the combined data answers from cache, and ``repro cache ls``
    can render the chain.  Checkpoint sessions are keyed per batch by
    ``(parent fingerprint, "incremental", config + batch fingerprint)`` —
    a maintenance run killed mid-re-validation resumes exactly.
    """
    for batch_path in args.append:
        batch = read_csv(
            batch_path, delimiter=args.delimiter, has_header=not args.no_header
        )
        if batch.column_names != relation.column_names:
            raise ValueError(
                f"append batch {batch_path} columns {batch.column_names} "
                f"do not match the base schema {relation.column_names}"
            )
        parent = relation.fingerprint()
        session = None
        if checkpoint_dir:
            session = CheckpointStore(checkpoint_dir).session(
                parent,
                "incremental",
                {**cache_config, "batch": batch.fingerprint()},
            )
            if session.load():
                print(
                    f"resuming incremental maintenance of {batch_path} "
                    f"from checkpoint in {checkpoint_dir}",
                    file=sys.stderr,
                )
        with active_session(session):
            result = profiler.maintain(
                relation, list(batch.iter_rows()), result
            )
        if session is not None:
            session.complete()
        grown = relation.fingerprint()
        if cache is not None and grown != parent:
            from .metadata.serialize import result_to_dict as _to_dict

            try:
                cache.put(
                    grown,
                    algorithm,
                    _to_dict(result),
                    cache_config,
                    parent_fingerprint=parent,
                )
            except OSError as error:
                print(
                    f"warning: result cache write failed: {error}",
                    file=sys.stderr,
                )
        print(
            f"appended {batch_path} ({batch.n_rows} rows): fingerprint "
            f"{parent[:12]}... -> {grown[:12]}...",
            file=sys.stderr,
        )
    return result


def build_schema_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile-schema",
        description=(
            "Profile a directory of CSV tables as one schema job: "
            "per-table FDs/UCCs/unary INDs, fingerprint dedup of "
            "content-identical tables, cross-table INDs via one SPIDER "
            "merge over the union of all columns, and ranked foreign-key "
            "candidates."
        ),
    )
    parser.add_argument(
        "directory", help="schema root; every *.csv below it is one table"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the per-table profiling sweep "
        "(default: 1, serial)",
    )
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="auto",
        help="per-table algorithm (default: the §6.5 heuristic per table)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random-walk seed")
    parser.add_argument("--delimiter", default=",", help="CSV field separator")
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="CSVs have no header row (columns become column_0..n)",
    )
    sampling_group = parser.add_mutually_exclusive_group()
    sampling_group.add_argument(
        "--sampling",
        dest="sampling",
        action="store_true",
        default=True,
        help="enable the sampling-driven refutation engine (default); "
        "the cross-table merge reuses its value probes as a prefilter",
    )
    sampling_group.add_argument(
        "--no-sampling",
        dest="sampling",
        action="store_false",
        help="disable sample-based refutation (results identical, slower)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per table execution and for the "
        "cross-table merge; exceeded phases become TL entries in the "
        "catalog and the exit code is 3",
    )
    parser.add_argument(
        "--max-intersections",
        type=int,
        default=None,
        metavar="N",
        help="PLI-intersection work budget (per execution); exceeded "
        "counts as TL",
    )
    parser.add_argument(
        "--max-cluster-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="estimated PLI cluster-memory budget; exceeded counts as ML",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="journal every finished table and snapshot traversal/merge "
        "state into DIR; re-running the same command after a kill resumes "
        "at table granularity with a bit-identical catalog (default: "
        "$REPRO_CHECKPOINT_DIR; off when neither is set)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore (and discard) earlier journal/checkpoint state",
    )
    parser.add_argument(
        "--max-fk",
        type=int,
        default=None,
        metavar="N",
        help="report only the top-N foreign-key candidates",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a structured trace of the schema job as JSONL "
        "(schema.* spans/counters; see docs/trace_schema.json)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the catalog as JSON (use '-' for stdout)",
    )
    return parser


def _print_catalog_report(catalog) -> None:
    print(catalog.summary())
    print("\ntables:")
    for table in catalog.tables:
        if table.duplicate_of is not None:
            detail = f"duplicate of {table.duplicate_of}"
        elif table.result is not None:
            inds, uccs, fds = (
                len(table.result.inds),
                len(table.result.uccs),
                len(table.result.fds),
            )
            detail = (
                f"{table.n_columns} cols x {table.n_rows} rows via "
                f"{table.algorithm}: {inds} INDs, {uccs} UCCs, {fds} FDs"
            )
        else:
            detail = table.error or table.status
        marker = f" [{table.status}]" if table.status != "ok" else ""
        print(f"  {table.name:28s} {detail}{marker}")
    print("\ncross-table inclusion dependencies:")
    for ind in catalog.cross_inds:
        print(f"  {ind}")
    if not catalog.cross_inds:
        print("  (none)")
    print("\nforeign-key candidates (best first):")
    for candidate in catalog.fk_candidates:
        print(f"  {candidate}")
    if not catalog.fk_candidates:
        print("  (none)")


def schema_main(argv: Sequence[str]) -> int:
    """``repro profile-schema`` entry point; returns a process exit code."""
    from .harness.signals import graceful_shutdown as _graceful
    from .metadata.serialize import catalog_dumps
    from .schema import profile_schema

    args = build_schema_parser().parse_args(argv)
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    budget = None
    if (
        args.deadline is not None
        or args.max_intersections is not None
        or args.max_cluster_bytes is not None
    ):
        budget = Budget(
            deadline_seconds=args.deadline,
            max_intersections=args.max_intersections,
            max_cluster_bytes=args.max_cluster_bytes,
        )
    checkpoint_dir = args.checkpoint_dir or os.environ.get(
        "REPRO_CHECKPOINT_DIR"
    )
    checkpoints = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
    trace_path = args.trace or _trace.env_trace_path()
    tracer = _trace.enable() if args.trace else _trace.ACTIVE
    try:
        with _graceful():
            catalog = profile_schema(
                args.directory,
                jobs=args.jobs,
                algorithm=args.algorithm,
                seed=args.seed,
                sampling=args.sampling,
                budget=budget,
                checkpoints=checkpoints,
                resume=not args.no_resume,
                delimiter=args.delimiter,
                has_header=not args.no_header,
                max_fk_candidates=args.max_fk,
            )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Interrupted as error:
        print(f"{error}; stopping cleanly", file=sys.stderr)
        if checkpoints is not None:
            print(
                "journal and checkpoints kept; re-running the same command "
                "resumes at table granularity",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED

    if args.json:
        payload = catalog_dumps(catalog)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"catalog written to {args.json}")
    else:
        _print_catalog_report(catalog)

    if tracer is not None and trace_path is not None:
        try:
            written = _trace.write_jsonl(tracer.events, trace_path)
        except OSError as error:
            print(f"warning: trace write failed: {error}", file=sys.stderr)
        else:
            print(
                f"trace written to {trace_path} ({written} events)",
                file=sys.stderr,
            )

    statuses = {table.status for table in catalog.tables} | {catalog.status}
    if statuses & {"timeout", "memory"}:
        print(
            "warning: budget-stopped entries in the catalog (TL/ML)",
            file=sys.stderr,
        )
        return 3
    if statuses != {"ok"}:
        print("warning: failed entries in the catalog", file=sys.stderr)
        return 1
    return 0


def build_watch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro watch",
        description=(
            "Continuous profiling: consume the CSV files of a directory "
            "in sorted name order as one growing relation — the first "
            "file is profiled from scratch, every later file is appended "
            "and the profile is incrementally maintained at delta cost."
        ),
    )
    parser.add_argument(
        "directory", help="watched directory; every *.csv in it is a batch"
    )
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="auto",
        help="profiling algorithm for the base profile (default: auto)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random-walk seed")
    parser.add_argument("--delimiter", default=",", help="CSV field separator")
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="CSVs have no header row (columns become column_0..n)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll interval between directory scans (default: 2.0)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="process the files currently present, then exit instead of "
        "polling forever",
    )
    parser.add_argument(
        "--max-batches",
        type=int,
        default=None,
        metavar="N",
        help="stop after N files have been consumed",
    )
    sampling_group = parser.add_mutually_exclusive_group()
    sampling_group.add_argument(
        "--sampling", dest="sampling", action="store_true", default=True,
        help="enable the sampling-driven refutation engine (default)",
    )
    sampling_group.add_argument(
        "--no-sampling", dest="sampling", action="store_false",
        help="disable sample-based refutation (results identical, slower)",
    )
    parser.add_argument(
        "--pli-backend",
        choices=("python", "numpy"),
        default=None,
        help="PLI kernel backend (default: $REPRO_PLI_BACKEND or python)",
    )
    parser.add_argument(
        "--storage",
        choices=_storage.STORAGE_MODES,
        default=None,
        help="where column code arrays live: 'encoded' (in memory) or "
        "'mmap' (memory-mapped spill files); default: $REPRO_STORAGE or "
        "encoded",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a structured trace (incremental.* spans/events) as "
        "JSONL to PATH",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="rewrite PATH with the latest result after every update",
    )
    return parser


def watch_main(argv: Sequence[str]) -> int:
    """``repro watch`` entry point; returns a process exit code."""
    from .incremental import watch_directory

    args = build_watch_parser().parse_args(argv)
    if args.pli_backend is not None:
        try:
            _pli_backend.set_backend(args.pli_backend)
        except _pli_backend.BackendUnavailable as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.storage is not None:
        try:
            _storage.set_storage(args.storage)
        except _storage.StorageUnavailable as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    trace_path = args.trace or _trace.env_trace_path()
    tracer = _trace.enable() if args.trace else _trace.ACTIVE

    def on_update(path, relation, result) -> None:
        print(f"{path.name}: {result.summary()}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(dumps(result) + "\n")

    exit_code = 0
    try:
        with graceful_shutdown():
            watch_directory(
                args.directory,
                algorithm=args.algorithm,
                seed=args.seed,
                sampling=args.sampling,
                delimiter=args.delimiter,
                has_header=not args.no_header,
                interval=args.interval,
                once=args.once,
                max_batches=args.max_batches,
                on_update=on_update,
            )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Interrupted as error:
        print(f"{error}; stopping cleanly", file=sys.stderr)
        exit_code = EXIT_INTERRUPTED
    if tracer is not None and trace_path is not None:
        try:
            written = _trace.write_jsonl(tracer.events, trace_path)
        except OSError as error:
            print(f"warning: trace write failed: {error}", file=sys.stderr)
        else:
            print(
                f"trace written to {trace_path} ({written} events)",
                file=sys.stderr,
            )
    return exit_code


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description=(
            "Inspect the content-addressed result cache.  'ls' lists "
            "every entry with its fingerprint chain: incrementally "
            "maintained results carry a parent_fingerprint link to the "
            "pre-append entry they were derived from."
        ),
    )
    parser.add_argument("action", choices=("ls",), help="cache operation")
    parser.add_argument(
        "--result-cache",
        metavar="DIR",
        default=None,
        help="cache directory (default: $REPRO_RESULT_CACHE_DIR or "
        f"{DEFAULT_CACHE_DIR})",
    )
    return parser


def cache_main(argv: Sequence[str]) -> int:
    """``repro cache`` entry point; returns a process exit code."""
    args = build_cache_parser().parse_args(argv)
    root = (
        args.result_cache
        or os.environ.get("REPRO_RESULT_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )
    entries = ResultCache(root).entries()
    if not entries:
        print(f"result cache at {root}: no entries")
        return 0
    known = {entry["fingerprint"] for entry in entries}
    print(f"result cache at {root}: {len(entries)} entries")
    for entry in entries:
        parent = entry.get("parent_fingerprint")
        if parent is None:
            chain = ""
        elif parent in known:
            # A resolvable chain link: this entry was maintained from the
            # listed parent by an incremental append.
            chain = f"  <- {parent[:12]}..."
        else:
            # The parent entry is gone or unreadable — provenance display
            # degrades, lookups of this entry are unaffected.
            chain = "  <- (missing)"
        config = entry.get("config", "")
        suffix = f"  {config}" if config else ""
        print(
            f"  {entry['fingerprint'][:12]}...  "
            f"{entry['algorithm']}{suffix}{chain}"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "profile-schema":
        # Dispatched before the single-relation parser: the legacy CLI
        # keeps its subcommand-free grammar (a bare CSV positional).
        return schema_main(arguments[1:])
    if arguments and arguments[0] == "watch":
        return watch_main(arguments[1:])
    if arguments and arguments[0] == "cache":
        return cache_main(arguments[1:])
    args = build_parser().parse_args(arguments)
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.pli_backend is not None:
        # Arm explicitly (process-wide) so an unusable request fails the
        # run up front instead of silently profiling on another kernel.
        try:
            _pli_backend.set_backend(args.pli_backend)
        except _pli_backend.BackendUnavailable as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.storage is not None:
        # Armed before _load so the CSV read streams straight into the
        # requested representation (one pass, no re-encode).
        try:
            _storage.set_storage(args.storage)
        except _storage.StorageUnavailable as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    # Tracing comes up before any profiling work so the trace covers the
    # whole run.  $REPRO_TRACE already enabled the tracer at import time;
    # --trace enables it (freshly) here and fixes the output path.
    trace_path = args.trace or _trace.env_trace_path()
    tracer = _trace.enable() if args.trace else _trace.ACTIVE
    try:
        relation = _load(args)
    except (OSError, KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    budget = None
    if (
        args.deadline is not None
        or args.max_intersections is not None
        or args.max_cluster_bytes is not None
    ):
        budget = Budget(
            deadline_seconds=args.deadline,
            max_intersections=args.max_intersections,
            max_cluster_bytes=args.max_cluster_bytes,
        )

    # Resolve "auto" up front so the cache is keyed by the algorithm that
    # actually runs (the §6.5 heuristic depends only on the column count,
    # which the fingerprint covers).
    algorithm = args.algorithm
    if algorithm == "auto":
        algorithm = choose_algorithm(relation)
    cache = _open_result_cache(args, budget)
    # ``sampling`` and ``pli_backend`` are part of the key for counter
    # transparency only — discovered metadata is exact (thus identical)
    # in all modes.
    cache_config = {
        "seed": args.seed,
        "as_published": args.as_published,
        "sampling": args.sampling,
        "pli_backend": _pli_backend.ACTIVE.name,
        "storage": _storage.ACTIVE,
    }

    checkpoint_dir = args.checkpoint_dir or os.environ.get(
        "REPRO_CHECKPOINT_DIR"
    )
    session = None
    if checkpoint_dir:
        # Keyed exactly like the result cache, so a resume only restores
        # state produced by an identical (input, algorithm, config) run.
        session = CheckpointStore(checkpoint_dir).session(
            relation.fingerprint(), algorithm, cache_config
        )
        if session.load():
            print(
                f"resuming {algorithm} from checkpoint in {checkpoint_dir}",
                file=sys.stderr,
            )

    result = None
    if cache is not None:
        document = cache.get(relation.fingerprint(), algorithm, cache_config)
        if document is not None:
            try:
                result = result_from_dict(document)
            except ValueError:
                result = None  # stale schema: recompute
            else:
                if tracer is not None:
                    # Served from cache: no algorithm ran, so no spans —
                    # but the trace must say why the run shows no work.
                    tracer.event(
                        "cache.hit",
                        algorithm=algorithm,
                        dataset=relation.name,
                        fingerprint=relation.fingerprint()[:12],
                    )
                print(
                    f"result cache hit for {algorithm} "
                    f"(fingerprint {relation.fingerprint()[:12]}...)",
                    file=sys.stderr,
                )

    # With --append the base profile must run through an incremental
    # profiler whose PLI store stays warm: the maintenance phase then
    # delta-merges into the very substrate the base profile built,
    # instead of rebuilding it.
    incremental = None
    if args.append:
        from .incremental import IncrementalProfiler

        incremental = IncrementalProfiler(
            algorithm=algorithm,
            seed=args.seed,
            verify_completeness=not args.as_published,
            jobs=args.jobs,
            sampling=args.sampling,
        )

    exit_code = 0
    if result is None:
        try:
            with graceful_shutdown(), guarded(budget), active_session(session):
                result = (
                    incremental.profile_base(relation)
                    if incremental is not None
                    else profile(
                        relation,
                        algorithm=algorithm,
                        seed=args.seed,
                        verify_completeness=not args.as_published,
                        jobs=args.jobs,
                        sampling=args.sampling,
                    )
                )
            if session is not None:
                # Completed: the snapshot has nothing left to resume.
                session.complete()
            if cache is not None:
                try:
                    cache.put(
                        relation.fingerprint(),
                        algorithm,
                        result_to_dict(result),
                        cache_config,
                    )
                except OSError as error:
                    print(
                        f"warning: result cache write failed: {error}",
                        file=sys.stderr,
                    )
        except BudgetExceeded as error:
            # Graceful degradation (Metanome's TL/ML cells): report
            # whatever the interrupted algorithm had discovered, but exit
            # non-zero so scripts can tell a partial profile from a
            # complete one.
            marker = "ML" if error.reason == "memory" else "TL"
            result = error.partial_result or ProfilingResult.from_masks(
                relation_name=relation.name, column_names=relation.column_names
            )
            print(
                f"warning [{marker}]: budget exhausted ({error}); "
                "results below are partial",
                file=sys.stderr,
            )
            if session is not None:
                # The snapshot survives: re-running without the budget
                # resumes from the last completed boundary.
                print(
                    "checkpoint kept; re-run with --checkpoint-dir "
                    f"{checkpoint_dir} to continue",
                    file=sys.stderr,
                )
            exit_code = 3
        except Interrupted as error:
            # Graceful shutdown: the journal/checkpoint finally blocks
            # already flushed; report, keep the snapshot, exit distinctly.
            print(f"{error}; stopping cleanly", file=sys.stderr)
            if session is not None:
                print(
                    "checkpoint kept; re-running the same command resumes "
                    "from the last completed boundary",
                    file=sys.stderr,
                )
            return EXIT_INTERRUPTED

    if incremental is not None and exit_code == 0:
        try:
            with graceful_shutdown(), guarded(budget):
                result = _apply_appends(
                    args,
                    incremental,
                    relation,
                    result,
                    algorithm,
                    cache,
                    cache_config,
                    checkpoint_dir,
                )
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except BudgetExceeded as error:
            marker = "ML" if error.reason == "memory" else "TL"
            print(
                f"warning [{marker}]: budget exhausted during incremental "
                f"maintenance ({error}); results below predate the "
                "unfinished batch",
                file=sys.stderr,
            )
            exit_code = 3
        except Interrupted as error:
            print(f"{error}; stopping cleanly", file=sys.stderr)
            if checkpoint_dir:
                print(
                    "checkpoint kept; re-running the same command resumes "
                    "the unfinished batch from the last completed phase",
                    file=sys.stderr,
                )
            return EXIT_INTERRUPTED

    stats_lines: list[str] = []
    if args.stats:
        stats_lines.append("\nper-column statistics:")
        for stat in profile_statistics(relation):
            stats_lines.append(
                f"  {stat.name:24s} distinct={stat.distinct_count:<8d} "
                f"nulls={stat.null_count:<6d} unique={str(stat.is_unique):5s} "
                f"top={stat.top_value!r} x{stat.top_frequency}"
            )

    if args.json:
        payload = dumps(result)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"result written to {args.json}")
        for line in stats_lines:
            print(line)
    else:
        _print_text_report(result, stats_lines)

    if tracer is not None and trace_path is not None:
        try:
            written = _trace.write_jsonl(tracer.events, trace_path)
        except OSError as error:
            print(f"warning: trace write failed: {error}", file=sys.stderr)
        else:
            print(
                f"trace written to {trace_path} ({written} events)",
                file=sys.stderr,
            )
            summary = _trace.trace_summary(tracer.events)
            if summary:
                print("\nper-phase trace summary:")
                print(
                    f"  {'phase':32s} {'count':>6s} {'seconds':>10s} "
                    f"{'self':>10s}"
                )
                for phase, entry in sorted(
                    summary.items(), key=lambda item: -item[1]["self_seconds"]
                ):
                    print(
                        f"  {phase:32s} {entry['count']:6d} "
                        f"{entry['seconds']:10.4f} "
                        f"{entry['self_seconds']:10.4f}"
                    )
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
