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


def _profile_flags() -> argparse.ArgumentParser:
    """Flags of every profiling command (``repro``, ``profile-schema``,
    ``watch``): algorithm, CSV dialect, sampling, and the trace/JSON
    outputs."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="auto",
        help="profiling algorithm (default: the paper's §6.5 heuristic, "
        "applied per table by profile-schema)",
    )
    flags.add_argument("--seed", type=int, default=0, help="random-walk seed")
    flags.add_argument("--delimiter", default=",", help="CSV field separator")
    flags.add_argument(
        "--no-header",
        action="store_true",
        help="CSV files have no header row (columns become column_0..n)",
    )
    sampling_group = flags.add_mutually_exclusive_group()
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
    flags.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a structured per-phase trace of the run and write it "
        "as JSONL to PATH (one event per line; see docs/trace_schema.json). "
        "Defaults to $REPRO_TRACE when that holds a path; tracing is off "
        "otherwise",
    )
    flags.add_argument(
        "--json",
        metavar="PATH",
        help="write the result (profile-schema: the catalog) as JSON, "
        "'-' for stdout; watch rewrites PATH after every update",
    )
    return flags


def _limit_flags() -> argparse.ArgumentParser:
    """Flags of the commands that run bounded, restartable executions
    (``repro``, ``profile-schema``): budgets, workers, checkpoints."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry print the partial results "
        "discovered so far and exit with code 3 (TL). profile-schema "
        "applies it per table execution and to the cross-table merge",
    )
    flags.add_argument(
        "--max-intersections",
        type=int,
        default=None,
        metavar="N",
        help="PLI-intersection work budget (per execution); exceeded "
        "counts as TL",
    )
    flags.add_argument(
        "--max-cluster-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="estimated PLI cluster-memory budget; exceeded counts as ML",
    )
    flags.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1): profile-schema's per-table "
        "sweep, or the baseline algorithm's three independent tasks "
        "(SPIDER, DUCC, FUN); the holistic algorithms are single search "
        "processes and run with one",
    )
    flags.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="snapshot the traversal state at level/phase boundaries into "
        "DIR (profile-schema also journals every finished table) and "
        "resume from the last completed boundary when an earlier run of "
        "the same input/configuration was killed, interrupted, or "
        "budget-stopped (default: $REPRO_CHECKPOINT_DIR; checkpointing is "
        "off when neither is set). Results are bit-identical to an "
        "undisturbed run",
    )
    return flags


def _substrate_flags() -> argparse.ArgumentParser:
    """Flags choosing the PLI kernel and the column storage (``repro``,
    ``watch``)."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--pli-backend",
        choices=("python", "numpy"),
        default=None,
        help="PLI kernel backend: 'python' (zero-dependency, the default) "
        "or 'numpy' (vectorized; needs numpy installed). Results are "
        "bit-identical either way. Defaults to $REPRO_PLI_BACKEND, or "
        "'python' when unset",
    )
    flags.add_argument(
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
    return flags


def _result_cache_flags() -> argparse.ArgumentParser:
    """The result-cache location (``repro``, ``cache``)."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--result-cache",
        metavar="DIR",
        default=None,
        help="content-addressed result cache directory (default: "
        f"$REPRO_RESULT_CACHE_DIR or {DEFAULT_CACHE_DIR})",
    )
    return flags


def _limits(args: argparse.Namespace) -> tuple[Budget | None, str | None]:
    """Validate the :func:`_limit_flags` and resolve them into the run's
    budget (``None`` when unbudgeted) and checkpoint directory (``None``
    when checkpointing is off); a bad value raises :class:`ValueError`."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
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
    return budget, args.checkpoint_dir or os.environ.get("REPRO_CHECKPOINT_DIR")


def _arm_substrate(args: argparse.Namespace) -> None:
    """Arm the :func:`_substrate_flags` process-wide before any CSV is read.

    An unusable request fails the run up front (as :class:`ValueError`)
    instead of silently profiling on another kernel, and the CSV read
    streams straight into the requested storage (one pass, no re-encode).
    """
    try:
        if args.pli_backend is not None:
            _pli_backend.set_backend(args.pli_backend)
        if args.storage is not None:
            _storage.set_storage(args.storage)
    except (_pli_backend.BackendUnavailable, _storage.StorageUnavailable) as error:
        raise ValueError(str(error)) from error


def _result_cache_root(args: argparse.Namespace) -> str:
    return (
        args.result_cache
        or os.environ.get("REPRO_RESULT_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )


def _start_trace(args: argparse.Namespace) -> _trace.Tracer | None:
    """The run's tracer, brought up before any profiling work so the trace
    covers the whole run.  ``$REPRO_TRACE`` already enabled the tracer at
    import time; ``--trace`` enables it (freshly) here."""
    return _trace.enable() if args.trace else _trace.ACTIVE


def _write_trace(args: argparse.Namespace, tracer: _trace.Tracer | None) -> bool:
    """Write the trace to ``--trace`` (or ``$REPRO_TRACE``); True when
    written.  A failed write only warns: the profile itself succeeded."""
    path = args.trace or _trace.env_trace_path()
    if tracer is None or path is None:
        return False
    try:
        written = _trace.write_jsonl(tracer.events, path)
    except OSError as error:
        print(f"warning: trace write failed: {error}", file=sys.stderr)
        return False
    print(f"trace written to {path} ({written} events)", file=sys.stderr)
    return True


def _write_json(path: str, payload: str) -> bool:
    """Write ``payload`` to ``path``, or to stdout for ``-``; True when a
    file was written.  An unwritable path raises :class:`OSError`, which
    every command reports as ``error:`` with exit code 2."""
    if path == "-":
        print(payload)
        return False
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    return True


def _error(error: Exception) -> int:
    print(f"error: {error}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Holistic data profiling: discover unary INDs, minimal UCCs, "
            "and minimal FDs of a relation in one pass (EDBT 2016 "
            "reproduction)."
        ),
        parents=[
            _profile_flags(),
            _limit_flags(),
            _substrate_flags(),
            _result_cache_flags(),
        ],
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("csv", nargs="?", help="path to a CSV file")
    source.add_argument(
        "--dataset",
        help="profile a built-in dataset instead (e.g. bridges, iris)",
    )
    parser.add_argument(
        "--as-published",
        action="store_true",
        help="run MUDS exactly as published (skip the completeness walk)",
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
        "--no-result-cache",
        action="store_true",
        help="always recompute; neither read nor write the result cache",
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


def _print_text_report(result, stats_lines: list[str], partial: bool) -> None:
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
        reason = (
            "none found before the budget ran out"
            if partial
            else f"none — {result.no_ucc_reason()}"
        )
        print(f"  ({reason})")
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
    return ResultCache(_result_cache_root(args))


def _cache_put(cache, fingerprint: str, algorithm: str, result, config: dict,
               parent: str | None = None) -> None:
    """Store ``result`` in ``cache``; a failed write only warns."""
    try:
        cache.put(
            fingerprint,
            algorithm,
            result_to_dict(result),
            config,
            parent_fingerprint=parent,
        )
    except OSError as error:
        print(f"warning: result cache write failed: {error}", file=sys.stderr)


def _checkpoint_session(
    checkpoint_dir: str | None,
    what: str,
    fingerprint: str,
    algorithm: str,
    config: dict,
):
    """Open the checkpoint session of one execution (``None`` when
    checkpointing is off), announcing a resume of ``what``."""
    if not checkpoint_dir:
        return None
    session = CheckpointStore(checkpoint_dir).session(fingerprint, algorithm, config)
    if session.load():
        print(
            f"resuming {what} from checkpoint in {checkpoint_dir}",
            file=sys.stderr,
        )
    return session


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
        session = _checkpoint_session(
            checkpoint_dir,
            f"incremental maintenance of {batch_path}",
            parent,
            "incremental",
            {**cache_config, "batch": batch.fingerprint()},
        )
        with active_session(session):
            result = profiler.maintain(
                relation, list(batch.iter_rows()), result
            )
        if session is not None:
            session.complete()
        grown = relation.fingerprint()
        if cache is not None and grown != parent:
            _cache_put(cache, grown, algorithm, result, cache_config, parent)
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
        parents=[_profile_flags(), _limit_flags()],
    )
    parser.add_argument(
        "directory", help="schema root; every *.csv below it is one table"
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
    from .metadata.serialize import catalog_dumps
    from .schema import profile_schema

    args = build_schema_parser().parse_args(argv)
    try:
        budget, checkpoint_dir = _limits(args)
        checkpoints = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        tracer = _start_trace(args)
        with graceful_shutdown():
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
        if not args.json:
            _print_catalog_report(catalog)
        elif _write_json(args.json, catalog_dumps(catalog)):
            print(f"catalog written to {args.json}")
    except (OSError, ValueError) as error:
        return _error(error)
    except Interrupted as error:
        print(f"{error}; stopping cleanly", file=sys.stderr)
        if checkpoints is not None:
            print(
                "journal and checkpoints kept; re-running the same command "
                "resumes at table granularity",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED

    _write_trace(args, tracer)
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
        parents=[_profile_flags(), _substrate_flags()],
    )
    parser.add_argument(
        "directory", help="watched directory; every *.csv in it is a batch"
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
    return parser


def watch_main(argv: Sequence[str]) -> int:
    """``repro watch`` entry point; returns a process exit code."""
    from .incremental import watch_directory

    args = build_watch_parser().parse_args(argv)

    def on_update(path, relation, result) -> None:
        print(f"{path.name}: {result.summary()}")
        if args.json:
            _write_json(args.json, dumps(result))

    exit_code = 0
    try:
        _arm_substrate(args)
        tracer = _start_trace(args)
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
        return _error(error)
    except Interrupted as error:
        print(f"{error}; stopping cleanly", file=sys.stderr)
        exit_code = EXIT_INTERRUPTED
    _write_trace(args, tracer)
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
        parents=[_result_cache_flags()],
    )
    parser.add_argument("action", choices=("ls",), help="cache operation")
    return parser


def cache_main(argv: Sequence[str]) -> int:
    """``repro cache`` entry point; returns a process exit code."""
    args = build_cache_parser().parse_args(argv)
    root = _result_cache_root(args)
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


#: Subcommands, dispatched before the single-relation parser: the plain
#: ``repro`` CLI keeps its subcommand-free grammar (a bare CSV positional).
_SUBCOMMANDS = {
    "profile-schema": schema_main,
    "watch": watch_main,
    "cache": cache_main,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[arguments[0]](arguments[1:])
    args = build_parser().parse_args(arguments)
    try:
        budget, checkpoint_dir = _limits(args)
        _arm_substrate(args)
        tracer = _start_trace(args)
        relation = _load(args)
    except (OSError, KeyError, ValueError) as error:
        return _error(error)

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
    # Keyed exactly like the result cache, so a resume only restores
    # state produced by an identical (input, algorithm, config) run.
    session = _checkpoint_session(
        checkpoint_dir, algorithm, relation.fingerprint(), algorithm, cache_config
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
    partial = False
    try:
        if result is None:
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
                _cache_put(
                    cache, relation.fingerprint(), algorithm, result, cache_config
                )
        if incremental is not None:
            # A fresh guard: the budget applies to the maintenance phase
            # on its own, as it did to the base profile.
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
        if result is None:
            raise  # the base profile failed: not a usage error
        return _error(error)
    except BudgetExceeded as error:
        # Graceful degradation (Metanome's TL/ML cells): report whatever
        # the stopped phase had produced, but exit non-zero so scripts can
        # tell a partial profile from a complete one.
        marker = "ML" if error.reason == "memory" else "TL"
        if result is None:
            partial = True
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
        else:
            print(
                f"warning [{marker}]: budget exhausted during incremental "
                f"maintenance ({error}); results below predate the "
                "unfinished batch",
                file=sys.stderr,
            )
        exit_code = 3
    except Interrupted as error:
        # Graceful shutdown: the journal/checkpoint finally blocks
        # already flushed; report, keep the snapshot, exit distinctly.
        print(f"{error}; stopping cleanly", file=sys.stderr)
        if checkpoint_dir:
            print(
                "checkpoint kept; re-running the same command resumes "
                "from the last completed boundary",
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
        try:
            if _write_json(args.json, dumps(result)):
                print(f"result written to {args.json}")
        except OSError as error:
            return _error(error)
        for line in stats_lines:
            print(line)
    else:
        _print_text_report(result, stats_lines, partial)

    if _write_trace(args, tracer):
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
