"""Human-readable profile reports.

Turns one profiling run (dependencies + column statistics) into a
Markdown document — the kind of artifact a data-integration or
data-cleansing workflow (the applications motivating the paper) hands to
an engineer.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from ..core.statistics import profile_statistics
from ..metadata.results import ProfilingResult
from ..pli.index import RelationIndex
from ..relation.relation import Relation
from ..trace import trace_summary
from .framework import Execution
from .reporting import markdown_table

__all__ = ["render_profile_report", "render_trace_table"]


def render_profile_report(
    relation: Relation,
    result: ProfilingResult,
    index: RelationIndex | None = None,
    max_listed: int = 25,
    execution: Execution | None = None,
    trace: Sequence[Mapping[str, Any]] | None = None,
) -> str:
    """Render a Markdown profile of ``relation`` from ``result``.

    ``max_listed`` caps each dependency listing (with an explicit
    "... and N more" line, never a silent cut).  Passing the
    ``execution`` the result came from adds a warning banner when the run
    did not complete (TL/ML/ERR) so partial listings are never mistaken
    for exhaustive ones.  ``trace`` — the structured events of the run
    (:mod:`repro.trace`) — adds a per-phase/per-level table with
    exclusive self-seconds and counters, the report's reproduction of the
    paper's Fig. 8 runtime breakdown.
    """
    lines: list[str] = [
        f"# Data profile: {relation.name}",
        "",
        f"{relation.n_columns} columns x {relation.n_rows} rows; "
        f"profiled in {result.total_seconds:.3f}s.",
        "",
    ]
    if execution is not None and not execution.ok:
        lines += [
            f"> **Incomplete run [{execution.marker}]** "
            f"({execution.status}): {execution.error}",
            "> Dependency listings below are partial — metadata discovered "
            "before the run was stopped.",
            "",
        ]
    lines += [
        "## Column statistics",
        "",
    ]
    statistics = profile_statistics(relation, index=index)
    lines.append(
        markdown_table(
            ["column", "distinct", "nulls", "unique", "constant", "top value"],
            [
                [
                    stat.name,
                    stat.distinct_count,
                    stat.null_count,
                    "yes" if stat.is_unique else "",
                    "yes" if stat.is_constant else "",
                    f"{stat.top_value!r} x{stat.top_frequency}",
                ]
                for stat in statistics
            ],
        )
    )

    lines += ["", "## Key candidates (minimal UCCs)", ""]
    lines += _listing(
        [str(ucc) for ucc in sorted(result.uccs, key=len)], max_listed,
        empty=(
            "(none found before the run stopped)"
            if execution is not None and not execution.ok
            else f"(none — {result.no_ucc_reason()})"
        ),
    )

    lines += ["", "## Functional dependencies (minimal)", ""]
    lines += _listing(
        [str(fd) for fd in sorted(result.fds, key=len)], max_listed,
        empty="(none)",
    )

    lines += ["", "## Inclusion dependencies (unary)", ""]
    lines += _listing([str(ind) for ind in result.inds], max_listed, empty="(none)")

    lines += ["", "## Phase timings", ""]
    lines.append(
        markdown_table(
            ["phase", "seconds"],
            [[phase, f"{seconds:.4f}"] for phase, seconds in result.phase_seconds.items()],
        )
    )

    counters = dict(result.counters)
    if index is not None:
        counters.update(index.kernel_counters())
    if counters:
        lines += ["", "## Kernel counters", ""]
        lines.append(
            markdown_table(
                ["counter", "value"],
                [
                    [name, f"{value:.3f}" if isinstance(value, float) else value]
                    for name, value in sorted(counters.items())
                ],
            )
        )
    if trace:
        lines += ["", "## Per-phase trace", ""]
        lines.append(render_trace_table(trace))
    return "\n".join(lines)


def render_trace_table(events: Sequence[Mapping[str, Any]]) -> str:
    """Markdown table of :func:`repro.trace.trace_summary` over ``events``.

    One row per phase (span name, split per lattice level), ordered by
    descending exclusive self-time so the dominant phase leads — the
    Fig. 8 reading order.  The counters column compacts each phase's
    rolled-up counters (``name=value``, sorted)."""
    summary = trace_summary(events)
    rows = []
    for phase, entry in sorted(
        summary.items(), key=lambda item: -item[1]["self_seconds"]
    ):
        counters = " ".join(
            f"{name}={_compact(value)}"
            for name, value in sorted(entry["counters"].items())
        )
        rows.append(
            [
                phase,
                entry["count"],
                f"{entry['seconds']:.4f}",
                f"{entry['self_seconds']:.4f}",
                counters,
            ]
        )
    return markdown_table(
        ["phase", "count", "seconds", "self seconds", "counters"], rows
    )


def _compact(value: int | float) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def _listing(items: list[str], max_listed: int, empty: str) -> list[str]:
    if not items:
        return [empty]
    shown = [f"* {item}" for item in items[:max_listed]]
    if len(items) > max_listed:
        shown.append(f"* ... and {len(items) - max_listed} more")
    return shown
