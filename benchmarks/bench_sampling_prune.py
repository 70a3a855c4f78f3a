"""Headline benchmark of the sampling-driven refutation engine.

For each Fig. 6/Fig. 7-style workload and profiler, runs the identical
profile twice — sampling on and sampling off — and reports the PLI
intersections avoided (via the process-global kernel counters) and the
wall-clock delta.  Exact-result parity between the two modes is asserted
on every cell; a run that diverges is a bug, not a data point.

Standalone on purpose (no pytest-benchmark): the numbers of record are
counter deltas, which are deterministic, so one comparison pass with a
few wall-clock repeats is enough.

Usage::

    PYTHONPATH=src python benchmarks/bench_sampling_prune.py
    PYTHONPATH=src python benchmarks/bench_sampling_prune.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.baseline import BaselineProfiler  # noqa: E402
from repro.core.holistic_fun import HolisticFun  # noqa: E402
from repro.core.muds import Muds  # noqa: E402
from repro.datasets.generators import ionosphere_like, uniprot_like  # noqa: E402
from repro.pli.pli import KERNEL_STATS  # noqa: E402

DEFAULT_OUTPUT = Path("benchmarks/results/BENCH_sampling_prune.json")

#: (workload label, relation builder, profiler names)
QUICK_WORKLOADS = [
    ("fig6/uniprot_rows=2000", lambda: uniprot_like(2000, seed=0),
     ("muds", "hfun", "baseline")),
    ("fig7/ionosphere_columns=12", lambda: ionosphere_like(12, seed=0),
     ("muds", "hfun")),
]
SMOKE_WORKLOADS = [
    ("fig6/uniprot_rows=400", lambda: uniprot_like(400, seed=0),
     ("muds", "hfun", "baseline")),
    ("fig7/ionosphere_columns=8", lambda: ionosphere_like(8, seed=0),
     ("muds", "hfun")),
]

PROFILERS = {
    "muds": lambda sampling: Muds(seed=0, sampling=sampling),
    "hfun": lambda sampling: HolisticFun(sampling=sampling),
    "baseline": lambda sampling: BaselineProfiler(seed=0, sampling=sampling),
}


def _run_once(name: str, sampling: bool, relation):
    """One fresh profile; returns (result, seconds, kernel intersections)."""
    profiler = PROFILERS[name](sampling)
    before = KERNEL_STATS.snapshot()
    started = time.perf_counter()
    result = profiler.profile(relation)
    seconds = time.perf_counter() - started
    intersections = KERNEL_STATS.delta(before)["pli_intersections"]
    return result, seconds, intersections


def _measure(name: str, sampling: bool, build, repeats: int):
    """Best-of-``repeats`` wall clock; counters are repeat-invariant."""
    best = None
    for _ in range(repeats):
        relation = build()  # fresh relation => cold store every repeat
        result, seconds, intersections = _run_once(name, sampling, relation)
        if best is None or seconds < best[1]:
            best = (result, seconds, intersections)
    return best


def run(workloads, repeats: int) -> dict:
    cells = []
    for label, build, names in workloads:
        for name in names:
            on_result, on_seconds, on_inter = _measure(
                name, True, build, repeats
            )
            off_result, off_seconds, off_inter = _measure(
                name, False, build, repeats
            )
            if not on_result.same_metadata(off_result):
                raise AssertionError(
                    f"{label}/{name}: sampling changed the discovered "
                    "metadata — the refutation engine is unsound"
                )
            reduction = (
                (off_inter - on_inter) / off_inter if off_inter else 0.0
            )
            cell = {
                "workload": label,
                "algorithm": name,
                "intersections_off": off_inter,
                "intersections_on": on_inter,
                "intersections_reduction": round(reduction, 4),
                "wall_seconds_off": round(off_seconds, 4),
                "wall_seconds_on": round(on_seconds, 4),
                "wall_ratio": round(
                    on_seconds / off_seconds if off_seconds else 1.0, 4
                ),
                "exact_parity": True,
                "sampling_counters": {
                    k: v
                    for k, v in on_result.counters.items()
                    if k.startswith("sampling_")
                },
            }
            cells.append(cell)
            print(
                f"{label:28s} {name:9s} "
                f"intersections {off_inter:>6d} -> {on_inter:>6d} "
                f"(-{reduction:6.1%})  "
                f"wall {off_seconds:7.3f}s -> {on_seconds:7.3f}s "
                f"(x{cell['wall_ratio']:.2f})"
            )
    best = max(cells, key=lambda c: c["intersections_reduction"])
    worst_wall = max(cells, key=lambda c: c["wall_ratio"])
    return {
        "benchmark": "sampling_prune",
        "repeats": repeats,
        "cells": cells,
        "best_reduction": {
            "workload": best["workload"],
            "algorithm": best["algorithm"],
            "intersections_reduction": best["intersections_reduction"],
        },
        "worst_wall_ratio": {
            "workload": worst_wall["workload"],
            "algorithm": worst_wall["algorithm"],
            "wall_ratio": worst_wall["wall_ratio"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads, one repeat (CI gate: parity + some savings)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output", type=Path, default=None, help=f"default {DEFAULT_OUTPUT}"
    )
    args = parser.parse_args(argv)
    workloads = SMOKE_WORKLOADS if args.smoke else QUICK_WORKLOADS
    repeats = args.repeats or (1 if args.smoke else 3)
    output = args.output or DEFAULT_OUTPUT

    document = run(workloads, repeats)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\nwritten to {output}")

    best = document["best_reduction"]["intersections_reduction"]
    worst = document["worst_wall_ratio"]["wall_ratio"]
    print(
        f"best intersection reduction: {best:.1%} "
        f"({document['best_reduction']['workload']}/"
        f"{document['best_reduction']['algorithm']}); "
        f"worst wall ratio: x{worst:.2f}"
    )
    if best <= 0:
        print("FAIL: sampling avoided no intersections anywhere")
        return 1
    if not args.smoke:
        if best < 0.30:
            print("FAIL: best reduction below the 30% acceptance bar")
            return 1
        if worst > 1.05:
            print("FAIL: a workload ran >1.05x slower with sampling on")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
