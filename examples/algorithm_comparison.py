"""Compare the paper's four contenders on one dataset (mini Table 3).

Runs the sequential baseline, Holistic FUN, MUDS, and TANE through the
Metanome-like harness on a registered dataset and prints runtimes and
result counts — the same row shape as Table 3 of the paper.

Run with::

    python examples/algorithm_comparison.py [dataset] [n_rows]

where ``dataset`` is any of the registry names (iris, balance, chess,
abalone, nursery, b-cancer, bridges, echocard, adult, letter, hepatitis,
uniprot, ionosphere, ncvoter).
"""

import sys

from repro.datasets import REGISTRY, load
from repro.harness import ascii_table, default_framework


def main(dataset: str = "bridges", n_rows: int | None = None) -> None:
    if dataset not in REGISTRY:
        raise SystemExit(f"unknown dataset {dataset!r}; known: {sorted(REGISTRY)}")
    relation = load(dataset, n_rows=n_rows)
    print(f"dataset: {relation!r}\n")

    framework = default_framework(seed=0, faithful_muds=False)
    executions = framework.run_all(relation, check_agreement=False)

    rows = []
    for execution in executions:
        inds, uccs, fds = execution.counts
        rows.append([execution.algorithm, f"{execution.seconds:.3f}s", inds, uccs, fds])
    print(ascii_table(["algorithm", "runtime", "#INDs", "#UCCs", "#FDs"], rows))

    fastest = min(executions, key=lambda e: e.seconds)
    print(f"\nfastest: {fastest.algorithm} ({fastest.seconds:.3f}s)")
    spec = REGISTRY[dataset]
    if spec.paper_seconds:
        names = ("baseline", "holistic_fun", "muds", "tane")
        paper = ", ".join(f"{n}={s}s" for n, s in zip(names, spec.paper_seconds))
        print(f"paper reports (Java, full rows): {paper}")


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else "bridges",
        int(sys.argv[2]) if len(sys.argv) > 2 else None,
    )
