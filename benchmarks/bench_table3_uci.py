"""Table 3 — runtime comparison on the 11 UCI datasets.

Paper setup: iris … hepatitis; baseline vs Holistic FUN vs MUDS vs TANE.
Published message: Holistic FUN always beats the sequential baseline;
MUDS wins on wide datasets (up to 48x on adult/letter, where it even beats
the pure FD algorithm TANE); TANE wins on hepatitis (few rows, thousands
of FDs, expensive shadowed minimization).

Regenerated on the synthetic UCI stand-ins (DESIGN.md §2).  MUDS runs in
the as-published configuration; because this reproduction found that
configuration to be incomplete on some inputs (DESIGN.md "Deviations"),
the ΔFD column discloses how many minimal FDs it missed relative to TANE
on each dataset — the certified configuration is benchmarked separately
in ablation A3.  The quick profile caps the row counts; the published
column counts are always used.
"""

from repro.datasets.registry import TABLE3_ROWS
from repro.harness import ascii_table, default_framework

from .conftest import once

ALGORITHMS = ("baseline", "holistic_fun", "muds", "tane")


def test_table3_uci_datasets(benchmark, bench_profile, report_sink):
    max_rows = bench_profile["table3_max_rows"]
    overrides = bench_profile["table3_row_overrides"]

    def experiment():
        framework = default_framework(seed=0, faithful_muds=True)
        measured = []
        for spec in TABLE3_ROWS:
            cap = overrides.get(spec.name, max_rows)
            n_rows = spec.rows if cap is None else min(spec.rows, cap)
            relation = spec.make(n_rows=n_rows, seed=0)
            executions = framework.run_all(
                relation, names=ALGORITHMS, check_agreement=False
            )
            measured.append((spec, relation, executions))
        return measured

    measured = once(benchmark, experiment)

    rows = []
    for spec, relation, executions in measured:
        seconds = {e.algorithm: e.seconds for e in executions}
        fd_counts = {e.algorithm: len(e.result.fds) for e in executions}
        rows.append(
            [
                spec.name,
                spec.columns,
                relation.n_rows,
                fd_counts["tane"],
                fd_counts["muds"] - fd_counts["tane"],
                *(f"{seconds[name]:.2f}" for name in ALGORITHMS),
                *(f"{value:.1f}" for value in (spec.paper_seconds or ())),
            ]
        )

    report = [
        f"Table 3 — runtime comparison on 11 UCI stand-ins "
        f"(profile={bench_profile['name']}; muds = as-published "
        f"configuration, ΔFD = its FD deficit vs TANE; p.* columns are "
        f"the paper's Java runtimes on the real data)",
        "",
        ascii_table(
            [
                "dataset", "cols", "rows", "FDs", "ΔFD(muds)",
                "baseline[s]", "hfun[s]", "muds[s]", "tane[s]",
                "p.base", "p.hfun", "p.muds", "p.tane",
            ],
            rows,
        ),
    ]
    report_sink("table3_uci", "\n".join(report))

    seconds_by_name = {
        spec.name: {e.algorithm: e.seconds for e in executions}
        for spec, __, executions in measured
    }
    # Paper's headline orderings.
    letter = seconds_by_name["letter"]
    assert letter["muds"] < letter["holistic_fun"], "MUDS should win on letter"
    assert letter["muds"] < letter["tane"], (
        "MUDS should beat even the pure FD algorithm on letter (paper: 24x)"
    )
    hepatitis = seconds_by_name["hepatitis"]
    assert hepatitis["tane"] < hepatitis["muds"], (
        "TANE should win on hepatitis (paper: 8x)"
    )
