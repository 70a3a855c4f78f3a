"""Figure 6 — row scalability on the uniprot workload.

Paper setup: uniprot, 10 columns, 50k–250k rows; baseline vs Holistic FUN
vs MUDS.  Published shape: all three scale ~linearly with rows; Holistic
FUN is fastest (about 1/3 faster than the baseline thanks to shared I/O);
MUDS is slowest because its shadowed-FD phase also scales with rows.

This bench regenerates the three series on ``uniprot_like`` (see DESIGN.md
for the substitution) and prints them plus the linearity/ordering
diagnostics recorded in EXPERIMENTS.md.
"""

from repro.datasets import uniprot_like
from repro.harness import ExperimentRunner, ascii_table, default_framework, series_block

from .conftest import once

ALGORITHMS = ("baseline", "holistic_fun", "muds")


def test_fig6_row_scalability(benchmark, bench_profile, report_sink):
    rows_sweep = bench_profile["fig6_rows"]

    def experiment():
        framework = default_framework(seed=0, faithful_muds=True)
        runner = ExperimentRunner(framework, algorithms=ALGORITHMS)
        points = runner.sweep(
            rows_sweep,
            lambda rows: uniprot_like(int(rows), n_columns=10, seed=0),
            check_agreement=False,
        )
        return points

    points = once(benchmark, experiment)

    series = {
        name: ExperimentRunner.series(points, name) for name in ALGORITHMS
    }
    table_rows = [
        [point.label]
        + [f"{point.seconds(name):.3f}" for name in ALGORITHMS]
        + list(point.counts())
        for point in points
    ]
    report = [
        f"Figure 6 — scalability with the number of rows "
        f"(uniprot_like, 10 columns, profile={bench_profile['name']})",
        "",
        ascii_table(
            ["rows", "baseline[s]", "hfun[s]", "muds[s]", "#INDs", "#UCCs", "#FDs"],
            table_rows,
        ),
        "",
        series_block("series (paper: all ~linear; hfun < baseline < muds)",
                     "rows", series),
    ]
    report_sink("fig6_rows", "\n".join(report))

    # Shape checks (soft: orderings at the largest point; too noisy to
    # hold on the single tiny point of a CI smoke run).
    if not bench_profile["smoke"]:
        top = points[-1]
        assert top.seconds("holistic_fun") < top.seconds("baseline"), (
            "Holistic FUN should beat the sequential baseline (shared I/O)"
        )
