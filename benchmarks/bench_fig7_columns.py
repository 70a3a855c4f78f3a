"""Figure 7 — column scalability on the ionosphere workload.

Paper setup: ionosphere, 351 rows, 10–23 columns; baseline vs Holistic FUN
vs MUDS, plus the #INDs/#UCCs/#FDs counts as a secondary series.
Published shape: every algorithm grows exponentially with the column
count; MUDS scales clearly best (the UCC-first strategy searches a much
smaller space), while baseline ≈ Holistic FUN because 99 % of their time
is FD discovery.

Regenerated on ``ionosphere_like`` (DESIGN.md documents the substitution;
the runtime geometry is reproduced, absolute dependency counts are not).
"""

from repro.datasets import ionosphere_like
from repro.harness import ExperimentRunner, ascii_table, default_framework, series_block

from .conftest import once

ALGORITHMS = ("baseline", "holistic_fun", "muds")


def test_fig7_column_scalability(benchmark, bench_profile, report_sink):
    column_sweep = bench_profile["fig7_columns"]

    def experiment():
        framework = default_framework(seed=0, faithful_muds=True)
        runner = ExperimentRunner(framework, algorithms=ALGORITHMS)
        return runner.sweep(
            column_sweep,
            lambda cols: ionosphere_like(int(cols), seed=0),
            check_agreement=False,
        )

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
        f"Figure 7 — scalability with the number of columns "
        f"(ionosphere_like, 351 rows, profile={bench_profile['name']})",
        "",
        ascii_table(
            ["columns", "baseline[s]", "hfun[s]", "muds[s]", "#INDs", "#UCCs", "#FDs"],
            table_rows,
        ),
        "",
        series_block(
            "series (paper: exponential growth, muds clearly best, "
            "baseline ~ hfun)",
            "columns",
            series,
        ),
    ]
    report_sink("fig7_columns", "\n".join(report))

    # Shape checks at the widest point: MUDS wins, baseline ~ HFUN (too
    # noisy to hold on the single tiny point of a CI smoke run).
    if not bench_profile["smoke"]:
        top = points[-1]
        assert top.seconds("muds") < top.seconds("holistic_fun"), (
            "MUDS should out-scale Holistic FUN at high column counts"
        )
        assert top.seconds("muds") < top.seconds("baseline")
