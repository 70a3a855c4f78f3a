"""One algorithm table: every caller profiles through ``PROFILERS``.

Each table entry and ``"auto"``, on a narrow, a wide and a NULL-bearing
relation and on every available kernel backend, must give the same
metadata through the library facade, the incremental profiler's base
profile, the benchmark framework and the ``repro`` CLI.  ``"auto"`` must
resolve to the same table entry in the CLI's result-cache key and in the
schema job's catalog.
"""

import random

import pytest

from repro.cli import main
from repro.core.profiler import ALGORITHMS, PROFILERS, choose_algorithm, profile
from repro.datasets import ncvoter_like, uniprot_like
from repro.harness import ResultCache, default_framework
from repro.incremental import IncrementalProfiler
from repro.metadata.serialize import loads, result_signature
from repro.pli.backend import available_backends, use_backend
from repro.relation import Relation, read_csv, write_csv
from repro.schema import profile_schema


def _with_nulls() -> Relation:
    rng = random.Random(7)
    rows = set()
    while len(rows) < 40:
        rows.add(
            tuple(
                rng.choice([None, 0, 1, 2]) if column % 2 else rng.randrange(4)
                for column in range(6)
            )
        )
    return Relation.from_rows(
        [f"n{i}" for i in range(6)], sorted(rows, key=repr), name="nulls"
    )


RELATIONS = {
    "narrow": lambda: uniprot_like(60, n_columns=6, seed=1),
    "wide": lambda: ncvoter_like(60, n_columns=12, seed=1),
    "nulls": _with_nulls,
}


def test_table_is_the_cli_choice_list():
    assert ALGORITHMS == ("auto", *PROFILERS)
    assert set(default_framework().algorithms) == {*PROFILERS, "tane"}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("shape", sorted(RELATIONS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_caller_gives_the_same_result(
    algorithm, shape, backend, tmp_path, capsys
):
    # Every path profiles the relation the CLI would read from the CSV.
    path = tmp_path / f"{shape}.csv"
    write_csv(RELATIONS[shape](), path)
    relation = read_csv(path).deduplicated()
    resolved = choose_algorithm(relation) if algorithm == "auto" else algorithm
    cache_dir = tmp_path / "cache"
    out = tmp_path / "out.json"
    with use_backend(backend):
        signatures = {
            "profile": profile(relation, algorithm=algorithm),
            "profile_base": IncrementalProfiler(algorithm=algorithm).profile_base(
                relation
            ),
            # faithful_muds=False: the framework's MUDS then certifies
            # completeness like every other caller's default.
            "framework": default_framework(faithful_muds=False)
            .run(resolved, relation)
            .result,
        }
        argv = [str(path), "--algorithm", algorithm, "--json", str(out),
                "--result-cache", str(cache_dir)]
        assert main(argv) == 0
    capsys.readouterr()
    signatures["cli"] = loads(out.read_text())
    signatures = {name: result_signature(r) for name, r in signatures.items()}
    assert len(set(signatures.values())) == 1, signatures
    # The CLI keys its cache entry by the table entry that actually ran.
    (entry,) = ResultCache(cache_dir).entries()
    assert entry["algorithm"] == resolved


@pytest.mark.parametrize("shape", sorted(RELATIONS))
def test_auto_resolves_alike_in_cli_and_schema_job(shape, tmp_path, capsys):
    tables = tmp_path / "tables"
    tables.mkdir()
    path = tables / f"{shape}.csv"
    write_csv(RELATIONS[shape](), path)
    cache_dir = tmp_path / "cache"
    assert main([str(path), "--result-cache", str(cache_dir)]) == 0
    capsys.readouterr()
    (entry,) = ResultCache(cache_dir).entries()
    (table,) = profile_schema(str(tables)).tables
    assert table.algorithm == entry["algorithm"]
    assert table.algorithm == choose_algorithm(read_csv(path))

