"""Write ``expected.json``: each workload's exact expected output.

Run once when the benchmark is created (and again only when a workload's
shape changes)::

    python3 perfbench/expected.py

The expected outputs come from algorithms independent of the ones the
benchmark times, and are cross-checked against the timed path:

* ``uniprot_rows`` -- ``baseline`` (SPIDER + DUCC + FUN) must equal MUDS;
* ``ionosphere_cols`` -- Holistic FUN must equal MUDS;
* ``uniprot_append`` -- after every batch, ``baseline`` on the grown
  relation from scratch must equal the incrementally maintained result;
* ``schema_dir`` -- every table's ``baseline`` signature must equal the
  catalog's, and the catalog's cross-table INDs must equal a naive
  value-set containment check over the distinct tables.  The FK scores
  are taken from the catalog.

Because the benchmark seed only relabels values (see ``gen.py``), one
expected output serves every seed; this script checks that on a second
seed for every workload except the append chain.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from child import catalog_view  # noqa: E402
from run import SIZES, build_inputs  # noqa: E402

from repro.core.profiler import profile  # noqa: E402
from repro.incremental import IncrementalProfiler  # noqa: E402
from repro.metadata.serialize import result_signature  # noqa: E402
from repro.relation.csv_io import read_csv  # noqa: E402
from repro.relation.relation import Relation  # noqa: E402
from repro.schema import profile_schema  # noqa: E402

SEEDS = (1, 2)


def _agree(relation, algorithms) -> str:
    signatures = {
        algorithm: result_signature(profile(relation, algorithm=algorithm))
        for algorithm in algorithms
    }
    if len(set(signatures.values())) != 1:
        raise SystemExit(f"{relation.name}: algorithms disagree: {signatures}")
    return signatures[algorithms[0]]


def single(inputs: dict, independent: str) -> str:
    relation = read_csv(inputs["csv"]).deduplicated()
    return _agree(relation, (independent, "auto"))


def append_chain(inputs: dict) -> list[str]:
    base = read_csv(inputs["base"]).deduplicated()
    names, rows = list(base.column_names), list(base.iter_rows())
    profiler = IncrementalProfiler(seed=0, sampling=True)
    result = profiler.profile_base(base)
    signatures = []
    for path in inputs["batches"]:
        batch = list(read_csv(path).iter_rows())
        result = profiler.maintain(base, batch, result)
        rows += batch
        grown = Relation.from_rows(names, rows, name="grown").deduplicated()
        fresh = result_signature(profile(grown, algorithm="baseline"))
        if fresh != result_signature(result):
            raise SystemExit(f"append chain diverged after {path}")
        signatures.append(fresh)
    return signatures


def schema(inputs: dict) -> dict:
    root = Path(inputs["directory"])
    catalog = profile_schema(root, jobs=1)
    view = json.loads(json.dumps(catalog_view(catalog)))
    relations = {}
    for path in sorted(root.glob("*.csv")):
        relation = read_csv(path)
        name = path.stem
        if view["tables"][name].startswith("duplicate_of:"):
            continue
        relations[name] = relation
        if result_signature(profile(relation, algorithm="baseline")) != view["tables"][name]:
            raise SystemExit(f"schema table {name}: baseline disagrees with the catalog")
    columns = [
        (f"{name}.{relation.column_names[i]}",
         {str(v) for v in relation.column(i) if v is not None}, name)
        for name, relation in relations.items()
        for i in range(relation.n_columns)
    ]
    naive = sorted(
        f"{dep} ⊆ {ref}"
        for dep, dep_values, dep_table in columns
        for ref, ref_values, ref_table in columns
        if dep_table != ref_table and dep_values <= ref_values
    )
    if naive != view["cross_inds"]:
        raise SystemExit("schema: cross-table INDs disagree with naive containment")
    return view


def compute(size: str, seed: int, workdir: Path) -> dict:
    out = {}
    for workload in ("uniprot_rows", "ionosphere_cols", "uniprot_append", "schema_dir"):
        if workload == "uniprot_append" and seed != SEEDS[0]:
            continue
        directory = workdir / f"{size}-{seed}-{workload}"
        directory.mkdir(parents=True)
        inputs, _ = build_inputs(workload, size, seed, directory)
        if workload == "uniprot_rows":
            out[workload] = single(inputs, "baseline")
        elif workload == "ionosphere_cols":
            out[workload] = single(inputs, "holistic_fun")
        elif workload == "uniprot_append":
            out[workload] = append_chain(inputs)
        else:
            out[workload] = schema(inputs)
        print(f"{size} seed {seed} {workload}: done", flush=True)
    return out


def main() -> int:
    workdir = HERE / "_work" / "expected"
    shutil.rmtree(workdir, ignore_errors=True)
    document = {}
    try:
        for size in SIZES:
            first = compute(size, SEEDS[0], workdir)
            second = compute(size, SEEDS[1], workdir)
            for workload, value in second.items():
                if value != first[workload]:
                    raise SystemExit(f"{size} {workload}: expected output depends on the seed")
            document[size] = first
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "expected.json").write_text(
        json.dumps(document, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
