"""One benchmark child process: set up, run one workload's operations
back to back, report.

Started by ``run.py`` with the path of a plan file (JSON).  Protocol on
standard output: the line ``ready`` once set-up is done (the parent
timestamps it to measure ``setup_s``), then one JSON line with every
operation's outcome.  Anything the profiler itself prints is discarded.

Two modes:

* ``timed`` -- operations go through the same entry points a user runs:
  the ``repro`` CLI (``main(argv)``, in process) for the profile and
  schema workloads, ``read_csv`` + ``IncrementalProfiler.maintain`` per
  batch for the append workload.  Nothing is traced.
* ``traced`` -- timed operations alternate with traced ones.  A traced
  operation makes the same calls the CLI makes, one public function at a
  time, each wrapped in one of this file's spans, and records the work
  counters the program exposes.  No tracing inside the program is used.

Every operation's output is compared with the plan's expected output; a
mismatch, a non-zero exit or an exception makes the operation failed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """In-memory span recorder: name, start, end and parent span."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._stack[-1]["name"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def seconds(self, name: str) -> float:
        return sum(
            r["end"] - r["start"] for r in self.records if r["name"] == name
        )

    def top_level_seconds(self) -> float:
        return sum(
            r["end"] - r["start"] for r in self.records if r["parent"] is None
        )


# -- output checks ---------------------------------------------------------------


def _result_signature(path: str) -> str:
    from repro.metadata.serialize import loads, result_signature

    return result_signature(loads(Path(path).read_text(encoding="utf-8")))


def catalog_view(catalog) -> dict:
    """What the schema workload compares: per-table metadata signatures
    (duplicates by their representative), cross-table INDs and the FK
    ranking with exact scores.  Table fingerprints are left out, so a
    change of fingerprint format is not a wrong answer."""
    from repro.metadata.serialize import result_signature

    return {
        "tables": {
            table.name: (
                f"duplicate_of:{table.duplicate_of}"
                if table.duplicate_of is not None
                else result_signature(table.result)
                if table.result is not None
                else f"status:{table.status}"
            )
            for table in catalog.tables
        },
        "cross_inds": sorted(str(ind) for ind in catalog.cross_inds),
        "fk_candidates": [
            [str(c.ind), c.coverage, c.cardinality_ratio, c.name_similarity, c.score]
            for c in catalog.fk_candidates
        ],
        "status": catalog.status,
    }


def _catalog_view(path: str) -> dict:
    from repro.metadata.serialize import catalog_loads

    # Round-trip through JSON so floats compare exactly as the plan holds them.
    return json.loads(json.dumps(catalog_view(
        catalog_loads(Path(path).read_text(encoding="utf-8"))
    )))


# -- counters --------------------------------------------------------------------


def _kernel_counters(delta: dict) -> dict:
    return {
        "pli.intersections": delta["pli_intersections"],
        "pli.probe_builds": delta["probe_builds"],
        "pli.probe_reuses": delta["probe_reuses"],
        "pli.refine_calls": delta["refine_calls"],
        "pli.refine_cluster_scans": delta["refine_cluster_scans"],
        "pli.delta_merges": delta["delta_merges"],
        "pli.delta_reclustered_rows": delta["delta_reclustered_rows"],
    }


def _cache_counters(index) -> dict:
    stats = index.kernel_counters()
    return {
        "pli.cache_hits": stats["cache_hits"],
        "pli.cache_misses": stats["cache_misses"],
        "pli.cache_evictions": stats["cache_evictions"],
        "pli.cache_hit_ratio": stats["cache_hit_rate"],
    }


#: ``ProfilingResult.phase_seconds`` keys -> per-layer metric names.
PHASES = {
    "read_and_pli": "pli.build_s",
    "spider": "algorithms.spider_s",
    "ducc": "algorithms.ducc_s",
    "minimize_fds": "core.minimize_fds_s",
    "calculate_r_minus_z": "core.r_minus_z_s",
    "generate_shadowed_tasks": "core.shadowed_s",
    "minimize_shadowed_tasks": "core.shadowed_s",
    "completion_walk": "core.completion_s",
}


def _result_layers(results) -> dict:
    """Phase seconds and check/sampling counters summed over results."""
    layers = {name: 0.0 for name in PHASES.values()}
    counts: dict[str, int] = {}
    for result in results:
        for phase, seconds in result.phase_seconds.items():
            if phase in PHASES:
                layers[PHASES[phase]] += seconds
        for name, value in result.counters.items():
            counts[name] = counts.get(name, 0) + value
    queries = counts.get("sampling_fd_queries", 0)
    refuted = counts.get("sampling_fd_refuted", 0)
    layers.update({
        "core.fd_checks": counts.get("fd_checks", 0),
        "core.ucc_checks": counts.get("ucc_checks", 0),
        "core.sublattice_checks": counts.get("sublattice_checks", 0),
        "core.check_cache_hits": counts.get("check_cache_hits", 0),
        "sampling.fd_queries": queries,
        "sampling.fd_refuted": refuted,
        "sampling.refute_ratio": refuted / queries if queries else 0.0,
        "sampling.exact_avoided": counts.get("sampling_exact_avoided", 0),
    })
    return layers


# -- workloads -------------------------------------------------------------------


def _arm(plan: dict) -> None:
    """Set-up shared by every workload: import the CLI, arm the backend."""
    import repro.cli  # noqa: F401
    from repro.pli import backend

    backend.set_backend(plan["backend"])


class CliWorkload:
    """One in-process ``repro`` CLI call (``main(argv)``) per operation."""

    argv: list[str]

    def __init__(self, plan: dict):
        self.plan = plan

    def setup(self, spans: Spans) -> None:
        _arm(self.plan)

    def has_next(self) -> bool:
        return True

    def run(self) -> None:
        from repro.cli import main

        code = main(self.argv)
        if code != 0:
            raise RuntimeError(f"repro {self.argv[0]} exited with code {code}")


class ProfileWorkload(CliWorkload):
    """``repro <csv> --pli-backend B --no-result-cache --json OUT``."""

    def __init__(self, plan: dict):
        super().__init__(plan)
        self.csv = plan["inputs"]["csv"]
        self.out = str(Path(plan["workdir"]) / f"result-{os.getpid()}.json")
        self.argv = [self.csv, "--pli-backend", plan["backend"],
                     "--no-result-cache", "--json", self.out]

    def check(self) -> str | None:
        signature = _result_signature(self.out)
        if signature != self.plan["expected"]:
            return f"result signature {signature[:16]} != expected {self.plan['expected'][:16]}"
        return None

    def traced(self, spans: Spans) -> dict:
        """The CLI's single-relation path, one public call per span."""
        from repro.core.holistic_fun import HolisticFun
        from repro.core.muds import Muds
        from repro.core.profiler import choose_algorithm
        from repro.metadata.serialize import dumps
        from repro.pli.pli import KERNEL_STATS
        from repro.pli.store import PliStore
        from repro.relation import encoded
        from repro.relation.csv_io import read_csv

        with spans.span("relation.read_csv_s"):
            relation = read_csv(self.csv)
        layers = {"relation.read_csv_rss_mib": _rss_mib()}
        with spans.span("relation.deduplicate_s"):
            relation = relation.deduplicated()
            if encoded.ACTIVE != "objects":
                encoded.encode_relation(relation)
        with spans.span("relation.fingerprint_s"):
            relation.fingerprint()
        # profile() builds exactly this private store and profiler; they
        # are built here so the store's cache counters stay reachable.
        store = PliStore(sampling=True)
        if choose_algorithm(relation) == "muds":
            profiler = Muds(seed=0, verify_completeness=True, sampling=True, store=store)
        else:
            profiler = HolisticFun(sampling=True, store=store)
        before = KERNEL_STATS.snapshot()
        with spans.span("core.profile_s"):
            result = profiler.profile(relation)
        layers.update(_kernel_counters(KERNEL_STATS.delta(before)))
        layers.update(_cache_counters(store.index_for(relation)))
        layers.update(_result_layers([result]))
        with spans.span("metadata.dumps_s"):
            Path(self.out).write_text(dumps(result) + "\n", encoding="utf-8")
        return layers


class AppendWorkload:
    """Base profile in set-up, then one ``read_csv(batch)`` +
    ``IncrementalProfiler.maintain`` per operation (the CLI's
    ``--append`` path)."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.batches = plan["inputs"]["batches"]
        self.expected = plan["expected"]
        self.next_batch = 0
        self.setup_layers: dict = {}

    def setup(self, spans: Spans) -> None:
        from repro.core.profiler import choose_algorithm
        from repro.incremental import IncrementalProfiler
        from repro.relation import encoded
        from repro.relation.csv_io import read_csv

        _arm(self.plan)
        with spans.span("relation.read_csv_s"):
            relation = read_csv(self.plan["inputs"]["base"])
        self.setup_layers["relation.read_csv_rss_mib"] = _rss_mib()
        with spans.span("relation.deduplicate_s"):
            relation = relation.deduplicated()
            if encoded.ACTIVE != "objects":
                encoded.encode_relation(relation)
        with spans.span("relation.fingerprint_s"):
            relation.fingerprint()
        self.profiler = IncrementalProfiler(
            algorithm=choose_algorithm(relation), seed=0,
            verify_completeness=True, sampling=True,
        )
        with spans.span("incremental.profile_base_s"):
            self.result = self.profiler.profile_base(relation)
        self.relation = relation
        self.setup_layers.update(_result_layers([self.result]))

    def has_next(self) -> bool:
        return self.next_batch < len(self.batches)

    def _apply(self, spans: Spans | None):
        from repro.relation.csv_io import read_csv

        span = spans.span if spans is not None else lambda name: nullcontext()
        path = self.batches[self.next_batch]
        self.next_batch += 1
        with span("relation.read_batch_s"):
            batch = read_csv(path)
        with span("incremental.maintain_s"):
            self.result = self.profiler.maintain(
                self.relation, list(batch.iter_rows()), self.result
            )

    def run(self) -> None:
        self._apply(None)

    def check(self) -> str | None:
        from repro.metadata.serialize import result_signature

        signature = result_signature(self.result)
        expected = self.expected[self.next_batch - 1]
        if signature != expected:
            return (f"after batch {self.next_batch}: signature {signature[:16]} "
                    f"!= expected {expected[:16]}")
        return None

    def traced(self, spans: Spans) -> dict:
        from repro.pli.pli import KERNEL_STATS

        before = KERNEL_STATS.snapshot()
        self._apply(spans)
        layers = dict(self.setup_layers)
        layers.update(_kernel_counters(KERNEL_STATS.delta(before)))
        counters = self.result.counters
        layers.update({
            "incremental.refuted_fds": counters.get("refuted_fds", 0),
            "incremental.refuted_uccs": counters.get("refuted_uccs", 0),
            "incremental.composites_deferred": counters.get("composites_deferred", 0),
        })
        return layers


class SchemaWorkload(CliWorkload):
    """``repro profile-schema DIR --jobs 1 --json OUT``."""

    def __init__(self, plan: dict):
        super().__init__(plan)
        self.root = plan["inputs"]["directory"]
        self.out = str(Path(plan["workdir"]) / f"catalog-{os.getpid()}.json")
        self.argv = ["profile-schema", self.root, "--jobs", "1", "--json", self.out]

    def check(self) -> str | None:
        view = _catalog_view(self.out)
        if view != self.plan["expected"]:
            diff = [key for key in view if view[key] != self.plan["expected"].get(key)]
            return f"catalog differs from expected in {diff}"
        return None

    def traced(self, spans: Spans) -> dict:
        """``profile_schema`` + ``catalog_dumps``, the CLI's path."""
        from repro.metadata.serialize import catalog_dumps
        from repro.pli.pli import KERNEL_STATS
        from repro.schema import profile_schema

        before = KERNEL_STATS.snapshot()
        with spans.span("schema.profile_schema_s"):
            catalog = profile_schema(self.root, jobs=1)
        layers = _kernel_counters(KERNEL_STATS.delta(before))
        with spans.span("metadata.dumps_s"):
            Path(self.out).write_text(catalog_dumps(catalog) + "\n", encoding="utf-8")
        results = [t.result for t in catalog.tables if t.result is not None]
        layers.update(_result_layers(results))
        layers["schema.tables_s"] = sum(t.seconds for t in catalog.tables)
        for name in ("schema.dedup_hits", "schema.inds_across", "schema.fk_candidates"):
            layers[name] = catalog.counters.get(name, 0)
        return layers

    def probe(self, layers: dict) -> None:
        """Calls timed after a traced operation, outside its wall time:
        the table load and the cross-table SPIDER merge."""
        from repro.algorithms.spider import spider_across
        from repro.schema.job import load_table

        labels = sorted(p.name for p in Path(self.root).glob("*.csv"))
        started = time.perf_counter()
        relations = {label: load_table(label, self.root) for label in labels}
        layers["schema.load_s"] = time.perf_counter() - started
        layers["relation.read_csv_s"] = layers["schema.load_s"]
        unique = {}
        for label in labels:
            unique.setdefault(relations[label].fingerprint(), relations[label])
        started = time.perf_counter()
        spider_across(list(unique.values()), sampling=None)
        layers["algorithms.spider_across_s"] = time.perf_counter() - started


WORKLOADS = {
    "uniprot_rows": ProfileWorkload,
    "ionosphere_cols": ProfileWorkload,
    "uniprot_append": AppendWorkload,
    "schema_dir": SchemaWorkload,
}


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    protocol = sys.stdout
    sys.stdout = open(os.devnull, "w")  # the profiler's own prints
    workload = WORKLOADS[plan["workload"]](plan)
    setup_spans = Spans()
    workload.setup(setup_spans)
    print("ready", file=protocol, flush=True)

    ops: list[dict] = []
    traced_layers: list[dict] = []
    started = time.perf_counter()
    alternate = plan["mode"] == "traced"
    # An operation starts only if one more of the usual length still fits
    # in this child's share, so the run does not overshoot its seconds.
    while workload.has_next() and (
        len(ops) < plan["min_ops"]
        or time.perf_counter() - started
        + (statistics.median(op["seconds"] for op in ops) if ops else 0.0)
        < plan["seconds"]
    ):
        # Traced operations go first, so the first one's ru_maxrss after
        # read_csv is not an earlier operation's high-water mark.
        traced = alternate and len(ops) % 2 == 0
        spans = Spans()
        error = None
        op_start = time.perf_counter()
        try:
            if traced:
                layers = workload.traced(spans)
            else:
                workload.run()
            seconds = time.perf_counter() - op_start
            error = workload.check()
        except (Exception, SystemExit) as exc:  # counted as a failed operation
            seconds = time.perf_counter() - op_start
            error = f"{type(exc).__name__}: {exc}"
        ops.append({"seconds": seconds, "traced": traced, "error": error})
        if traced and error is None:
            layers.update({name: spans.seconds(name) for name in
                           {r["name"] for r in spans.records}})
            layers["trace.top_level_s"] = spans.top_level_seconds()
            layers["trace.op_s"] = seconds
            if hasattr(workload, "probe"):
                workload.probe(layers)
            traced_layers.append(layers)
    report = {
        "ops": ops,
        "traced": traced_layers,
        "setup_spans": {name: setup_spans.seconds(name)
                        for name in {r["name"] for r in setup_spans.records}},
    }
    print(json.dumps(report), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
