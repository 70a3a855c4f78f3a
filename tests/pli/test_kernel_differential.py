"""Differential validation of the array-backed PLI kernel.

Three guarantees, checked on ~200 randomized relations drawn from the
workload generators in :mod:`repro.datasets.generators`:

1. the probe-vector ``intersect`` path produces PLIs identical to the
   seed kernel's cluster-set path (kept as
   :func:`repro.pli.legacy_intersect`), and ``refines`` agrees with the
   Lemma-1 cardinality formulation on the same inputs — on *every*
   available kernel backend (python, and numpy when installed) under
   both column-storage modes (encoded / mmap);
2. TANE, FUN, and MUDS produce identical minimal FDs when all driven
   through one shared :class:`~repro.pli.PliStore`;
3. the kernel backends and the storage modes are interchangeable:
   identical clusters, identical discovered metadata, and identical
   kernel counters modulo the backend name itself — and the code-built
   substrate equals a plain value grouping of the decoded columns.
"""

import itertools

import pytest

from repro.algorithms.fun import fun
from repro.algorithms.tane import tane
from repro.core.muds import Muds
from repro.datasets.generators import ionosphere_like, ncvoter_like, uniprot_like
from repro.pli import (
    KERNEL_STATS,
    PliStore,
    RelationIndex,
    available_backends,
    legacy_intersect,
    numpy_available,
    pli_from_column,
    use_backend,
    value_vector,
)
from repro.pli import backend as _backend
from repro.relation.encoded import STORAGE_MODES, use_storage

# ~200 randomized relations: 3 generators x seeds x sizes.  Small rows keep
# the quadratic all-pairs intersection sweep fast.
_CASES = (
    [("uniprot", uniprot_like, rows, cols, seed)
     for rows, cols, seed in itertools.product((30, 60), (4, 6, 10), range(12))]
    + [("ionosphere", lambda r, c, s: ionosphere_like(c, n_rows=r, seed=s), rows, cols, seed)
       for rows, cols, seed in itertools.product((40, 80), (6, 8, 10), range(12))]
    + [("ncvoter", ncvoter_like, rows, cols, seed)
       for rows, cols, seed in itertools.product((30, 60), (5, 8, 12), range(10))]
)
assert len(_CASES) >= 200


def _build(name, factory, rows, cols, seed):
    if name == "ionosphere":
        return factory(rows, cols, seed)
    return factory(rows, n_columns=cols, seed=seed)


@pytest.mark.parametrize("source", (*STORAGE_MODES, "values"))
@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize(
    "name, factory, rows, cols, seed",
    _CASES,
    ids=[f"{c[0]}-{c[2]}x{c[3]}-s{c[4]}" for c in _CASES],
)
def test_new_kernel_matches_legacy_on_generated_relations(
    name, factory, rows, cols, seed, backend_name, source
):
    """``source`` is where the single-column PLIs and vectors come from:
    an index over codes in either storage mode, or ``values`` — a plain
    grouping of the decoded values, with no array state seeded."""
    with use_backend(backend_name), use_storage(
        None if source == "values" else source
    ):
        relation = _build(name, factory, rows, cols, seed)
        if source == "values":
            columns = [
                tuple(relation.column(c)) for c in range(relation.n_columns)
            ]
            plis = [pli_from_column(values) for values in columns]
            vectors = [
                _backend.ACTIVE.as_vector(value_vector(values))
                for values in columns
            ]
        else:
            index = RelationIndex(relation)
            plis = [index.column_pli(c) for c in range(relation.n_columns)]
            vectors = [index.vector(c) for c in range(relation.n_columns)]

        for left, right in itertools.combinations(range(relation.n_columns), 2):
            via_probe = plis[left].intersect(plis[right])
            via_clusters = legacy_intersect(plis[left], plis[right])
            assert via_probe == via_clusters, (
                f"kernel divergence intersecting columns {left},{right} "
                f"of {relation.name} on the {backend_name} backend"
            )
            # refines must agree with Lemma 1's cardinality formulation.
            for lhs, rhs in ((left, right), (right, left)):
                joint = legacy_intersect(plis[lhs], plis[rhs])
                assert plis[lhs].refines(vectors[rhs]) == (
                    plis[lhs].distinct_count == joint.distinct_count
                )


@pytest.mark.parametrize("seed", range(4))
def test_tane_fun_muds_agree_through_one_shared_store(seed):
    relation = uniprot_like(80, n_columns=8, seed=seed)
    store = PliStore()
    tane_fds = sorted(tane(store.index_for(relation)).fds)
    fun_fds = sorted(fun(store.index_for(relation)).fds)
    muds_result = Muds(seed=seed, store=store).profile(relation)
    muds_fds = sorted(
        (fd.lhs_mask(relation.column_names),
         relation.column_names.index(fd.rhs))
        for fd in muds_result.fds
    )
    assert tane_fds == fun_fds == muds_fds
    assert store.builds == 1  # one substrate served all three algorithms


def test_fd_signatures_agree_on_ncvoter_geometry():
    relation = ncvoter_like(120, n_columns=10, seed=3)
    store = PliStore()
    index = store.index_for(relation)
    tane_result = tane(index)
    fun_result = fun(index)
    assert sorted(tane_result.fds) == sorted(fun_result.fds)
    assert sorted(tane_result.minimal_keys) == sorted(fun_result.minimal_uccs)
    assert store.builds == 1


# -- backend / storage interchangeability -----------------------------------


def _profile_on_backend(backend_name, build, seed, storage_mode=None):
    """One full MUDS + TANE + FUN pass on a fresh substrate over the
    relation ``build()`` makes under ``storage_mode``; returns the
    discovered metadata, the composite clusters, and the kernel deltas."""
    with use_backend(backend_name), use_storage(storage_mode):
        relation = build()
        before = KERNEL_STATS.snapshot()
        store = PliStore()
        index = store.index_for(relation)
        tane_result = tane(index)
        fun_result = fun(index)
        muds_result = Muds(seed=seed, store=store).profile(relation)
        counters = KERNEL_STATS.delta(before)
        clusters = {
            column: index.column_pli(column).clusters
            for column in range(relation.n_columns)
        }
        pair_clusters = {
            (left, right): index.column_pli(left)
            .intersect(index.column_pli(right))
            .clusters
            for left, right in itertools.combinations(
                range(relation.n_columns), 2
            )
        }
    counters.pop("pli_backend")
    return {
        "tane_fds": sorted(tane_result.fds),
        "fun_fds": sorted(fun_result.fds),
        "muds_fds": sorted(str(fd) for fd in muds_result.fds),
        "uccs": sorted(str(ucc) for ucc in muds_result.uccs),
        "inds": sorted(str(ind) for ind in muds_result.inds),
        "clusters": clusters,
        "pair_clusters": pair_clusters,
        "counters": counters,
    }


_INTERCHANGE_CASES = [
    (uniprot_like, 60, 8, 0),
    (uniprot_like, 90, 6, 3),
    (ncvoter_like, 80, 8, 1),
    (lambda r, n_columns, seed: ionosphere_like(
        n_columns, n_rows=r, seed=seed
    ), 70, 7, 2),
]
_INTERCHANGE_IDS = [
    "uniprot-60x8", "uniprot-90x6", "ncvoter-80x8", "ionosphere-70x7"
]


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@pytest.mark.parametrize("storage_mode", STORAGE_MODES)
@pytest.mark.parametrize(
    "factory, rows, cols, seed", _INTERCHANGE_CASES, ids=_INTERCHANGE_IDS
)
def test_backends_are_interchangeable(factory, rows, cols, seed, storage_mode):
    """The kernel-backend contract, pinned under every storage mode:
    swapping the backend changes nothing observable but speed — identical
    clusters (the canonical form is the identity), identical discovered
    metadata, and identical kernel counters modulo the backend name (the
    accounting parity documented on each backend method)."""
    def build():
        return factory(rows, n_columns=cols, seed=seed)

    python = _profile_on_backend("python", build, seed, storage_mode)
    numpy = _profile_on_backend("numpy", build, seed, storage_mode)
    assert python["clusters"] == numpy["clusters"]
    assert python["pair_clusters"] == numpy["pair_clusters"]
    for key in ("tane_fds", "fun_fds", "muds_fds", "uccs", "inds"):
        assert python[key] == numpy[key], f"{key} diverged across backends"
    assert python["counters"] == numpy["counters"]


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize(
    "factory, rows, cols, seed", _INTERCHANGE_CASES, ids=_INTERCHANGE_IDS
)
def test_storage_modes_are_interchangeable(factory, rows, cols, seed, backend_name):
    """The columnar-storage contract: where the codes live changes
    nothing observable — ``encoded`` and ``mmap`` give bit-identical
    clusters, metadata, and kernel counters (not merely modulo a name:
    the *same* backend must count the same work whichever storage fed
    it).  Each mode builds its own relation, since a relation's codes
    live where the mode armed at construction put them.
    """

    def build():
        return factory(rows, n_columns=cols, seed=seed)

    encoded, mmap = (
        _profile_on_backend(backend_name, build, seed, mode)
        for mode in ("encoded", "mmap")
    )
    assert mmap["clusters"] == encoded["clusters"]
    assert mmap["pair_clusters"] == encoded["pair_clusters"]
    for key in ("tane_fds", "fun_fds", "muds_fds", "uccs", "inds"):
        assert mmap[key] == encoded[key], (
            f"{key} diverged between encoded and mmap storage"
        )
    assert mmap["counters"] == encoded["counters"]

    # The value-grouping reference: every single-column view the index
    # derives from codes equals what grouping the decoded values gives.
    for mode in STORAGE_MODES:
        with use_backend(backend_name), use_storage(mode):
            relation = build()
            index = RelationIndex(relation)
        assert relation.encoding(0).storage == mode
        for column in range(relation.n_columns):
            values = tuple(relation.column(column))
            assert index.column_pli(column) == pli_from_column(values)
            assert list(index.vector(column)) == value_vector(values)
            assert index.distinct_values(column) == list(dict.fromkeys(values))
