"""The algorithm table, the paper's selection heuristic, and the one-call
profiling facade.

§6.5 concludes that the column count is a simple and similarly-precise
proxy for choosing between the two holistic algorithms: Holistic FUN wins
on narrow relations (small minimal-FD left-hand sides, cheap level-wise
search), MUDS wins from about ten columns up (UCC-driven pruning and
depth-first descent pay off).  :func:`choose_algorithm` applies exactly
that rule; callers can always pin an algorithm explicitly.

:data:`PROFILERS` is the one name → profiler table: :func:`profile`, the
CLI, the incremental profiler, the schema job and the benchmark framework
all build their profilers from it.
"""

from __future__ import annotations

from typing import Any, Callable

from .. import trace as _trace
from ..metadata.results import ProfilingResult
from ..pli import backend as _backend
from ..pli.store import PliStore
from ..relation import encoded as _encoded
from ..relation.relation import Relation
from ..sampling import SamplingConfig
from .baseline import BaselineProfiler
from .holistic_fun import HolisticFun
from .muds import Muds

__all__ = [
    "profile",
    "choose_algorithm",
    "resolve_algorithm",
    "Profile",
    "PROFILERS",
    "ALGORITHMS",
    "MUDS_COLUMN_THRESHOLD",
]

#: §6.3/§6.5: MUDS "usually performs best on datasets with ten or more
#: columns"; below that Holistic FUN's level-wise search is cheaper.
MUDS_COLUMN_THRESHOLD = 10

#: The algorithm table: name → factory ``(seed, verify_completeness, jobs,
#: sampling, store)``.  ``verify_completeness`` reaches MUDS only and
#: ``jobs`` the baseline only; ``store=None`` gives the profiler a private
#: PLI store.
PROFILERS: dict[str, Callable[..., Any]] = {
    "muds": lambda seed, verify_completeness, jobs, sampling, store: Muds(
        seed=seed,
        verify_completeness=verify_completeness,
        sampling=sampling,
        store=store,
    ),
    "holistic_fun": lambda seed, verify_completeness, jobs, sampling, store: (
        HolisticFun(sampling=sampling, store=store)
    ),
    "baseline": lambda seed, verify_completeness, jobs, sampling, store: (
        BaselineProfiler(seed=seed, store=store, jobs=jobs, sampling=sampling)
    ),
}

ALGORITHMS = ("auto", *PROFILERS)


def choose_algorithm(relation: Relation) -> str:
    """Column-count heuristic of §6.5: MUDS for wide relations, Holistic
    FUN for narrow ones."""
    if relation.n_columns >= MUDS_COLUMN_THRESHOLD:
        return "muds"
    return "holistic_fun"


def resolve_algorithm(algorithm: str, relation: Relation | None = None) -> str:
    """Check ``algorithm`` against :data:`ALGORITHMS` (``ValueError`` when
    unknown) and, given a relation, resolve ``"auto"`` by
    :func:`choose_algorithm`."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}")
    if algorithm == "auto" and relation is not None:
        return choose_algorithm(relation)
    return algorithm


class Profile:
    """A table entry bound to its options, as a profiler: ``"auto"``
    resolves per relation, and each profile runs under the ``profile``
    trace span.  :func:`profile` is its one-call form; the CLI and the
    schema job register it as their framework entry, and
    :class:`~repro.incremental.IncrementalProfiler` runs its base profile
    through it with its own store."""

    def __init__(
        self,
        algorithm: str = "auto",
        seed: int = 0,
        verify_completeness: bool = True,
        jobs: int | None = None,
        sampling: SamplingConfig | bool | None = None,
        store: PliStore | None = None,
    ):
        self.algorithm = resolve_algorithm(algorithm)
        self.options = (seed, verify_completeness, jobs, sampling, store)

    def profile(self, relation: Relation) -> ProfilingResult:
        algorithm = resolve_algorithm(self.algorithm, relation)
        with _trace.span(
            "profile",
            algorithm=algorithm,
            dataset=relation.name,
            columns=relation.n_columns,
            rows=relation.n_rows,
            pli_backend=_backend.ACTIVE.name,
            storage=_encoded.ACTIVE,
        ):
            return PROFILERS[algorithm](*self.options).profile(relation)


def profile(
    relation: Relation,
    algorithm: str = "auto",
    seed: int = 0,
    verify_completeness: bool = True,
    jobs: int | None = None,
    sampling: SamplingConfig | bool | None = None,
) -> ProfilingResult:
    """Discover all unary INDs, minimal UCCs, and minimal FDs of a relation.

    Parameters
    ----------
    relation:
        Input relation.  The holistic pruning rules assume duplicate-free
        rows (§3); duplicates are handled correctly (the relation then
        simply has no UCCs) but consider :meth:`Relation.deduplicated`
        first if key discovery matters.
    algorithm:
        ``"auto"`` (§6.5 heuristic), ``"muds"``, ``"holistic_fun"``, or
        ``"baseline"``.
    seed:
        Random seed for walk-based algorithms (deterministic runs).
    verify_completeness:
        Forwarded to :class:`Muds`; certifies the FD set exact.
    jobs:
        Worker-process count for the ``"baseline"`` algorithm, whose
        three tasks (SPIDER, DUCC, FUN) are independent by definition;
        ``None``/``1`` keeps the paper's sequential execution.  The
        holistic algorithms are single search processes and ignore it.
    sampling:
        Sampling-driven refutation engine: ``None``/``True`` enables the
        default two-stage validation (row-sample refutation before exact
        PLI checks — results stay exact either way), ``False`` disables
        it, a :class:`~repro.sampling.SamplingConfig` tunes it.

    The PLI kernel backend and the column storage are the process's armed
    ones (``$REPRO_PLI_BACKEND``/``$REPRO_STORAGE``, or
    :func:`~repro.pli.backend.use_backend` /
    :func:`~repro.relation.encoded.use_storage` for a scoped choice); the
    discovered metadata is bit-identical across both.

    Returns
    -------
    ProfilingResult
        All three metadata sets plus phase timings and check counters.
    """
    return Profile(
        algorithm, seed, verify_completeness, jobs, sampling
    ).profile(relation)
