"""Holistic profiling algorithms: MUDS, Holistic FUN, sequential baseline."""

from .baseline import BaselineProfiler
from .check_cache import CheckCache
from .fds_first import FdsFirstProfiler, candidate_keys_from_fds, closure_of
from .holistic_fun import HolisticFun
from .statistics import ColumnStatistics, profile_statistics
from .minimize import connector_lookup, minimize_fds_from_uccs
from .muds import Muds, MudsReport
from .normalize import ProposedRelation, synthesize_3nf
from .profiler import (
    ALGORITHMS,
    MUDS_COLUMN_THRESHOLD,
    PROFILERS,
    Profile,
    choose_algorithm,
    profile,
    resolve_algorithm,
)
from .shadowed import generate_shadowed_tasks, minimize_shadowed_tasks, remove_uccs
from .sublattice import SublatticeStats, discover_r_minus_z

__all__ = [
    "ALGORITHMS",
    "BaselineProfiler",
    "ColumnStatistics",
    "CheckCache",
    "FdsFirstProfiler",
    "HolisticFun",
    "MUDS_COLUMN_THRESHOLD",
    "Muds",
    "MudsReport",
    "PROFILERS",
    "Profile",
    "ProposedRelation",
    "SublatticeStats",
    "candidate_keys_from_fds",
    "choose_algorithm",
    "closure_of",
    "connector_lookup",
    "discover_r_minus_z",
    "generate_shadowed_tasks",
    "minimize_fds_from_uccs",
    "minimize_shadowed_tasks",
    "profile",
    "profile_statistics",
    "remove_uccs",
    "resolve_algorithm",
    "synthesize_3nf",
]
