"""The paper's core: conditional correlation and region lifetime consistency."""

from repro.core.consistency import (
    ConsistencyResult,
    ObjectPairWarning,
    check_consistency,
    region_lifetime_correlation,
)
from repro.core.correlation import (
    ConditionalCorrelation,
    Violation,
    check_abstraction,
)
from repro.core.abstract_flow import run_abstract_flow
from repro.core.datalog_check import datalog_object_pairs, solve_object_pairs
from repro.core.hierarchy import (
    RegionHierarchy,
    build_hierarchy,
    region_hierarchy,
)
from repro.core.lockcorr import LockAccess, find_races, lockset_correlation
from repro.core.ranking import IPair, RankedWarnings, rank_warnings
from repro.core.refine import (
    RegionVarIndex,
    build_region_var_index,
    refine_warnings,
)
from repro.core.toysyntax import ToyParseError, parse_toy

__all__ = [
    "ConditionalCorrelation",
    "ConsistencyResult",
    "IPair",
    "LockAccess",
    "ObjectPairWarning",
    "RankedWarnings",
    "RegionHierarchy",
    "RegionVarIndex",
    "build_region_var_index",
    "refine_warnings",
    "ToyParseError",
    "Violation",
    "build_hierarchy",
    "check_abstraction",
    "check_consistency",
    "datalog_object_pairs",
    "find_races",
    "lockset_correlation",
    "parse_toy",
    "rank_warnings",
    "region_hierarchy",
    "region_lifetime_correlation",
    "run_abstract_flow",
    "solve_object_pairs",
]
