"""A bddbddb-style Datalog engine with set and BDD backends."""

from repro.datalog.program import (
    DatalogError,
    Derivation,
    Program,
    Solution,
    SolverStats,
    StratumStats,
)
from repro.datalog.relation import (
    BddRelation,
    Relation,
    RelationError,
    SetRelation,
)
from repro.datalog.rules import (
    Atom,
    Const,
    DatalogSyntaxError,
    NotEqual,
    Rule,
    Var,
    parse_rule,
    parse_rules,
)

__all__ = [
    "Atom",
    "BddRelation",
    "Const",
    "DatalogError",
    "DatalogSyntaxError",
    "Derivation",
    "NotEqual",
    "Program",
    "Relation",
    "RelationError",
    "Rule",
    "SetRelation",
    "Solution",
    "SolverStats",
    "StratumStats",
    "Var",
    "parse_rule",
    "parse_rules",
]
