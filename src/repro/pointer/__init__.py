"""Pointer analysis: context numbering, cloned analysis, Datalog formulation."""

from repro.pointer.analysis import (
    AbstractObject,
    AnalysisOptions,
    NULL_OBJECT,
    PointerAnalysisResult,
    ROOT_REGION,
    ROOT_REGION_ID,
    analyze_pointers,
)
from repro.pointer.contexts import ContextNumbering, number_contexts
from repro.pointer.datalog_pta import DatalogPTA, run_datalog_pta

__all__ = [
    "AbstractObject",
    "AnalysisOptions",
    "ContextNumbering",
    "DatalogPTA",
    "NULL_OBJECT",
    "run_datalog_pta",
    "PointerAnalysisResult",
    "ROOT_REGION",
    "ROOT_REGION_ID",
    "analyze_pointers",
    "number_contexts",
]
