"""Reports: warning listings, Figure-11-style tables, JSON export."""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Sequence

from repro.datalog import SolverStats
from repro.obs.history import WarningDiff
from repro.tool.regionwiz import Fig11Row, RegionWizReport

__all__ = [
    "format_report",
    "format_fig11_table",
    "format_solver_stats",
    "format_validation",
    "report_to_json",
]


def format_solver_stats(stats: SolverStats, indent: str = "  ") -> str:
    """Indented rendering of :meth:`SolverStats.summary`."""
    return "\n".join(
        indent + line for line in stats.summary().splitlines()
    )


def format_report(
    report: RegionWizReport,
    verbose: bool = False,
    diff: Optional[WarningDiff] = None,
    validation=None,
) -> str:
    """Human-readable warning listing, high-ranked first.

    ``diff`` (set when the CLI was given ``--baseline``) appends the
    new/persisting/fixed classification block.  ``validation`` (set by
    ``--validate``) adds a per-warning dynamic label and a summary of
    the traced execution.
    """
    lines: List[str] = []
    row = report.fig11_row()
    lines.append(f"RegionWiz report for {report.name}")
    if report.degraded:
        ladder = " -> ".join(report.degradation_path + (report.precision,))
        lines.append(
            f"  degraded(precision={report.precision}):"
            f" budget exceeded at higher precision (ladder: {ladder})"
        )
    lines.append(
        f"  {row.regions} region(s), {row.objects} object(s);"
        f" subregion={row.subregion} ownership={row.ownership}"
        f" heap={row.heap}"
    )
    lines.append(
        f"  verified {row.r_pairs} region pair(s):"
        f" {row.o_pairs} inconsistent object pair(s),"
        f" {row.i_pairs} instruction pair(s), {row.high} high-ranked"
    )
    lines.append(
        f"  phases: frontend {report.times.frontend * 1000:.1f}ms,"
        f" call-graph {report.times.call_graph * 1000:.1f}ms,"
        f" cloning {report.times.context_cloning * 1000:.1f}ms,"
        f" correlation {report.times.correlation * 1000:.1f}ms,"
        f" post {report.times.post_processing * 1000:.1f}ms"
    )
    # Statistics deliberately do NOT appear here: the warning listing is
    # the machine-greppable product on stdout, so --stats goes to stderr
    # (see repro.tool.cli); a --query solve's stats also go into the JSON
    # report.
    new_fingerprints = (
        {entry.fingerprint for entry in diff.new} if diff is not None else set()
    )
    if report.is_consistent:
        lines.append("  region lifetime is consistent: no warnings")
    else:
        lines.append("")
        for index, warning in enumerate(report.warnings, 1):
            rank = "HIGH" if warning.high_ranked else "low"
            marker = " NEW" if warning.fingerprint in new_fingerprints else ""
            if validation is not None and index - 1 < len(validation.labels):
                marker += f" [{validation.labels[index - 1]}]"
            lines.append(
                f"warning {index} [{rank}]{marker}: {warning.description}"
            )
            if verbose:
                if warning.fingerprint:
                    lines.append(f"    fingerprint {warning.fingerprint}")
                for loc in warning.store_locs:
                    lines.append(f"    pointer stored at {loc}")
    if validation is not None:
        lines.append("")
        lines.append(format_validation(validation))
    if diff is not None:
        lines.append("")
        lines.append(diff.format())
    return "\n".join(lines)


def format_validation(validation, indent: str = "  ") -> str:
    """The dynamic-validation summary block (``--validate``)."""
    lines = [f"dynamic validation: {validation.status}"]
    if validation.error:
        lines.append(f"{indent}error: {validation.error}")
    lines.append(
        f"{indent}executed {validation.steps} step(s),"
        f" {validation.events} trace event(s),"
        f" {validation.faults} dynamic fault(s)"
    )
    if validation.replay_consistent is not None:
        agreement = (
            "agrees with" if validation.replay_consistent else "DISAGREES with"
        )
        lines.append(f"{indent}trace replay {agreement} the runtime fault log")
    lines.append(
        f"{indent}warnings: {validation.confirmed} confirmed,"
        f" {validation.unobserved} unobserved,"
        f" {validation.uncovered} uncovered"
    )
    for bucket in ("high", "low"):
        counts = validation.buckets.get(bucket)
        if not counts:
            continue
        precision = counts.get("precision")
        rendered = "n/a" if precision is None else f"{precision:.2f}"
        lines.append(
            f"{indent}{bucket}-ranked: {counts.get('confirmed', 0)} confirmed"
            f" / {counts.get('unobserved', 0)} unobserved"
            f" / {counts.get('uncovered', 0)} uncovered"
            f" (precision {rendered})"
        )
    return "\n".join(lines)


def report_to_json(
    report: RegionWizReport,
    diff: Optional[WarningDiff] = None,
    validation=None,
    run_id: Optional[str] = None,
) -> str:
    """Machine-readable report (stable schema for CI integration).

    ``run_id`` (when given) lands in the payload so the JSON joins
    against registry rows, event streams, and Chrome traces.
    """
    row = report.fig11_row()
    payload = {
        "name": report.name,
        "consistent": report.is_consistent,
        "precision": report.precision,
        "degraded": report.degraded,
        "degradation_path": list(report.degradation_path),
        "statistics": {
            "regions": row.regions,
            "objects": row.objects,
            "subregion": row.subregion,
            "ownership": row.ownership,
            "heap": row.heap,
            "region_pairs": row.r_pairs,
            "object_pairs": row.o_pairs,
            "instruction_pairs": row.i_pairs,
            "high_ranked": row.high,
            "time_seconds": round(row.time_seconds, 6),
        },
        "phases_ms": {
            "frontend": round(report.times.frontend * 1000, 3),
            "call_graph": round(report.times.call_graph * 1000, 3),
            "context_cloning": round(
                report.times.context_cloning * 1000, 3
            ),
            "correlation": round(report.times.correlation * 1000, 3),
            "post_processing": round(
                report.times.post_processing * 1000, 3
            ),
        },
        "warnings": [
            {
                "rank": "high" if warning.high_ranked else "low",
                "fingerprint": warning.fingerprint,
                "source": str(warning.source_loc),
                "target": str(warning.target_loc),
                "stores": [str(loc) for loc in warning.store_locs],
                "contexts": warning.num_contexts,
                "description": warning.description,
            }
            for warning in report.warnings
        ],
    }
    if run_id is not None:
        payload["run_id"] = run_id
    if validation is not None:
        payload["validation"] = validation.to_payload()
        for index, entry in enumerate(payload["warnings"]):
            if index < len(validation.labels):
                entry["validation"] = validation.labels[index]
    if diff is not None:
        payload["baseline_diff"] = diff.to_dict()
    if report.budget is not None:
        payload["budget"] = report.budget.to_dict()
    if report.budget_usage is not None:
        payload["budget_usage"] = report.budget_usage
    if report.metrics is not None:
        payload["metrics"] = report.metrics.to_dict()
    stats = report.times.solver
    if stats is not None:
        payload["solver"] = {
            "backend": stats.backend,
            "engine": stats.engine,
            "facts_loaded": stats.facts_loaded,
            "tuples_derived": stats.tuples_derived,
            "rounds": stats.rounds,
            "rule_evals": stats.rule_evals,
            "rule_eval_ms": round(stats.rule_eval_seconds * 1000, 3),
            "index_builds": stats.index_builds,
            "index_hits": stats.index_hits,
            "solve_ms": round(stats.solve_seconds * 1000, 3),
            "strata": [
                {
                    "relations": list(stratum.relations),
                    "rounds": stratum.rounds,
                    "derived": stratum.derived,
                    "ms": round(stratum.seconds * 1000, 3),
                }
                for stratum in stats.strata
            ],
        }
    return json.dumps(payload, indent=2)


def format_fig11_table(rows: Iterable[Fig11Row]) -> str:
    """Fixed-width table with the same columns as the paper's Figure 11."""
    materialized: List[Sequence] = [Fig11Row.HEADER]
    materialized.extend(row.as_tuple() for row in rows)
    widths = [
        max(len(str(row[col])) for row in materialized)
        for col in range(len(Fig11Row.HEADER))
    ]
    lines = []
    for index, row in enumerate(materialized):
        cells = [str(value).rjust(width) for value, width in zip(row, widths)]
        cells[0] = str(row[0]).ljust(widths[0])  # name column left-aligned
        lines.append("  ".join(cells))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
