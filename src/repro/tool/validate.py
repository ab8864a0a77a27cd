"""Dynamic validation driver: execute, trace, replay, correlate.

``validate_report`` is the ``--validate`` engine: it runs the analyzed
unit's entry point under the region interpreter with a traced runtime,
replays the trace through the simulator, and correlates the runtime's
fault log with the report's static warnings.  The outcome annotates the
report (``validation`` payload, ``validation.*`` metrics) without ever
changing the static analysis verdict: a crash or budget trip during
validation degrades the labels to ``uncovered``/partial coverage, it
does not turn a successful analysis into a failed run.
"""

from __future__ import annotations

import os
import re
from typing import Optional, Sequence

from repro.obs.events import EventLog
from repro.obs.hub import trace_span
from repro.obs.replay import replay_trace
from repro.obs.validate import ValidationResult, correlate_warnings
from repro.runtime import RegionTracer, run_program
from repro.util.errors import BudgetExceeded

__all__ = ["validate_report", "trace_out_path", "DEFAULT_VALIDATE_STEPS"]

#: Default interpreter step budget for ``--validate`` runs.
DEFAULT_VALIDATE_STEPS = 200_000


def trace_out_path(directory: str, name: str) -> str:
    """``DIR/<sanitized unit name>.trace.jsonl`` (directory created).

    Shared by the single-run CLI and the batch driver so a unit's trace
    artifact lands at the same path in either mode.
    """
    os.makedirs(directory, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
    return os.path.join(directory, f"{safe}.trace.jsonl")


def validate_report(
    report,
    warnings: Optional[Sequence] = None,
    max_steps: int = DEFAULT_VALIDATE_STEPS,
    max_heap_bytes: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> ValidationResult:
    """Validate ``report``'s warnings against one traced execution.

    ``warnings`` defaults to ``report.warnings``; pass the filtered list
    when the CLI displays only high-ranked warnings so labels align with
    what the user sees.  ``trace_path`` additionally streams the trace
    to a JSONL file (the ``--trace-out`` artifact).

    The execution's faults — not the replay's — are the ground truth for
    labeling; the replay cross-check lands in ``replay_consistent``.
    """
    if warnings is None:
        warnings = report.warnings
    entry = getattr(report, "entry", "main") or "main"
    interface = getattr(report, "interface", None)

    info = report.sema.functions.get(entry)
    if interface is None or info is None or info.decl.body is None:
        result = correlate_warnings(warnings, [], set())
        result.status = "no-entry"
        result.error = f"entry point {entry!r} is not a defined function"
        return result

    log = None
    if trace_path is not None:
        log = EventLog(trace_path)
    tracer = RegionTracer(log=log)
    status = "ok"
    error: Optional[str] = None
    steps = 0
    runtime = None
    try:
        with trace_span("validate.execute", unit=report.name, entry=entry):
            execution = run_program(
                report.sema,
                interface,
                entry=entry,
                max_steps=max_steps,
                max_heap_bytes=max_heap_bytes,
                tracer=tracer,
            )
        steps = execution.steps
        runtime = execution.runtime
    except BudgetExceeded as exc:
        status = "budget-exhausted"
        error = str(exc)
        steps = max_steps
    except Exception as exc:  # InterpError, RuntimeError_, RecursionError...
        status = "interp-error"
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if log is not None:
            log.close()

    # Replay whatever trace exists — a partial trace still yields
    # partial coverage and any faults observed before the failure.
    with trace_span("validate.replay", unit=report.name):
        replay = replay_trace(tracer.records)
    faults = runtime.faults if runtime is not None else replay.runtime_faults
    with trace_span("validate.correlate", unit=report.name):
        result = correlate_warnings(warnings, faults, replay.covered_spans)
    result.status = status
    result.error = error
    result.steps = steps
    result.events = len(tracer.records)
    result.replay_consistent = replay.consistent
    if report.metrics is not None:
        result.fold_into(report.metrics)
    return result
