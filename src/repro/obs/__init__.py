"""Observability: tracing, metrics, provenance, and warning lifecycle.

Cross-cutting facilities every later performance PR measures itself
against:

* :mod:`repro.obs.hub` -- the one process-global instrumentation hub:
  the installed :class:`Hub` routes :func:`trace_span`,
  :func:`emit_event` and ``bus_event`` to the run's tracer, event log
  and telemetry bus (each off by default), and its ``phase`` bracket
  times every pipeline phase once for all of them;
* :mod:`repro.obs.trace` -- a hierarchical span tracer threaded through
  the four pipeline phases, Datalog strata/rules, degradation-ladder
  rungs, and batch units; exports Chrome ``trace_event`` JSON
  (``--trace``) and a text profile tree (``--profile``);
* :mod:`repro.obs.metrics` -- a unified metrics registry absorbing
  ``SolverStats`` and ``BudgetMeter`` readings into one namespaced
  store, serialized into JSON reports and aggregated across batch runs;
* :mod:`repro.obs.provenance` -- Datalog derivation traces behind
  ``--explain``, turning each warning into a rule-by-rule chain from
  allocation sites through the ownership closure and the missing
  subregion order to the offending access;
* :mod:`repro.obs.fingerprint` -- content-stable warning identities,
  invariant across engine choice, sharding, ranking, and ordering;
* :mod:`repro.obs.history` -- the JSONL baseline store and the
  new/persisting/fixed differ behind ``--baseline``/``--save-baseline``
  and the ``--fail-on-new`` CI gate;
* :mod:`repro.obs.events` -- the structured JSONL event log
  (``--events``): phase boundaries, ladder degradations, budget trips,
  cache probes, batch outcomes, and warning emissions as one
  machine-parseable stream shared across worker processes;
* :mod:`repro.obs.html` -- the single-file ``--html-report`` fusing
  warnings + diff + metrics + profile + batch grid with no network
  fetches.
"""

from repro.obs.events import EventLog
from repro.obs.fingerprint import pair_fingerprint, warning_fingerprint
from repro.obs.history import (
    BaselineEntry,
    WarningDiff,
    diff_entries,
    load_baseline,
    save_baseline,
)
from repro.obs.html import render_html_report, write_html_report
from repro.obs.hub import (
    Hub,
    current_hub,
    emit_event,
    installed,
    trace_instant,
    trace_span,
)
from repro.obs.metrics import MetricsRegistry, aggregate_metrics, format_metrics
from repro.obs.replay import ReplayResult, replay_trace
from repro.obs.validate import (
    VALIDATION_SCHEMA_VERSION,
    ValidationResult,
    correlate_warnings,
    label_warning,
)
from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "BaselineEntry",
    "EventLog",
    "Hub",
    "MetricsRegistry",
    "ReplayResult",
    "SpanRecord",
    "Tracer",
    "VALIDATION_SCHEMA_VERSION",
    "ValidationResult",
    "WarningDiff",
    "aggregate_metrics",
    "correlate_warnings",
    "current_hub",
    "diff_entries",
    "emit_event",
    "format_metrics",
    "installed",
    "label_warning",
    "load_baseline",
    "pair_fingerprint",
    "render_html_report",
    "replay_trace",
    "save_baseline",
    "trace_instant",
    "trace_span",
    "warning_fingerprint",
    "write_html_report",
]
