"""Command-line interface: ``regionwiz file.c [options]``.

Every run is a sweep of units through the batch driver's per-unit
function (:mod:`repro.tool.batch`), under one
:class:`~repro.tool.batch.SweepConfig` parsed from the flags.  A
single-file run (the default) is a one-unit sweep: its files are
concatenated into one translation unit, each chunk prefixed with a
``#line 1 "<path>"`` marker so diagnostics and warning locations report
the original file and line.  ``--batch`` makes each file its own unit.

Exit codes, one table for both modes (``--batch`` exits with the most
severe unit outcome under 3 > 4 > 2 > 1 > 0):

====  =========================================================
code  meaning
====  =========================================================
0     analysis completed, no warnings reported
1     analysis completed with warnings reported
2     input error (invalid arguments, unreadable file, parse/type
      diagnostics)
3     internal error (a bug in RegionWiz -- traceback printed), or
      ``crashed``: a batch worker *process* died repeatedly on the unit
4     resource budget exhausted, even after degradation if
      ``--degrade`` was given, or ``timeout``: the unit blew the
      ``--hard-timeout`` wall-clock deadline
130   batch sweep interrupted (SIGINT/SIGTERM): partial results
      were still written; resume with ``--journal``/``--resume``
====  =========================================================

With ``--fail-on-new`` (requires ``--baseline``), codes 0/1 are instead
decided by the baseline diff: exit 1 only when *new* warnings appeared,
so a CI gate stays green across known findings.  Hard failures (2/3/4)
pass through unchanged.

Flags only a single-file run reads: ``--open``, ``--query``,
``--explain`` and ``--stats`` (each exits 2 under ``--batch``), and
``--all``/``-v``, which shape its listing: without ``--all`` it reports,
validates, baselines and exits on the high-ranked warnings only, while a
batch summary counts every warning.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import __version__
from repro.obs.events import EventLog
from repro.obs.export import MetricsServer, write_metrics_file
from repro.obs.history import (
    WarningDiff,
    diff_outcomes,
    entries_from_outcomes,
    load_baseline,
    save_baseline,
)
from repro.obs.html import write_html_report
from repro.obs.hub import Hub, current_hub, installed
from repro.obs.live import LiveView, TelemetryBus, new_run_id
from repro.obs.metrics import format_metrics
from repro.obs.registry import RunRecord, RunRegistry
from repro.obs.trace import Tracer
from repro.obs.validate import ValidationResult
from repro.pointer import AnalysisOptions
from repro.tool.batch import (
    BatchResult,
    BatchUnit,
    SweepConfig,
    UnitRunner,
    _analyze_unit_isolated,
    _run_unit,
    run_batch,
)
from repro.tool.regionwiz import RegionWizReport
from repro.tool.report import (
    format_report,
    format_solver_stats,
    report_to_json,
)
from repro.util.budget import ResourceBudget
from repro.util.errors import InputError

#: Provenance chains embedded in the HTML report are capped: --explain
#: recomputes the full Datalog derivation per warning, so unbounded
#: expansion would dominate large reports.
_HTML_EXPLAIN_CAP = 10

#: The report's own metrics that ``--stats`` prints: effect sizes, the
#: region/object/instruction pair counts, and the consistency phase time.
_CONSISTENCY_STATS = ("effects.", "warnings.", "pipeline.correlation_ms")

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionwiz",
        description=(
            "Find region lifetime inconsistencies in C programs using"
            " region-based memory management (APR pools or RC regions)."
        ),
    )
    parser.add_argument("files", nargs="+", help="C source files (concatenated)")
    parser.add_argument(
        "--interface",
        choices=["apr", "rc"],
        default=None,
        help=(
            "region interface the program uses (default: rc when every"
            " input file ends in .rc, apr otherwise)"
        ),
    )
    parser.add_argument(
        "--entry", default="main", help="program entry function (default: main)"
    )
    parser.add_argument(
        "--open",
        action="store_true",
        dest="open_program",
        help=(
            "library mode: synthesize a harness calling every exported"
            " function with unconstrained arguments (no main required)"
        ),
    )
    parser.add_argument(
        "--context-insensitive",
        action="store_true",
        help="disable context cloning (Andersen baseline)",
    )
    parser.add_argument(
        "--no-heap-cloning",
        action="store_true",
        help="disable per-context heap specialization",
    )
    parser.add_argument(
        "--field-insensitive",
        action="store_true",
        help="collapse all field offsets to zero",
    )
    parser.add_argument(
        "--refine",
        action="store_true",
        help=(
            "apply the Section 4.3 def-use refinement (suppresses"
            " same-region-variable false positives; IPSSA-style, unsound)"
        ),
    )
    parser.add_argument(
        "--sound-offsets",
        action="store_true",
        help="track unknown/dynamic offsets instead of ignoring them",
    )
    parser.add_argument(
        "--max-contexts",
        type=int,
        default=1 << 16,
        help="clamp per-function context counts (default: 65536)",
    )
    budgets = parser.add_argument_group(
        "resource budgets",
        "limits enforced at analysis checkpoints; exceeding one aborts"
        " with exit code 4 (or degrades precision under --degrade)",
    )
    budgets.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole analysis",
    )
    budgets.add_argument(
        "--max-derived",
        type=int,
        default=None,
        metavar="N",
        help="cap on derived points-to/Datalog tuples",
    )
    budgets.add_argument(
        "--max-objects",
        type=int,
        default=None,
        metavar="N",
        help="cap on abstract objects + regions",
    )
    budgets.add_argument(
        "--max-total-contexts",
        type=int,
        default=None,
        metavar="N",
        help=(
            "hard cap on total numbered contexts (unlike --max-contexts,"
            " which silently clamps per function)"
        ),
    )
    budgets.add_argument(
        "--degrade",
        action="store_true",
        help=(
            "on budget exhaustion, retry at lower precision"
            " (heap cloning off, then context-insensitive, then"
            " field-insensitive) instead of failing"
        ),
    )
    batch = parser.add_argument_group("batch mode")
    batch.add_argument(
        "--batch",
        action="store_true",
        help=(
            "analyze each file as an independent unit with fault"
            " isolation, printing a per-unit summary"
        ),
    )
    batch.add_argument(
        "--keep-going",
        action="store_true",
        help="in batch mode, continue past failed units",
    )
    batch.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="in batch mode, retry units failing with internal errors",
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "in batch mode, analyze units on N worker processes"
            " (outcomes stay in submission order; default: 1, serial)"
        ),
    )
    batch.add_argument(
        "--chunk",
        type=int,
        default=None,
        metavar="N",
        dest="chunk_size",
        help=(
            "in parallel batch mode, dispatch N >= 1 units per worker"
            " task (default: sized for ~4 chunks per worker)"
        ),
    )
    batch.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        dest="cache_dir",
        help=(
            "in batch mode, reuse/store per-unit results in a persistent"
            " content-addressed cache under DIR (keyed by source text,"
            " interface, entry, options, and tool version)"
        ),
    )
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even if --cache was given",
    )
    batch.add_argument(
        "--hard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "in parallel batch mode, SIGKILL any unit still running"
            " after SECONDS (> 0) of wall clock and record a timeout"
            " outcome (exit 4); default: budget wall clock x 4, or no"
            " hard limit without a wall-clock budget"
        ),
    )
    batch.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help=(
            "in batch mode, append completed unit outcomes to a JSONL"
            " run journal at FILE (enables --resume after a crashed or"
            " interrupted sweep)"
        ),
    )
    batch.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay outcomes already completed in the --journal file"
            " (matched by unit content + analysis configuration) and"
            " re-analyze only the rest"
        ),
    )
    validation = parser.add_argument_group(
        "dynamic validation",
        "execute the program under the region interpreter with event"
        " tracing, replay the trace, and label every warning"
        " confirmed/unobserved/uncovered against observed faults",
    )
    validation.add_argument(
        "--validate",
        action="store_true",
        help=(
            "run the entry point under the traced interpreter and"
            " annotate each warning with a dynamic verdict (in batch"
            " mode, per unit with fault isolation)"
        ),
    )
    validation.add_argument(
        "--validate-steps",
        type=int,
        default=200_000,
        metavar="N",
        dest="validate_steps",
        help=(
            "interpreter step budget for --validate runs (default:"
            " 200000; exceeding it degrades labels, never the analysis)"
        ),
    )
    validation.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        dest="trace_out",
        help=(
            "with --validate, write each unit's region event trace as"
            " <unit>.trace.jsonl under DIR (versioned JSONL, replayable"
            " with repro.obs.replay)"
        ),
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="show low-ranked warnings too (default: high-ranked only)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="show store locations"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="emit a machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        dest="stats",
        help=(
            "print consistency statistics to stderr (effect sizes, region"
            " pairs verified, object and instruction pairs emitted, phase"
            " time); with --query also the Datalog solve's statistics."
            " The JSON 'solver' block and the datalog.* metrics appear"
            " only when the Datalog engine answered (--query)"
        ),
    )
    obs = parser.add_argument_group(
        "observability",
        "tracing, metrics, and warning provenance; diagnostic output"
        " goes to stderr so stdout stays the warning report",
    )
    obs.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record a span trace of the whole run and write Chrome"
            " trace_event JSON to PATH (load in chrome://tracing or"
            " Perfetto)"
        ),
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="print the span tree as an indented text profile on stderr",
    )
    obs.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "print the unified metrics registry on stderr (per-unit"
            " table plus fleet percentiles under --batch)"
        ),
    )
    obs.add_argument(
        "--explain",
        type=int,
        default=None,
        metavar="N",
        help=(
            "print the Datalog derivation chain behind warning N"
            " (1-based, report order) instead of the warning listing"
        ),
    )
    obs.add_argument(
        "--query",
        metavar="FILE:LINE",
        default=None,
        help=(
            "answer one question instead of the full analysis: restrict"
            " the consistency check to the pointer accesses at FILE:LINE"
            " via the demand-transformed (magic-sets) Datalog program"
            " and report only warnings those accesses participate in"
        ),
    )
    obs.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help=(
            "append a structured JSONL event log to PATH: phase"
            " boundaries, ladder degradations, budget trips, cache"
            " probes, batch unit outcomes, and warning emissions"
            " (workers share the parent's file and timeline)"
        ),
    )
    obs.add_argument(
        "--html-report",
        metavar="PATH",
        default=None,
        dest="html_report",
        help=(
            "write a single self-contained HTML report (inline CSS/JS,"
            " no network fetches): warning table with fingerprints and"
            " diff status, metrics, profile tree, batch unit grid"
        ),
    )
    history = parser.add_argument_group(
        "warning history",
        "content-stable fingerprints make warnings diffable across"
        " runs; baselines are JSONL files of (unit, fingerprint) records",
    )
    history.add_argument(
        "--save-baseline",
        metavar="PATH",
        default=None,
        dest="save_baseline",
        help="write this run's warnings as a baseline JSONL file",
    )
    history.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            "diff this run against a saved baseline, classifying each"
            " warning as new/persisting/fixed in the report"
        ),
    )
    history.add_argument(
        "--fail-on-new",
        action="store_true",
        dest="fail_on_new",
        help=(
            "CI gate: exit 1 only when warnings NOT in --baseline"
            " appear (known warnings exit 0; hard failures unchanged)"
        ),
    )
    live = parser.add_argument_group(
        "live telemetry and run history",
        "operational observability: a live fleet status line, an"
        " OpenMetrics surface, and a persistent run registry; inspect"
        " past runs with the `regionwiz history` subcommand",
    )
    live.add_argument(
        "--live",
        action="store_true",
        help=(
            "render a rate-limited fleet status line on stderr during"
            " --batch: units done, throughput, cache hit rate, ETA"
            " (bytes-weighted), respawn/watchdog counts; plain periodic"
            " lines when stderr is not a TTY"
        ),
    )
    live.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        dest="metrics_out",
        help=(
            "write a final OpenMetrics text snapshot of the run"
            " (fleet progress plus analysis metrics) to FILE"
        ),
    )
    live.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        dest="metrics_port",
        help=(
            "serve /metrics (OpenMetrics) and /healthz on"
            " 127.0.0.1:PORT for the duration of the run; PORT 0 binds"
            " an ephemeral port, announced on stderr before analysis"
            " starts"
        ),
    )
    live.add_argument(
        "--registry",
        metavar="FILE",
        default=None,
        help=(
            "append this run (outcome counts, metrics snapshot,"
            " wall/CPU time) to a persistent sqlite run registry;"
            " query it later with `regionwiz history --registry FILE`"
        ),
    )
    live.add_argument(
        "--mem-profile",
        action="store_true",
        dest="mem_profile",
        help=(
            "record per-phase peak heap usage via tracemalloc as"
            " pipeline.<phase>.peak_mem_bytes gauges (slows analysis;"
            " off by default)"
        ),
    )
    return parser


def _units(args: argparse.Namespace) -> List[BatchUnit]:
    """The run's units: one per file under ``--batch``; otherwise one
    unit of all the files, each chunk prefixed with a ``#line`` marker so
    locations stay per-file, and rc only when every file ends in ``.rc``.
    Raises :class:`InputError` on the first file that cannot be read."""
    chunks = []
    for path in args.files:
        try:
            with open(path) as handle:
                chunks.append(handle.read())
        except OSError as error:
            raise InputError(f"cannot read {path}: {error}") from error
    if args.batch:
        # interface=None lets each unit detect rc from its own filename.
        return [
            BatchUnit(path, chunk, path, args.interface, args.entry)
            for path, chunk in zip(args.files, chunks)
        ]
    parts = []
    for path, chunk in zip(args.files, chunks):
        if not chunk.endswith("\n"):
            chunk += "\n"
        parts.append(f'#line 1 "{path}"\n{chunk}')
    rc = all(path.endswith(".rc") for path in args.files)
    interface = args.interface or ("rc" if rc else "apr")
    name = args.files[0]
    return [BatchUnit(name, "".join(parts), name, interface, args.entry)]


#: Argument checks for both modes, in order: the first that holds exits
#: 2 with ``regionwiz: <message>`` before any unit runs.
_ARGUMENT_CHECKS = (
    (lambda a: a.fail_on_new and not a.baseline,
     "--fail-on-new requires --baseline"),
    (lambda a: a.trace_out and not a.validate,
     "--trace-out requires --validate"),
    (lambda a: a.query is not None and a.batch,
     "--query cannot be combined with --batch"),
    (lambda a: a.query is not None and a.open_program,
     "--query cannot be combined with --open"),
    (lambda a: a.stats and a.batch,
     "--stats applies to single-file runs; use --metrics with --batch"),
    (lambda a: a.open_program and a.batch,
     "--open cannot be combined with --batch"),
    (lambda a: a.explain is not None and a.batch,
     "--explain cannot be combined with --batch"),
    (lambda a: a.jobs < 1, "--jobs must be >= 1"),
    (lambda a: a.chunk_size is not None and a.chunk_size < 1,
     "--chunk must be >= 1"),
    (lambda a: a.hard_timeout is not None and a.hard_timeout <= 0,
     "--hard-timeout must be > 0"),
    (lambda a: a.resume and not a.journal,
     "--resume requires --journal FILE"),
)


def _config_from_args(args: argparse.Namespace) -> SweepConfig:
    """The run's analysis settings, for a single-file run and a sweep."""
    limits = (
        args.timeout,
        args.max_derived,
        args.max_objects,
        args.max_total_contexts,
    )
    budget = None
    if any(limit is not None for limit in limits):
        budget = ResourceBudget(
            wall_clock_seconds=args.timeout,
            max_derived_tuples=args.max_derived,
            max_contexts=args.max_total_contexts,
            max_objects=args.max_objects,
        )
    return SweepConfig(
        options=AnalysisOptions(
            context_sensitive=not args.context_insensitive,
            heap_cloning=not args.no_heap_cloning,
            field_sensitive=not args.field_insensitive,
            track_unknown_offsets=args.sound_offsets,
            max_contexts=args.max_contexts,
        ),
        budget=budget,
        degrade=args.degrade,
        refine=args.refine,
        max_retries=args.max_retries,
        keep_going=args.keep_going,
        validate=args.validate,
        validate_steps=args.validate_steps,
        trace_dir=args.trace_out,
        run_id=args.run_id,
        hard_timeout=args.hard_timeout,
    )


def _profile_tree() -> Optional[str]:
    """The active tracer's span tree, for the HTML report's profile pane."""
    tracer = current_hub().tracer
    if tracer is None or not tracer.roots:
        return None
    return tracer.format_tree()


def _html_explanations(report: RegionWizReport) -> Optional[Dict[str, str]]:
    """fingerprint -> derivation chain for the first few warnings."""
    from repro.obs.provenance import explain_warning

    explanations: Dict[str, str] = {}
    for number, warning in enumerate(report.warnings[:_HTML_EXPLAIN_CAP], 1):
        try:
            explanations[warning.fingerprint] = explain_warning(
                report, number
            ).format()
        except Exception:  # provenance is best-effort decoration here
            continue
    return explanations or None


def _corpus_label(paths: List[str]) -> str:
    """Stable short label identifying the input set for the registry."""
    names = sorted({os.path.basename(path) for path in paths})
    if len(names) > 8:
        names = names[:8] + [f"+{len(names) - 8}"]
    return ",".join(names)


def _run_metrics(
    args: argparse.Namespace, result: BatchResult
) -> Dict[str, Any]:
    """The run's metrics for the registry row and ``--metrics-out``: the
    unit's own for a single-file run, batch counters plus fleet means
    for a sweep."""
    if not args.batch:
        return dict(result.outcomes[0].metrics or {})
    metrics: Dict[str, Any] = dict(result.batch_metrics().to_dict())
    for name, stats in sorted(result.fleet_metrics().items()):
        mean = stats.get("mean")
        if isinstance(mean, (int, float)):
            metrics[f"{name}.mean"] = mean
    return metrics


def _finish_telemetry(
    args: argparse.Namespace,
    code: int,
    result: Optional[BatchResult],
    bus: Optional[TelemetryBus],
    registry_store: Optional[RunRegistry],
    wall_start: float,
    cpu_start: float,
) -> int:
    """Record the run in the registry and write the final metrics file.

    Runs after ``_run`` with the exit code in hand so the registry row
    captures the real outcome (``result`` is None when the arguments or
    inputs were rejected before any unit ran); a failed write only
    overrides soft exit codes (0/1), never a harder failure.
    """
    metrics: Dict[str, Any] = {}
    if bus is not None:
        metrics.update(bus.snapshot())
    if result is not None:
        metrics.update(_run_metrics(args, result))
    ran = result or BatchResult()
    if registry_store is not None:
        record = RunRecord(
            run_id=args.run_id,
            timestamp=time.time(),
            version=__version__,
            mode="batch" if args.batch else "single",
            corpus=_corpus_label(args.files),
            units=len(ran.outcomes),
            succeeded=len(ran.succeeded),
            failed=len(ran.failed),
            skipped=len(ran.skipped),
            warnings=sum(o.warnings for o in ran.succeeded),
            high=sum(o.high for o in ran.succeeded),
            exit_code=code,
            wall_s=round(time.time() - wall_start, 6),
            cpu_s=round(sum(os.times()[:4]) - cpu_start, 6),
            metrics=metrics,
        )
        try:
            registry_store.record(record)
        except InputError as error:
            code = _fail(error, code)
    if args.metrics_out:
        try:
            write_metrics_file(args.metrics_out, metrics)
        except OSError as error:
            code = _fail(f"cannot write {args.metrics_out}: {error}", code)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = list(sys.argv[1:])
    if argv and argv[0] == "history":
        # Subcommand dispatch happens before argparse: the main parser
        # has a required FILE positional that `history` does not take.
        from repro.obs.registry import run_history_command

        return run_history_command(list(argv[1:]))
    args = build_parser().parse_args(argv)
    args.run_id = new_run_id()
    wall_start = time.time()
    cpu_start = sum(os.times()[:4])
    registry_store: Optional[RunRegistry] = None
    if args.registry:
        try:
            registry_store = RunRegistry(args.registry)
        except InputError as error:
            print(f"regionwiz: {error}", file=sys.stderr)
            return 2
    bus: Optional[TelemetryBus] = None
    view: Optional[LiveView] = None
    server: Optional[MetricsServer] = None
    tracer: Optional[Tracer] = None
    event_log: Optional[EventLog] = None
    try:
        if args.live or args.metrics_port is not None or args.metrics_out:
            bus = TelemetryBus(run_id=args.run_id, jobs=args.jobs)
            if args.live:
                if args.batch:
                    view = LiveView(bus)
                    bus.attach(view)
                else:
                    print(
                        "regionwiz: --live shows fleet progress and does"
                        " nothing outside --batch",
                        file=sys.stderr,
                    )
        if args.metrics_port is not None:
            assert bus is not None
            try:
                server = MetricsServer(
                    args.metrics_port, bus.snapshot, run_id=args.run_id
                )
                server.start()
            except InputError as error:
                print(f"regionwiz: {error}", file=sys.stderr)
                return 2
            # Announced before analysis starts so a scraper can attach
            # immediately (PORT 0 binds an ephemeral port).
            print(
                f"regionwiz: serving http://127.0.0.1:{server.port}"
                "/metrics (and /healthz)",
                file=sys.stderr,
            )
        # --html-report embeds the profile tree, so it wants a tracer too.
        if args.trace or args.profile or args.html_report:
            tracer = Tracer(run_id=args.run_id)
        if args.events:
            try:
                event_log = EventLog(args.events, run_id=args.run_id)
            except OSError as error:
                print(
                    f"regionwiz: cannot write event log"
                    f" {args.events}: {error}",
                    file=sys.stderr,
                )
                return 2
        hub = Hub(
            run_id=args.run_id,
            tracer=tracer,
            events=event_log,
            bus=bus,
            mem_profile=args.mem_profile,
        )
        with installed(hub):
            code, result = _run(args)
            return _finish_telemetry(
                args, code, result, bus, registry_store, wall_start, cpu_start
            )
    finally:
        if event_log is not None:
            event_log.close()
        if tracer is not None:
            if args.trace:
                tracer.write_chrome_trace(args.trace)
            if args.profile:
                print(tracer.format_tree(), file=sys.stderr)
        if view is not None:
            view.close()
        if server is not None:
            server.close()
        if registry_store is not None:
            registry_store.close()


def _parse_query(spec: str) -> "tuple[str, int]":
    """Split a ``--query FILE:LINE`` spec (raises :class:`InputError`)."""
    path, sep, line_text = spec.rpartition(":")
    if not sep or not path:
        raise InputError(
            f"--query expects FILE:LINE, got {spec!r}"
        )
    try:
        line = int(line_text)
    except ValueError:
        raise InputError(
            f"--query expects an integer line number, got {line_text!r}"
        ) from None
    if line < 1:
        raise InputError(f"--query line must be >= 1, got {line}")
    return path, line


def _single_run(
    args: argparse.Namespace, reports: List[RegionWizReport]
) -> UnitRunner:
    """How a single-file run makes its unit's report.

    ``--open`` analyzes the unit through a synthesized harness and
    ``--query`` asks the one question; the report keeps its high-ranked
    warnings unless ``--all`` (the outcome, its exit code and its
    validation then follow what the run reports) and lands in
    ``reports`` for the single-file views.
    """

    def run(unit: BatchUnit, config: SweepConfig) -> RegionWizReport:
        if args.open_program:
            from repro.tool.open_analysis import analyze_open_program

            report = analyze_open_program(
                unit.source,
                unit.region_interface(),
                filename=unit.filename,
                options=config.options,
                name=unit.name,
                budget=config.budget,
                degrade=config.degrade,
            )
        else:
            query = _parse_query(args.query) if args.query else None
            report = _run_unit(unit, config, query=query)
        if not args.all:
            report.warnings = report.high_warnings
        reports.append(report)
        return report

    return run


def _fail(message: Any, code: int = 0) -> int:
    """Print ``regionwiz: <message>``; exit 2, or keep ``code`` when the
    run already failed harder (an output that could not be written)."""
    print(f"regionwiz: {message}", file=sys.stderr)
    return 2 if code in (0, 1) else code


def _run(args: argparse.Namespace) -> Tuple[int, Optional[BatchResult]]:
    """Run the units and the shared tail: ``(exit code, result)``."""
    for invalid, message in _ARGUMENT_CHECKS:
        if invalid(args):
            return _fail(message), None
    config = _config_from_args(args)
    reports: List[RegionWizReport] = []
    try:
        units = _units(args)
        if args.batch:
            result = run_batch(
                units,
                jobs=args.jobs,
                cache=None if args.no_cache else args.cache_dir,
                chunk_size=args.chunk_size,
                journal=args.journal,
                resume=args.resume,
                config=config,
            )
        else:
            outcome = _analyze_unit_isolated(
                units[0], config, _single_run(args, reports)
            )
            result = BatchResult([outcome], run_id=config.run_id)
    except (InputError, OSError) as error:  # unreadable input, journal, cache
        return _fail(error), None
    if not args.batch and not outcome.ok:
        if outcome.traceback is not None:
            sys.stderr.write(outcome.traceback)
        print(
            "regionwiz: internal error"
            if outcome.status == "internal-error"
            else f"regionwiz: {outcome.error}",
            file=sys.stderr,
        )
        return result.exit_code(), result
    return _conclude(args, result, reports[0] if reports else None), result


def _conclude(
    args: argparse.Namespace,
    result: BatchResult,
    report: Optional[RegionWizReport],
) -> int:
    """The steps after the units ran, once for both modes: the baseline
    diff and save, ``--metrics``, the report, ``--html-report`` and the
    exit code.  ``report`` is the single-file run's (None for a sweep)."""
    validation = None
    if report is not None and result.outcomes[0].validation is not None:
        validation = ValidationResult.from_payload(
            result.outcomes[0].validation
        )
        if validation.status != "ok":
            print(
                f"regionwiz: validation {validation.status}:"
                f" {validation.error}",
                file=sys.stderr,
            )
    diff: Optional[WarningDiff] = None
    try:
        if args.baseline:
            result.per_unit_diff = diff_outcomes(
                result.outcomes, load_baseline(args.baseline)
            )
            diff = result.merged_diff()
        if args.save_baseline:
            save_baseline(
                args.save_baseline, entries_from_outcomes(result.outcomes)
            )
    except InputError as error:
        return _fail(error)
    if args.stats and report is not None and report.metrics is not None:
        print("consistency statistics:", file=sys.stderr)
        consistency = {
            name: value
            for name, value in report.metrics.to_dict().items()
            if name.startswith(_CONSISTENCY_STATS)
        }
        print(format_metrics(consistency), file=sys.stderr)
        if report.times.solver is not None:
            print(format_solver_stats(report.times.solver), file=sys.stderr)
    if args.metrics:
        if args.batch:
            print(result.metrics_summary(), file=sys.stderr)
        elif result.outcomes[0].metrics is not None:
            print("metrics:", file=sys.stderr)
            print(format_metrics(result.outcomes[0].metrics), file=sys.stderr)
    if report is None:
        print(result.to_json() if args.json_output else result.summary())
    elif args.explain is not None:
        code = _print_explanation(report, args.explain)
        if code:
            return code
    elif args.json_output:
        print(
            report_to_json(
                report, diff=diff, validation=validation, run_id=args.run_id
            )
        )
    else:
        print(
            format_report(
                report, verbose=args.verbose, diff=diff, validation=validation
            )
        )
    if result.interrupted:
        # Partial results were printed above; the conventional
        # 128+SIGINT code tells callers the sweep did not finish.
        code = 130
    elif args.fail_on_new and result.exit_code() in (0, 1):
        assert diff is not None  # --fail-on-new requires --baseline
        code = 1 if diff.has_new else 0
    else:
        code = result.exit_code()
    if args.html_report:
        if report is None:
            page: Dict[str, Any] = dict(
                title="RegionWiz batch report",
                batch=result,
                per_unit_diff=result.per_unit_diff,
            )
        else:
            page = dict(
                title=f"RegionWiz report: {report.name}",
                report=report,
                explanations=_html_explanations(report),
                validation=result.outcomes[0].validation,
            )
        try:
            write_html_report(
                args.html_report, diff=diff, profile=_profile_tree(), **page
            )
        except OSError as error:
            code = _fail(f"cannot write {args.html_report}: {error}", code)
    return code


def _print_explanation(report: RegionWizReport, number: int) -> int:
    """Print warning ``number``'s derivation chain (exit 0), or exit 2
    when there is no such warning."""
    from repro.obs.provenance import explain_warning

    total = len(report.warnings)
    if number < 1 or number > total:
        valid = f"valid range: 1..{total}" if total else "no warnings"
        return _fail(f"--explain {number} is out of range ({valid})")
    try:
        explanation = explain_warning(report, number)
    except (IndexError, ValueError) as error:
        return _fail(error)
    print(explanation.format())
    return 0


if __name__ == "__main__":
    sys.exit(main())
