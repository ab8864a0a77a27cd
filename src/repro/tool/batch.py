"""Fault-isolated batch analysis: many units, one sweep, partial results.

The paper's evaluation runs RegionWiz over six packages totalling dozens
of executables; one crashing executable must not kill the sweep.
:func:`run_batch` analyzes a list of :class:`BatchUnit`\\ s with

* **per-unit isolation** -- any exception inside one unit (frontend
  diagnostics, budget exhaustion, internal crashes, injected faults) is
  captured as a structured :class:`UnitOutcome`, never escaping as a
  traceback;
* **``keep_going``** -- continue past failed units (otherwise the sweep
  stops at the first hard failure and the rest are recorded as skipped);
* **bounded retry** -- units failing with *internal* errors are retried
  up to ``max_retries`` times (input errors and budget exhaustion are
  deterministic, so retrying them is pointless);
* a **partial-results JSON summary** (:meth:`BatchResult.to_json`) and a
  **deterministic exit-code policy** (:meth:`BatchResult.exit_code`).

Exit-code policy: per unit, the single-run contract applies (0 clean /
1 warnings / 2 input error / 3 internal / 4 budget-exhausted-even-
degraded); the batch exit code is the *most severe* unit outcome under
the fixed severity order ``3 > 4 > 2 > 1 > 0``.  Skipped units do not
contribute: their ``exit_code`` is ``None`` (``null`` in JSON), so a
stopped sweep can never be mistaken for a mostly-clean one by consumers
keying on exit codes.

Parallel sweeps (``jobs > 1``)
------------------------------

With ``jobs > 1`` the units are sharded over warm worker processes that
a crash-proofing supervisor forks and drives itself;
:mod:`repro.tool.supervise` holds that code and the full design
(chunked dispatch over one task and one result pipe per worker,
recovery per worker, the hung-unit watchdog, the run journal and
resume, the interrupt drain).  The parallel report is byte-identical to
the serial one modulo timing/pid fields.

Persistent caching
------------------

Pass ``cache=`` (an :class:`~repro.tool.cache.AnalysisCache` or a
directory path) and successful outcomes are stored content-addressed
under :meth:`SweepConfig.key` -- the same key that identifies a unit in
the run journal, computed once per unit per sweep;
a warm re-run of an unchanged corpus skips analysis entirely, marking
each replayed outcome ``cached``.  Hit/miss counters land in the batch
JSON and :meth:`BatchResult.batch_metrics`.  The parallel scheduler
does not decode every entry before dispatch: a stat-only presence probe
(:meth:`AnalysisCache.present`) finds the missing entries, workers are
forked for them, and the parent decodes the present entries while they
run; an entry that does not decode is a late miss, analyzed by the same
workers.  Every unit still gets exactly one lookup.  When a
``keep_going=False`` sweep stops early the scheduler retracts the
lookups past the failure point (:meth:`AnalysisCache.uncount`), so
reported counters match the serial sweep's exactly.

Cache writes follow serial semantics under early stops: with
``keep_going=False``, results that in-flight workers deliver after the
earliest hard failure are relabelled ``skipped`` in the report, and
their outcomes are **not** persisted -- a serial run would never have
analyzed them, so caching them would let a warm re-run resurrect
results the batch report never produced.  Parallel stores are therefore
deferred until the workers are reaped and flushed only for units
*before* the earliest hard failure (all of them when no hard failure
occurred).
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.callgraph import ImplicitCallRegistry
from repro.interfaces import (
    RegionInterface,
    apr_pools_interface,
    rc_regions_interface,
)
from repro.lang.errors import CompileError
from repro.obs.history import WarningDiff, merge_diffs
from repro.obs.hub import bus_event, emit_event, trace_instant, trace_span
from repro.obs.metrics import MetricsRegistry, aggregate_metrics, format_metrics
from repro.obs.validate import LABELS as _VALIDATION_LABELS
from repro.obs.validate import VALIDATION_SCHEMA_VERSION, ValidationResult
from repro.pointer import AnalysisOptions
from repro.tool.cache import AnalysisCache, KeyTemplate
from repro.tool.regionwiz import RegionWizReport, run_regionwiz
from repro.tool.validate import (
    DEFAULT_VALIDATE_STEPS,
    trace_out_path,
    validate_report,
)
from repro.util import faults
from repro.util.budget import ResourceBudget
from repro.util.errors import BudgetExceeded, InputError, WorkerCrash
from repro.util.gcpause import gc_paused

if TYPE_CHECKING:
    from repro.tool.supervise import RunJournal

__all__ = [
    "BatchUnit",
    "UnitOutcome",
    "BatchResult",
    "SweepConfig",
    "run_batch",
    "SEVERITY_ORDER",
]

#: Batch exit code = first of these found among unit exit codes.
SEVERITY_ORDER = (3, 4, 2, 1, 0)

#: Unit exit codes that stop a ``keep_going=False`` sweep.
_HARD_FAILURES = (2, 3, 4)

#: The exit code of each failure status (``skipped`` units have none).
_FAILURE_EXIT_CODES = {
    "input-error": 2,
    "internal-error": 3,
    "crashed": 3,
    "budget-exhausted": 4,
    "timeout": 4,
}

#: Exponential backoff between ``max_retries`` attempts at a unit that
#: failed with an *internal* error: ``min(cap, base * 2**(attempt-1))``
#: seconds.  Retries exist for transient failures (resource spikes, OS
#: hiccups); re-running a crash back-to-back re-creates the exact
#: conditions that just failed.  Kept small: retried units hold a pool
#: worker, and deterministic crashes (the common case) pay the full
#: ladder before giving up.
_RETRY_BACKOFF_BASE = 0.02
_RETRY_BACKOFF_CAP = 0.5


@dataclass(frozen=True)
class BatchUnit:
    """One independently analyzed translation unit.

    ``interface=None`` (the default) auto-detects from the filename --
    ``.rc`` sources use the RC regions interface, everything else APR
    pools -- mirroring the single-run CLI's detection, so ``.rc`` corpus
    units fed through ``--batch`` get the right interface too.
    """

    name: str
    source: str
    filename: str = "<input>"
    interface: Optional[str] = None  # 'apr' | 'rc' | None = detect
    entry: str = "main"

    @property
    def effective_interface(self) -> str:
        if self.interface is not None:
            return self.interface
        return "rc" if self.filename.endswith(".rc") else "apr"

    def region_interface(self) -> RegionInterface:
        if self.effective_interface == "rc":
            return rc_regions_interface()
        return apr_pools_interface()


@dataclass
class UnitOutcome:
    """The structured result of one unit (success or failure).

    Everything the JSON summary needs is carried as plain data
    (``metrics`` is the registry's flat dict, not the registry), so an
    outcome crosses the process-pool boundary and the persistent cache
    without dragging the full :class:`RegionWizReport` along.  Serial
    and parallel sweeps keep the same data: no outcome holds a report.
    """

    unit: str
    #: clean|warnings|input-error|budget-exhausted|internal-error|skipped
    #: plus two supervisor-recorded statuses: ``crashed`` (the worker
    #: *process* died and the unit was quarantined as the poison pill;
    #: exit 3) and ``timeout`` (SIGKILLed past the hard wall-clock
    #: deadline; exit 4, a ``BudgetExceeded`` in ``error_detail``).
    status: str
    exit_code: Optional[int]  # None for skipped units
    attempts: int = 1
    precision: str = "full"
    warnings: int = 0
    high: int = 0
    degraded: bool = False
    degradation_path: Tuple[str, ...] = ()
    #: Flat metrics payload (:meth:`MetricsRegistry.to_dict`) for ok units.
    metrics: Optional[Dict[str, Any]] = None
    #: Dynamic-validation payload
    #: (:meth:`repro.obs.validate.ValidationResult.to_payload`) when the
    #: sweep ran with ``validate=True``; deterministic, so serial and
    #: parallel batch JSON stay byte-identical.
    validation: Optional[Dict[str, Any]] = None
    #: Rendered warning lines (``[HIGH] ...``), for cross-mode equality
    #: checks and cache replay; not part of :meth:`to_dict`.
    warning_lines: List[str] = field(default_factory=list)
    #: Content-stable fingerprints, index-aligned with ``warning_lines``
    #: (see :mod:`repro.obs.fingerprint`); carried through the cache so
    #: replayed outcomes still diff against baselines.
    fingerprints: List[str] = field(default_factory=list)
    #: True when this outcome was replayed from the persistent cache.
    cached: bool = False
    #: True when this outcome was replayed from a run journal by
    #: ``resume=True`` (the unit was completed by an earlier, interrupted
    #: sweep and was not re-analyzed).
    resumed: bool = False
    #: CPU seconds this unit's analysis took in its process (0.0 for
    #: cache replays and skips).  CPU time, not wall time, so the
    #: reading stays meaningful when pool workers contend for cores.
    #: In-memory telemetry only -- deliberately kept out of
    #: :meth:`to_dict` so serial and parallel batch JSON stay
    #: byte-identical.
    elapsed: float = 0.0
    #: The pid of the pool worker that analyzed this unit (None when
    #: analyzed in-process).  In-memory only, like ``elapsed``.
    worker_pid: Optional[int] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    error_detail: Optional[Dict[str, Any]] = None
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in ("clean", "warnings")

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "unit": self.unit,
            "status": self.status,
            "exit_code": self.exit_code,
            "attempts": self.attempts,
        }
        if self.ok:
            payload["precision"] = self.precision
            payload["warnings"] = self.warnings
            payload["high"] = self.high
            if self.degraded:
                payload["degraded"] = True
                payload["degradation_path"] = list(self.degradation_path)
            if self.metrics is not None:
                payload["metrics"] = dict(self.metrics)
            if self.validation is not None:
                payload["validation"] = dict(self.validation)
            if self.fingerprints:
                payload["fingerprints"] = list(self.fingerprints)
            if self.cached:
                payload["cached"] = True
        if self.resumed:
            payload["resumed"] = True
        if self.error is not None:
            payload["error"] = self.error
            payload["error_type"] = self.error_type
        if self.error_detail is not None:
            payload["error_detail"] = self.error_detail
        if self.traceback is not None:
            payload["traceback"] = self.traceback
        return payload

    # -- payload round trip (persistent cache and run journal) -------------

    def to_cache_payload(self) -> Dict[str, Any]:
        """The outcome as plain data, minus replay provenance.

        One schema serves both the persistent cache and the supervisor's
        run journal: ``cached``/``resumed`` are stripped because they
        describe *how this copy was obtained*, which the replaying side
        re-decides.
        """
        payload = self.to_dict()
        payload.pop("cached", None)
        payload.pop("resumed", None)
        payload["warning_lines"] = list(self.warning_lines)
        payload["fingerprints"] = list(self.fingerprints)
        return payload

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, Any],
        cached: bool = False,
        resumed: bool = False,
    ) -> "UnitOutcome":
        """Rebuild an outcome from a cache or journal payload.

        Unlike the cache (which only ever stores ``ok`` outcomes), the
        journal records failures too, so the error fields round-trip.
        """
        return cls(
            unit=payload["unit"],
            status=payload["status"],
            exit_code=payload["exit_code"],
            attempts=int(payload.get("attempts", 1)),
            precision=payload.get("precision", "full"),
            warnings=int(payload.get("warnings", 0)),
            high=int(payload.get("high", 0)),
            degraded=bool(payload.get("degraded", False)),
            degradation_path=tuple(payload.get("degradation_path", ())),
            metrics=payload.get("metrics"),
            validation=payload.get("validation"),
            warning_lines=list(payload.get("warning_lines", ())),
            fingerprints=list(payload.get("fingerprints", ())),
            cached=cached,
            resumed=resumed,
            error=payload.get("error"),
            error_type=payload.get("error_type"),
            error_detail=payload.get("error_detail"),
            traceback=payload.get("traceback"),
        )

    @classmethod
    def from_cache_payload(cls, payload: Dict[str, Any]) -> "UnitOutcome":
        return cls.from_payload(payload, cached=True)


def _skipped(unit_name: str) -> UnitOutcome:
    return UnitOutcome(
        unit=unit_name, status="skipped", exit_code=None, attempts=0
    )


def _failure(
    unit_name: str,
    status: str,
    error: BaseException,
    attempts: int = 1,
    message: Optional[str] = None,
    trace: Optional[str] = None,
) -> UnitOutcome:
    """A failed unit's outcome; ``status`` fixes its exit code.

    Budget exhaustion (hard timeouts included) and worker crashes carry
    their structured error as ``error_detail``.
    """
    return UnitOutcome(
        unit=unit_name,
        status=status,
        exit_code=_FAILURE_EXIT_CODES[status],
        attempts=attempts,
        error=str(error) if message is None else message,
        error_type=type(error).__name__,
        error_detail=(
            error.to_dict()
            if isinstance(error, (BudgetExceeded, WorkerCrash))
            else None
        ),
        traceback=trace,
    )


@dataclass
class BatchResult:
    """Every unit's outcome plus the aggregate exit-code policy."""

    outcomes: List[UnitOutcome] = field(default_factory=list)
    #: Persistent-cache hit/miss counters (None: no cache configured).
    cache_counters: Optional[Dict[str, int]] = None
    #: Per-unit baseline diffs (set by the CLI when ``--baseline`` is
    #: given; see :func:`repro.obs.history.diff_outcomes`).
    per_unit_diff: Optional[Dict[str, WarningDiff]] = None
    #: True when the sweep was cut short by SIGINT/SIGTERM: everything
    #: completed before the signal is present, the rest is ``skipped``,
    #: and the CLI exits 130 regardless of :meth:`exit_code`.
    interrupted: bool = False
    #: Supervision telemetry (respawns / watchdog_kills / quarantined /
    #: timeouts / journal_recovered / resumed ...), present only when the
    #: supervisor actually intervened -- a fault-free parallel sweep's
    #: JSON is byte-identical to the serial sweep's.
    supervision: Optional[Dict[str, int]] = None
    #: Parent-generated run id (see :func:`repro.obs.live.new_run_id`);
    #: emitted in :meth:`to_json` only when set, so existing serial ≡
    #: parallel equality checks stay byte-exact by popping one key.
    run_id: Optional[str] = None

    def outcome(self, unit: str) -> UnitOutcome:
        for outcome in self.outcomes:
            if outcome.unit == unit:
                return outcome
        raise KeyError(unit)

    @property
    def succeeded(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> List[UnitOutcome]:
        return [
            o for o in self.outcomes if not o.ok and o.status != "skipped"
        ]

    @property
    def skipped(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.status == "skipped"]

    def exit_code(self) -> int:
        codes = {
            o.exit_code for o in self.outcomes if o.status != "skipped"
        }
        for code in SEVERITY_ORDER:
            if code in codes:
                return code
        return 0

    def unit_metrics(self) -> List[Dict[str, Any]]:
        """Each successful unit's flat metrics dict (cached units included)."""
        return [o.metrics for o in self.succeeded if o.metrics is not None]

    def fleet_metrics(self) -> Dict[str, Dict[str, float]]:
        """Fleet percentiles over every successful unit's metrics."""
        return aggregate_metrics(self.unit_metrics())

    def batch_metrics(self) -> MetricsRegistry:
        """Batch-level counters: unit counts plus cache hits/misses."""
        registry = MetricsRegistry()
        registry.inc("batch.units", len(self.outcomes))
        registry.inc("batch.succeeded", len(self.succeeded))
        registry.inc("batch.failed", len(self.failed))
        registry.inc("batch.skipped", len(self.skipped))
        registry.inc(
            "batch.cached", sum(1 for o in self.outcomes if o.cached)
        )
        registry.inc(
            "batch.attempts", sum(o.attempts for o in self.outcomes)
        )
        registry.inc(
            "batch.retried",
            sum(1 for o in self.outcomes if o.attempts > 1),
        )
        registry.inc(
            "batch.resumed", sum(1 for o in self.outcomes if o.resumed)
        )
        if self.supervision:
            for key in sorted(self.supervision):
                registry.inc(
                    f"supervision.{key}", self.supervision[key]
                )
        if self.cache_counters is not None:
            # .get(): a zero-unit sweep (or a cache that never probed)
            # may carry partial counters; missing keys read as 0.
            registry.inc("cache.hits", self.cache_counters.get("hits", 0))
            registry.inc("cache.misses", self.cache_counters.get("misses", 0))
        return registry

    def merged_diff(self) -> Optional[WarningDiff]:
        """The fleet-wide baseline diff (None when no baseline was given)."""
        if self.per_unit_diff is None:
            return None
        return merge_diffs(self.per_unit_diff.values())

    def validation_summary(self) -> Optional[Dict[str, Any]]:
        """Fleet-wide dynamic-validation aggregate (None: no unit ran it).

        Sums per-unit label counts and per-ranking-bucket counts over
        every validated unit, then recomputes bucket precision from the
        summed counts (a mean of per-unit precisions would weight a
        one-warning unit the same as a fifty-warning one).
        """
        payloads = [
            o.validation for o in self.outcomes if o.validation is not None
        ]
        if not payloads:
            return None
        statuses: Dict[str, int] = {}
        totals: Dict[str, int] = {label: 0 for label in _VALIDATION_LABELS}
        buckets: Dict[str, Dict[str, Any]] = {}
        replay_mismatches = 0
        for payload in payloads:
            status = payload.get("status", "ok")
            statuses[status] = statuses.get(status, 0) + 1
            for label in _VALIDATION_LABELS:
                totals[label] += int(payload.get(label, 0))
            if payload.get("replay_consistent") is False:
                replay_mismatches += 1
            for bucket, counts in (payload.get("buckets") or {}).items():
                agg = buckets.setdefault(
                    bucket, {label: 0 for label in _VALIDATION_LABELS}
                )
                for label in _VALIDATION_LABELS:
                    agg[label] += int(counts.get(label, 0) or 0)
        for agg in buckets.values():
            observed = agg["confirmed"] + agg["unobserved"]
            agg["precision"] = (
                agg["confirmed"] / observed if observed else None
            )
        summary: Dict[str, Any] = {
            "schema": VALIDATION_SCHEMA_VERSION,
            "units": len(payloads),
            "statuses": dict(sorted(statuses.items())),
            "replay_mismatches": replay_mismatches,
            "buckets": {name: buckets[name] for name in sorted(buckets)},
        }
        summary.update(totals)
        return summary

    def to_json(self, indent: int = 2) -> str:
        """The partial-results summary (stable schema for CI)."""
        payload = {
            "exit_code": self.exit_code(),
            "units": len(self.outcomes),
            "succeeded": len(self.succeeded),
            "failed": len(self.failed),
            "skipped": len(self.skipped),
            "results": [o.to_dict() for o in self.outcomes],
        }
        if self.run_id is not None:
            payload["run_id"] = self.run_id
        if self.interrupted:
            payload["interrupted"] = True
        if self.supervision:
            payload["supervision"] = dict(self.supervision)
        if self.cache_counters is not None:
            payload["cache"] = dict(self.cache_counters)
        fleet = self.fleet_metrics()
        if fleet:
            payload["fleet_metrics"] = fleet
        validation = self.validation_summary()
        if validation is not None:
            payload["validation"] = validation
        if self.per_unit_diff is not None:
            merged = self.merged_diff()
            assert merged is not None
            payload["baseline_diff"] = {
                "counts": merged.counts(),
                "units": {
                    unit: diff.to_dict()
                    for unit, diff in sorted(self.per_unit_diff.items())
                },
            }
        return json.dumps(payload, indent=indent)

    def metrics_summary(self) -> str:
        """Per-unit metric table plus fleet percentiles, for ``--metrics``."""
        lines: List[str] = []
        for o in self.succeeded:
            if o.metrics is None:
                continue
            lines.append(f"metrics for {o.unit}:")
            lines.append(format_metrics(o.metrics))
        fleet = self.fleet_metrics()
        if fleet:
            lines.append(
                f"fleet metrics ({len(self.unit_metrics())} unit(s)):"
            )
            for name, summary in fleet.items():
                rendered = " ".join(
                    f"{key}={value}" for key, value in summary.items()
                )
                lines.append(f"  {name}  {rendered}")
        lines.append("batch metrics:")
        lines.append(format_metrics(self.batch_metrics().to_dict()))
        return "\n".join(lines)

    def summary(self) -> str:
        """Human-readable one-line-per-unit account."""
        lines = [
            f"batch: {len(self.succeeded)}/{len(self.outcomes)} unit(s)"
            f" analyzed, exit {130 if self.interrupted else self.exit_code()}"
        ]
        if self.interrupted:
            lines.append(
                "  sweep interrupted: partial results below, resume with"
                " --journal/--resume"
            )
        for o in self.outcomes:
            if o.ok:
                extra = (
                    f" degraded(precision={o.precision})"
                    if o.precision != "full"
                    else ""
                )
                if o.validation is not None:
                    extra += (
                        f" validated({o.validation.get('confirmed', 0)}"
                        " confirmed)"
                    )
                if o.cached:
                    extra += " (cached)"
                if o.resumed:
                    extra += " (resumed)"
                lines.append(
                    f"  {o.unit}: {o.status} ({o.warnings} warning(s),"
                    f" {o.high} high){extra}"
                )
            elif o.status == "skipped":
                lines.append(f"  {o.unit}: skipped")
            else:
                lines.append(
                    f"  {o.unit}: {o.status} [{o.error_type}] {o.error}"
                )
        merged = self.merged_diff()
        if merged is not None:
            lines.append(merged.format())
        return "\n".join(lines)


@dataclass(frozen=True)
class SweepConfig:
    """The analysis settings of one sweep, fixed for all of its units.

    :func:`run_batch` builds one from its setting keywords, so each
    field here is one of those settings with its default; the serial
    loop, the pool workers and the bisection child all read it, and
    :meth:`key` derives each unit's content key (cache address and
    journal identity) from it.
    """

    options: Optional[AnalysisOptions] = None
    budget: Optional[ResourceBudget] = None
    degrade: bool = True
    refine: bool = False
    registry: Optional[ImplicitCallRegistry] = None
    max_retries: int = 0
    keep_going: bool = False
    validate: bool = False
    validate_steps: int = DEFAULT_VALIDATE_STEPS
    #: Directory for per-unit trace artifacts (``--trace-out``); not key
    #: material, since it only changes where an artifact lands.
    trace_dir: Optional[str] = None
    run_id: Optional[str] = None
    #: Hard per-unit wall-clock ceiling in seconds for parallel sweeps
    #: (``--hard-timeout``); ``None`` derives one from the budget's wall
    #: clock.  Not key material: it decides when a hung worker is
    #: killed, not what a finished unit reports.
    hard_timeout: Optional[float] = None

    def key_template(self) -> KeyTemplate:
        """The settings part of every unit's key, rendered once.

        :func:`run_batch` renders it once per sweep and hands it to
        every :meth:`key` call, so a key only renders its unit's fields.
        """
        return KeyTemplate(
            options=self.options,
            budget=self.budget,
            degrade=self.degrade,
            refine=self.refine,
            validate=(
                {
                    "schema": VALIDATION_SCHEMA_VERSION,
                    "steps": int(self.validate_steps),
                }
                if self.validate
                else None
            ),
            registry=self.registry,
        )

    def key(
        self,
        unit: BatchUnit,
        cache: Optional[AnalysisCache] = None,
        template: Optional[KeyTemplate] = None,
    ) -> str:
        """The unit's content key under this configuration.

        ``template`` is this configuration's :meth:`key_template`
        (rendered here when not given).  Goes through ``cache.key`` when
        a cache is given, so a cache subclass that instruments its key
        (a timing wrapper) sees every computation;
        :meth:`AnalysisCache.key` is static, so resuming a journal needs
        no cache directory.
        """
        keyer = cache.key if cache is not None else AnalysisCache.key
        return keyer(
            source=unit.source,
            filename=unit.filename,
            interface=unit.effective_interface,
            entry=unit.entry,
            template=template or self.key_template(),
        )


#: How one attempt turns a unit into a report under a sweep's settings.
UnitRunner = Callable[[BatchUnit, SweepConfig], RegionWizReport]


def _run_unit(
    unit: BatchUnit,
    config: SweepConfig,
    query: Optional[Tuple[str, int]] = None,
) -> RegionWizReport:
    """The full pipeline at the unit's entry (``query``: ``--query``)."""
    return run_regionwiz(
        unit.source,
        filename=unit.filename,
        interface=unit.region_interface(),
        entry=unit.entry,
        options=config.options,
        registry=config.registry,
        name=unit.name,
        refine=config.refine,
        budget=config.budget,
        degrade=config.degrade,
        query=query,
    )


def _analyze_unit(unit: BatchUnit, config: SweepConfig) -> UnitOutcome:
    with trace_span("batch.unit", unit=unit.name) as span:
        started = time.process_time()
        outcome = _analyze_unit_isolated(unit, config)
        outcome.elapsed = time.process_time() - started
        span.set(
            status=outcome.status,
            exit_code=outcome.exit_code,
            attempts=outcome.attempts,
        )
        return outcome


def _analyze_unit_isolated(
    unit: BatchUnit, config: SweepConfig, run: UnitRunner = _run_unit
) -> UnitOutcome:
    """The unit's outcome, retrying internal errors up to
    ``config.max_retries`` times.  ``run`` makes each attempt's report;
    the single-file CLI passes one that keeps the report it returns."""
    attempts = 0
    while True:
        attempts += 1
        # The collector stays paused until the report is dropped, so no
        # young collection traverses a report about to be freed.
        with gc_paused():
            outcome = _analyze_attempt(unit, config, attempts, run)
        if outcome is not None:
            return outcome
        time.sleep(
            min(
                _RETRY_BACKOFF_CAP,
                _RETRY_BACKOFF_BASE * (2 ** (attempts - 1)),
            )
        )


def _analyze_attempt(
    unit: BatchUnit, config: SweepConfig, attempts: int, run: UnitRunner
) -> Optional[UnitOutcome]:
    """One attempt at ``unit``: its outcome, or None to retry it.  Only
    the outcome's plain data outlives the call, not the report."""
    try:
        faults.fire("batch-unit", unit=unit.name)
        report = run(unit, config)
    except (CompileError, InputError) as error:
        # Deterministic input failure: retrying cannot help.
        return _failure(unit.name, "input-error", error, attempts)
    except BudgetExceeded as error:
        # Deterministic resource exhaustion (even after degradation
        # when enabled): retrying the same budget cannot help.
        return _failure(unit.name, "budget-exhausted", error, attempts)
    except Exception as error:  # internal crash: isolate, maybe retry
        if attempts <= config.max_retries:
            return None
        return _failure(
            unit.name,
            "internal-error",
            error,
            attempts,
            trace=traceback.format_exc(),
        )
    high = sum(1 for w in report.warnings if w.high_ranked)
    validation_payload: Optional[Dict[str, Any]] = None
    if config.validate:
        # Dynamic validation runs inside the unit's fault-isolation
        # scope and *before* metrics are snapshotted, so the
        # validation.* gauges land in the outcome's metrics payload.
        # validate_report already degrades interpreter failures to a
        # status; the extra except keeps a simulator crash from
        # turning a successful analysis into a failed unit.
        trace_path = (
            trace_out_path(config.trace_dir, unit.name)
            if config.trace_dir is not None
            else None
        )
        try:
            validation_payload = validate_report(
                report,
                max_steps=config.validate_steps,
                trace_path=trace_path,
            ).to_payload()
        except Exception as error:
            validation_payload = ValidationResult(
                status="validate-error",
                error=f"{type(error).__name__}: {error}",
            ).to_payload()
    return UnitOutcome(
        unit=unit.name,
        status="warnings" if report.warnings else "clean",
        exit_code=1 if report.warnings else 0,
        attempts=attempts,
        precision=report.precision,
        warnings=len(report.warnings),
        high=high,
        degraded=report.degraded,
        degradation_path=tuple(report.degradation_path),
        metrics=(
            report.metrics.to_dict() if report.metrics is not None else None
        ),
        validation=validation_payload,
        warning_lines=[str(w) for w in report.warnings],
        fingerprints=[w.fingerprint for w in report.warnings],
    )


def _journal_record(
    index: int,
    unit: BatchUnit,
    key: Optional[str] = None,
    outcome: Optional[UnitOutcome] = None,
) -> Dict[str, Any]:
    """A ``unit.start`` heartbeat, or with ``outcome`` a ``unit.done``
    record carrying the outcome's cache payload under its content key."""
    record: Dict[str, Any] = {
        "kind": "unit.start" if outcome is None else "unit.done",
        "index": index,
        "unit": unit.name,
        "pid": os.getpid(),
        "t": time.time(),
    }
    if outcome is not None:
        record["key"] = key
        record["outcome"] = outcome.to_cache_payload()
    return record


# ---------------------------------------------------------------------------
# Persistent cache plumbing
# ---------------------------------------------------------------------------


def _cache_lookup(
    cache: Optional[AnalysisCache], key: Optional[str], unit: BatchUnit
) -> Optional[UnitOutcome]:
    if cache is None or key is None:
        return None
    payload = cache.lookup(key)
    if payload is None:
        emit_event("cache.miss", unit=unit.name, key=key)
        return None
    try:
        outcome = UnitOutcome.from_cache_payload(payload)
    except (KeyError, TypeError, ValueError):
        # A structurally valid JSON file with the wrong shape: treat as
        # a corrupt entry -- fall back to analysis.
        cache.hits -= 1
        cache.misses += 1
        emit_event("cache.miss", unit=unit.name, key=key, corrupt=True)
        return None
    if outcome.unit != unit.name or not outcome.ok:
        cache.hits -= 1
        cache.misses += 1
        emit_event("cache.miss", unit=unit.name, key=key, mismatch=True)
        return None
    trace_instant("batch.cache-hit", unit=unit.name)
    emit_event("cache.hit", unit=unit.name, key=key)
    return outcome


def _cache_store(
    cache: Optional[AnalysisCache], key: Optional[str], outcome: UnitOutcome
) -> None:
    if cache is None or key is None or not outcome.ok or outcome.cached:
        return
    cache.store(key, outcome.to_cache_payload())


def _first_hard_failure(slots: List[Optional[UnitOutcome]]) -> Optional[int]:
    for index, outcome in enumerate(slots):
        if outcome is not None and outcome.exit_code in _HARD_FAILURES:
            return index
    return None


def _run_batch_serial(
    pending: List[BatchUnit],
    config: SweepConfig,
    cache: Optional[AnalysisCache],
    keys: List[Optional[str]],
    journal: Optional[RunJournal],
    resumed_slots: Dict[int, UnitOutcome],
) -> Tuple[List[UnitOutcome], bool]:
    """Analyze the units in order, in this process.

    Returns ``(outcomes, interrupted)``; on SIGINT (or SIGTERM, under
    the caller's ``interruptible()``) everything completed so far is
    kept and the rest is ``skipped``.
    """
    outcomes: List[UnitOutcome] = []
    interrupted = False
    try:
        for index, unit in enumerate(pending):
            outcome = resumed_slots.get(index)
            if outcome is None:
                outcome = _cache_lookup(cache, keys[index], unit)
            if outcome is None:
                if journal is not None:
                    journal.append(_journal_record(index, unit))
                outcome = _analyze_unit(unit, config)
                _cache_store(cache, keys[index], outcome)
                if journal is not None:
                    journal.append(
                        _journal_record(index, unit, keys[index], outcome)
                    )
            outcomes.append(outcome)
            bus_event("unit.done", index=index, outcome=outcome)
            if not config.keep_going and outcome.exit_code in _HARD_FAILURES:
                break
    except KeyboardInterrupt:
        emit_event(
            "batch.interrupted",
            completed=len(outcomes),
            total=len(pending),
        )
        interrupted = True
    outcomes.extend(_skipped(unit.name) for unit in pending[len(outcomes):])
    return outcomes, interrupted


def run_batch(
    units: Iterable[BatchUnit],
    *,
    jobs: int = 1,
    cache: Optional[Union[AnalysisCache, str]] = None,
    chunk_size: Optional[int] = None,
    journal: Optional[str] = None,
    resume: bool = False,
    config: Optional[SweepConfig] = None,
    **settings: Any,
) -> BatchResult:
    """Analyze every unit with per-unit fault isolation.

    ``settings`` are the sweep's analysis settings, the fields of
    :class:`SweepConfig` (``options``, ``budget``, ``degrade``,
    ``keep_going``, ``max_retries``, ``validate``, ``hard_timeout``,
    ...), with that class's defaults; ``config`` passes them as one
    :class:`SweepConfig` instead (the CLI parses its flags into one).

    No exception escapes: each unit yields a :class:`UnitOutcome`.  With
    ``keep_going`` the sweep always covers every unit; without it, the
    first hard failure (exit code 2/3/4) stops the sweep and the
    remaining units are recorded as ``skipped`` (``exit_code=None``).

    ``jobs > 1`` shards the sweep over that many warm worker processes
    under the crash-proofing supervisor (see :mod:`repro.tool.supervise`);
    outcomes come back in submission order either way.  ``chunk_size``
    (>= 1) pins how many units ride in one dispatched chunk (default:
    sized for ~4 chunks per worker).  Dead workers are respawned and
    their units retried/bisected, and ``hard_timeout`` (> 0 seconds; by
    default the budget's wall clock times a grace factor) arms a
    watchdog that SIGKILLs hung units.  ``cache`` (an
    :class:`~repro.tool.cache.AnalysisCache` or a directory path)
    enables the persistent result cache.  ``journal`` names a JSONL run
    journal of completed outcomes; ``resume=True`` replays completed
    units from it instead of re-analyzing them (their outcomes are
    marked ``resumed``).  SIGINT/SIGTERM drain in-flight results into a
    partial :class:`BatchResult` with ``interrupted=True`` (serial
    sweeps included).

    ``validate=True`` (the ``--validate`` flag) runs every successful
    unit's entry point under the traced region interpreter (step budget
    ``validate_steps``), replays the trace, and attaches the dynamic
    validation payload to its outcome; ``trace_dir`` additionally writes
    each unit's trace as ``<unit>.trace.jsonl``.

    Every setting that can change an outcome -- including ``validate``
    and a non-default ``registry`` -- is part of the unit's content key
    (:meth:`SweepConfig.key`), which addresses both the cache and the
    journal, so changing one re-analyzes rather than replaying.
    """
    # Function-local: supervise imports this module's types.
    from repro.tool.supervise import (
        RunJournal,
        _run_batch_parallel,
        interruptible,
    )

    if config is None:
        config = SweepConfig(**settings)
    elif settings:
        raise TypeError("pass the settings or config=, not both")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if config.hard_timeout is not None and config.hard_timeout <= 0:
        raise ValueError(
            f"hard_timeout must be > 0 seconds, got {config.hard_timeout}"
        )
    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")
    if isinstance(cache, str):
        cache = AnalysisCache(cache)
    pending = list(units)
    keys: List[Optional[str]] = [None] * len(pending)
    if cache is not None or journal is not None:
        template = config.key_template()
        keys = [config.key(unit, cache, template) for unit in pending]
    run_journal = (
        RunJournal(journal, resume=resume, run_id=config.run_id)
        if journal is not None
        else None
    )
    try:
        bus_event(
            "batch.start",
            total=len(pending),
            sizes=[len(unit.source) for unit in pending],
            jobs=jobs,
        )
        # Resume replay: adopt completed outcomes from the journal's
        # prior run(s), keyed by (unit name, content key) so a unit whose
        # source or configuration changed re-analyzes.
        resumed_slots: Dict[int, UnitOutcome] = {}
        if run_journal is not None and run_journal.completed:
            for index, unit in enumerate(pending):
                payload = run_journal.completed.get((unit.name, keys[index]))
                if payload is None:
                    continue
                try:
                    outcome = UnitOutcome.from_payload(payload, resumed=True)
                except (KeyError, TypeError, ValueError):
                    continue
                resumed_slots[index] = outcome
                emit_event("journal.replay", unit=unit.name, key=keys[index])

        result = BatchResult()
        supervision: Dict[str, int] = {}
        if jobs > 1:
            try:
                with interruptible():
                    slots, supervision, interrupted = _run_batch_parallel(
                        pending,
                        config,
                        jobs,
                        cache,
                        keys,
                        chunk_size,
                        run_journal,
                        resumed_slots,
                    )
            except KeyboardInterrupt:
                # Interrupted outside the supervised loop (the presence
                # probe, a store): nothing in flight, keep the replays.
                interrupted = True
                slots = [resumed_slots.get(i) for i in range(len(pending))]
            first_failure = (
                None
                if config.keep_going or interrupted
                else _first_hard_failure(slots)
            )
            for index, (unit, outcome) in enumerate(zip(pending, slots)):
                if outcome is None or (
                    first_failure is not None and index > first_failure
                ):
                    result.outcomes.append(_skipped(unit.name))
                    # The scheduler looked this unit up in the cache,
                    # but a serial run stopping at first_failure never
                    # would have: uncount that lookup so the reported
                    # counters match the serial sweep's exactly.
                    if not interrupted and cache is not None:
                        cache.uncount(
                            hit=outcome is not None and outcome.cached
                        )
                else:
                    result.outcomes.append(outcome)
        else:
            with interruptible():
                result.outcomes, interrupted = _run_batch_serial(
                    pending, config, cache, keys, run_journal, resumed_slots
                )
    finally:
        if run_journal is not None:
            run_journal.close()
    result.interrupted = interrupted
    result.run_id = config.run_id
    resumed_count = sum(1 for o in result.outcomes if o.resumed)
    if resumed_count:
        supervision["resumed"] = resumed_count
    if supervision:
        result.supervision = supervision
    if cache is not None:
        result.cache_counters = cache.counters()
    for outcome in result.outcomes:
        emit_event(
            "batch.unit",
            unit=outcome.unit,
            status=outcome.status,
            exit_code=outcome.exit_code,
            attempts=outcome.attempts,
            cached=outcome.cached,
        )
    bus_event("batch.end", interrupted=interrupted)
    return result
