"""The parallel batch executor: a warm process pool under a supervisor.

:func:`repro.tool.batch.run_batch` with ``jobs > 1`` hands its units to
:func:`_run_batch_parallel`, which fans them out to a
:class:`~concurrent.futures.ProcessPoolExecutor` run by a
:class:`BatchSupervisor`.

**Sharding.**  Units are independent by construction -- that is what
per-unit fault isolation guarantees -- so the dispatch is built to make
parallelism pay on paper-scale corpora:

* the per-batch invariant state (the sweep's
  :class:`~repro.tool.batch.SweepConfig`, the fault-spec snapshot and
  the parent hub's wiring) crosses the pool boundary **once per
  worker** through the pool ``initializer``; a task pickles only
  ``(index, unit, key)`` triples;
* units are dispatched in **contiguous chunks** so small units amortize
  the submit/result round trip, and the same **warm workers** serve
  every chunk of the sweep;
* outcomes are reassembled in **submission order** regardless of
  completion order;
* armed fault-injection specs are re-installed per dispatched chunk
  from the worker-local snapshot, so injection scopes correctly inside
  workers;
* worker trace spans are shipped back and adopted into the parent's
  Chrome trace (one lane per worker ``pid``);
* ``keep_going=False`` cancels not-yet-started chunks once a hard
  failure lands (a worker also abandons the rest of its own chunk),
  and the caller then **normalizes to serial semantics**: every unit
  after the earliest hard failure in submission order is reported
  ``skipped``.  Because units are deterministic and independent, the
  parallel report is byte-identical to the serial one modulo
  timing/pid fields.

In-process isolation cannot catch three failure classes: a **worker
process dies** (segfault, the OOM killer, an injected ``kill`` fault),
which breaks the whole pool; a **unit hangs between budget
checkpoints** (cooperative :class:`~repro.util.budget.BudgetMeter`
polling only runs at fixpoint round boundaries); and the **parent
itself is killed** mid-sweep.  The supervisor is the external harness
that competition-grade analyzers (2LS, PredatorHP) rely on, built into
the executor:

**Worker-loss recovery.**  Each pool generation runs under a
:class:`RunJournal` -- an O_APPEND JSONL file that workers heartbeat
``unit.start`` records into and append completed ``unit.done`` outcome
payloads to (single short writes, so parent and worker lines interleave
at line granularity exactly like the event log).  When the pool breaks,
the journal tells the parent which units *completed but never shipped*
(adopted straight from their journaled payloads, no re-analysis), which
were *in flight* (retried on a fresh pool after bounded exponential
backoff), and which never started (simply rescheduled).  A unit that is
in flight across more than :data:`_CRASH_RETRIES` pool losses is
**bisected** one-unit-per-fresh-process: if the solo process also dies,
the unit is the poison pill and is quarantined with a ``crashed``
outcome (exit 3, :class:`~repro.util.errors.WorkerCrash` detail
carrying the dead pid and signal); if it survives solo, it was an
innocent casualty of a shared pool and its outcome is adopted.

**Hung-unit watchdog.**  The parent polls the journal's heartbeats and
enforces a hard per-unit wall-clock deadline -- the sweep's
``hard_timeout`` (``--hard-timeout``), or the budget's wall clock times
a grace factor (:meth:`~repro.util.budget.ResourceBudget.hard_deadline`).
A unit past its deadline gets its worker SIGKILLed; the resulting pool
break flows through the same recovery path.  Timeouts are retried like
crashes (a hang may be transient); a unit that *repeatedly* blows the
deadline is recorded as a ``timeout`` outcome (exit 4) carrying a
:class:`~repro.util.errors.HardTimeout` -- a ``BudgetExceeded``
subclass, so hard enforcement folds into the existing budget contract.

**Fault accounting.**  ``kill``/``hang`` faults consume their armed
``times=`` count inside a process that never reports back.  Workers
journal each destructive firing *before* it executes (via
:func:`repro.util.faults.set_fire_hook`); the parent replays those
records against its master spec list and ships the decremented snapshot
to respawned pools, so a ``times=1`` kill is transient sweep-wide and
the retried unit converges to its fault-free outcome -- the property
the serial≡parallel hypothesis tests pin down.

**Resumable sweeps.**  ``unit.done`` records reuse the cache-payload
schema and carry the unit's content key (the cache key,
:meth:`repro.tool.batch.SweepConfig.key`), so a *new parent* given
``resume=True`` replays completed outcomes and re-analyzes only
incomplete units -- surviving even ``kill -9`` of the parent.
:func:`interruptible` converts SIGTERM to ``KeyboardInterrupt`` so both
signals drain in-flight results, write partial batch JSON, and exit 130
without orphaning children.

A fault-free parallel sweep produces the serial sweep's batch JSON byte
for byte, and transient kills/hangs converge to the fault-free report
(modulo ``attempts`` and the ``supervision`` telemetry block).
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import signal
import tempfile
import time
from collections import defaultdict
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.hub import (
    HubWiring,
    bus_event,
    current_hub,
    emit_event,
    install,
)
from repro.obs.trace import SpanRecord, Tracer, _peak_rss_kb
from repro.tool.batch import (
    _HARD_FAILURES,
    BatchUnit,
    SweepConfig,
    UnitOutcome,
    _analyze_unit,
    _cache_lookup,
    _cache_store,
    _failure,
    _first_hard_failure,
    _journal_record,
)
from repro.tool.cache import AnalysisCache
from repro.util import faults
from repro.util.errors import HardTimeout, WorkerCrash
from repro.util.gcpause import gc_paused

__all__ = [
    "RunJournal",
    "BatchSupervisor",
    "interruptible",
    "JOURNAL_SCHEMA_VERSION",
]

#: Bump when the journal record shape changes; a resumed journal with a
#: different schema is ignored (every unit re-analyzes) rather than
#: misread.
JOURNAL_SCHEMA_VERSION = 1

#: How many times a unit may be in flight during a pool loss before it
#: is bisected solo to find the poison pill.
_CRASH_RETRIES = 1
#: How many watchdog kills a unit may absorb before its outcome is
#: recorded as ``timeout`` instead of being retried.
_TIMEOUT_RETRIES = 1
#: Exponential backoff before respawning the pool:
#: ``min(_BACKOFF_CAP, _BACKOFF_BASE * 2**(respawn - 1))`` seconds.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0
#: How often the parent wakes to read heartbeats and check deadlines.
_POLL_INTERVAL = 0.05


# ---------------------------------------------------------------------------
# The run journal
# ---------------------------------------------------------------------------


def _parse_lines(data: bytes) -> List[Dict[str, Any]]:
    """Every parseable JSON line in ``data``; corrupt lines are skipped."""
    records = []
    for line in data.splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line.decode("utf-8")))
        except (ValueError, UnicodeDecodeError):
            continue
    return records


class RunJournal:
    """An O_APPEND JSONL journal of sweep progress, shared with workers.

    Record kinds: ``journal.open`` (header, schema + t), ``unit.start``
    (heartbeat: index/unit/pid/t), ``unit.done`` (index/unit/pid/key +
    the outcome's cache payload), ``fault.fired`` (a destructive
    ``kill``/``hang`` fault consumed its armed count).  Every record is
    written as one short line so concurrent appends interleave cleanly;
    a torn final line (the writer died mid-write) is simply ignored.

    ``resume=True`` keeps the existing file, indexes its ``unit.done``
    records into :attr:`completed` (keyed ``(unit_name, content_key)``),
    and appends; otherwise the file is truncated.
    """

    def __init__(
        self,
        path: str,
        resume: bool = False,
        run_id: Optional[str] = None,
    ) -> None:
        self.path = str(path)
        #: ``(unit_name, key) -> outcome payload`` from prior runs.
        self.completed: Dict[Tuple[str, str], Dict[str, Any]] = {}
        records: List[Dict[str, Any]] = []
        if resume and os.path.exists(self.path):
            records = self.load(self.path)
            header_ok = (
                bool(records)
                and records[0].get("kind") == "journal.open"
                and records[0].get("schema") == JOURNAL_SCHEMA_VERSION
            )
            if not header_ok:
                records = []
        if not records:
            open(self.path, "w").close()
        self._handle = open(self.path, "a", buffering=1)
        self._reader = None
        if not records:
            header = {
                "kind": "journal.open",
                "schema": JOURNAL_SCHEMA_VERSION,
                "t": time.time(),
            }
            if run_id is not None:
                header["run_id"] = run_id
            self.append(header)
        for record in records:
            if record.get("kind") != "unit.done":
                continue
            key = record.get("key")
            unit = record.get("unit")
            outcome = record.get("outcome")
            if key and unit and isinstance(outcome, dict):
                self.completed[(unit, key)] = outcome
        # Tail only what arrives after this point: resumed history is
        # already folded into ``completed``.
        self._read_pos = os.path.getsize(self.path)

    def append(self, record: Dict[str, Any]) -> None:
        """Write one record as a single JSONL line (append mode)."""
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def tail(self) -> List[Dict[str, Any]]:
        """Every *complete* record appended since the last call."""
        if self._reader is None:
            self._reader = open(self.path, "rb")
        self._reader.seek(self._read_pos)
        data = self._reader.read()
        end = data.rfind(b"\n")
        if end < 0:
            return []  # nothing new, or only a torn line so far
        self._read_pos += end + 1
        return _parse_lines(data[: end + 1])

    @staticmethod
    def load(path: str) -> List[Dict[str, Any]]:
        """Every complete, parseable record in ``path`` (tolerant)."""
        try:
            with open(path, "rb") as handle:
                return _parse_lines(handle.read())
        except OSError:
            return []

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
        if self._reader is not None and not self._reader.closed:
            self._reader.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------------
# SIGTERM -> KeyboardInterrupt (so one drain path serves both signals)
# ---------------------------------------------------------------------------


def _raise_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt(f"signal {signum}")


@contextmanager
def interruptible() -> Iterator[None]:
    """Convert SIGTERM to ``KeyboardInterrupt`` for the block's duration.

    A supervised sweep drains on Ctrl-C; SIGTERM (the fleet scheduler's
    polite kill) should take the identical partial-results path rather
    than the default die-where-you-stand.  Outside the main thread
    (where ``signal.signal`` raises), this is a no-op.
    """
    try:
        previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    except ValueError:  # not the main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


# ---------------------------------------------------------------------------
# The worker side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerConfig:
    """What a pool worker needs besides its units: the sweep's settings
    plus the process wiring.  Shipped to each worker exactly once,
    through the pool ``initializer``, so a task pickles only its units.
    """

    sweep: SweepConfig
    fault_specs: List[faults.FaultSpec]
    #: The supervisor's run journal: workers heartbeat ``unit.start``,
    #: append completed ``unit.done`` payloads, and record destructive
    #: fault firings into it.
    journal_path: str
    #: The parent hub's wiring; :func:`_worker_init` installs the worker
    #: hub it describes.
    hub: HubWiring


#: This worker's copy of the batch config, set by :func:`_worker_init`.
_WORKER_CONFIG: Optional[_WorkerConfig] = None

#: The worker's journal append handle, opened lazily per process (same
#: one-line-per-write discipline as the event log, so parent and worker
#: appends interleave at line granularity).
_WORKER_JOURNAL = None


def _worker_journal_append(payload: Dict[str, Any]) -> None:
    global _WORKER_JOURNAL
    assert _WORKER_CONFIG is not None and _WORKER_CONFIG.journal_path
    if _WORKER_JOURNAL is None or _WORKER_JOURNAL.closed:
        _WORKER_JOURNAL = open(
            _WORKER_CONFIG.journal_path, "a", buffering=1
        )
    _WORKER_JOURNAL.write(json.dumps(payload, sort_keys=True) + "\n")


def _worker_fault_hook(
    spec: faults.FaultSpec, unit: Optional[str]
) -> None:
    """Journal a destructive fault firing *before* it executes.

    A ``kill``/``hang`` takes the worker down with it, so this journal
    line is the only record the parent ever gets that the armed
    ``times=`` count was consumed; the supervisor replays it against its
    master snapshot (see :meth:`BatchSupervisor._consume_fault`).
    """
    if spec.action not in ("kill", "hang"):
        return
    _worker_journal_append(
        {
            "kind": "fault.fired",
            "point": spec.point,
            "action": spec.action,
            "unit": unit,
            "pid": os.getpid(),
            "t": time.time(),
        }
    )


def _worker_init(config: _WorkerConfig) -> None:
    """Pool initializer: receive the batch config once, warm the worker.

    Runs once per worker process at spawn.  Freezes the inherited heap
    out of the cyclic GC: a forked worker inherits everything the
    parent retained (on a fork start-method, possibly whole prior batch
    reports), and the first full collection in the child would walk all
    of it -- touching every object's header, copy-on-write-faulting the
    shared pages, and billing seconds of CPU to whatever unit happened
    to run first.  None of that inherited state is garbage the worker
    could free, so ``gc.freeze`` moves it to the permanent generation.

    Also installs the worker's hub, replacing whatever hub ``fork``
    inherited: the parent's event log reopened for appending on the
    parent's timeline (each record is one short write, so parent and
    worker lines interleave cleanly), the ``--mem-profile`` switch, and
    no tracer (each chunk installs its own) and no bus (telemetry rides
    the journal).
    """
    global _WORKER_CONFIG
    _WORKER_CONFIG = config
    gc.freeze()
    try:
        # The parent runs sweeps under interruptible() (SIGTERM ->
        # KeyboardInterrupt) and workers fork while it is installed; a
        # worker must just die on SIGTERM (pool teardown terminates
        # idle workers), not raise a phantom interrupt into the
        # executor plumbing.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    install(config.hub.worker_hub())
    faults.set_fire_hook(_worker_fault_hook)


#: One dispatched task: a contiguous run of ``(index, unit, key)``
#: triples -- ``key`` is the unit's content key (None when neither a
#: cache nor a journal is configured).
_WorkerChunk = List[Tuple[int, BatchUnit, Optional[str]]]


def _worker_analyze_chunk(
    chunk: _WorkerChunk,
) -> Tuple[List[Tuple[int, UnitOutcome]], List[SpanRecord], int]:
    """Analyze one chunk of units inside a warm pool worker.

    Re-arms the fault-spec snapshot from the worker-local config (one
    dispatch = one chunk, preserving the documented per-dispatch scope
    of bare ``times=`` specs) and, when the parent is tracing, records
    the chunk under a fresh tracer pinned to the parent's epoch.  Ships
    back the slimmed outcomes, the recorded span roots, and this
    worker's pid.  Under ``keep_going=False`` the rest of the chunk is
    abandoned after a hard failure -- the parent would relabel those
    units ``skipped`` anyway, exactly as a serial run never reaches
    them.

    Each unit is bracketed by journal heartbeats: a ``unit.start``
    before analysis (the parent's watchdog clock and, if this process
    dies, the crash attribution) and a ``unit.done`` carrying the full
    outcome payload after (so results that completed before a later
    unit killed the worker are adopted, not re-run).
    """
    assert _WORKER_CONFIG is not None, "worker used without initializer"
    config = _WORKER_CONFIG
    faults.install(config.fault_specs)
    epoch = config.hub.trace_epoch
    tracer = Tracer(epoch=epoch) if epoch is not None else None
    previous = install(replace(current_hub(), tracer=tracer))
    results: List[Tuple[int, UnitOutcome]] = []
    try:
        for index, unit, key in chunk:
            _worker_journal_append(_journal_record(index, unit))
            # The collector stays paused until the report is dropped, so
            # no young collection traverses a report about to be freed.
            with gc_paused():
                outcome = _analyze_unit(unit, config.sweep)
                outcome.report = None  # the full report does not cross the pool
            outcome.worker_pid = os.getpid()
            results.append((index, outcome))
            _worker_journal_append(_journal_record(index, unit, key, outcome))
            if config.hub.telemetry:
                # The live-telemetry piggyback: one extra journal line
                # per completed unit, riding the heartbeat channel the
                # supervisor already tails -- no second IPC path, no
                # cost when telemetry is off.
                _worker_journal_append(
                    {
                        "kind": "telemetry",
                        "index": index,
                        "unit": unit.name,
                        "pid": os.getpid(),
                        "t": time.time(),
                        "rss_kb": _peak_rss_kb(),
                        "cpu_s": round(time.process_time(), 6),
                        "run": config.sweep.run_id,
                    }
                )
            if (
                not config.sweep.keep_going
                and outcome.exit_code in _HARD_FAILURES
            ):
                break
    finally:
        install(previous)
        faults.clear()
    roots = tracer.roots if tracer is not None else []
    return results, roots, os.getpid()


def _solo_entry(
    config: _WorkerConfig,
    index: int,
    unit: BatchUnit,
    key: Optional[str],
    conn,
) -> None:
    """Bisection child: one unit, one fresh process, result via pipe.

    Reuses the full chunk path (journal heartbeats, fault snapshot,
    event log) so a solo run is observably identical to a pool run of a
    single-unit chunk.  If the unit kills this process too, the parent
    reads the exitcode/signal off the dead child and quarantines the
    unit; trace spans are not shipped (the pool path's tracer adoption
    needs the executor plumbing, and a bisection rerun's spans are not
    worth a second IPC channel).
    """
    _worker_init(config)
    results, _roots, _pid = _worker_analyze_chunk([(index, unit, key)])
    _, outcome = results[0]
    conn.send(outcome.to_cache_payload())
    conn.close()


def _chunked(
    indices: List[int], workers: int, chunk_size: Optional[int]
) -> List[List[int]]:
    """Contiguous chunks of submission indices, FIFO order.

    Contiguity + FIFO dispatch is what makes early-stop normalization
    sound: whenever a chunk is cancelled before starting, every unit in
    it has a higher submission index than every unit already completed
    or in flight, so the "earliest hard failure" scan never misses a
    unit a serial run would have reached first.

    The default size targets ~4 chunks per worker: large enough that
    small units amortize the submit/result round trip, small enough
    that the tail of the sweep still load-balances.
    """
    if chunk_size is None:
        chunk_size = max(1, min(8, math.ceil(len(indices) / (workers * 4))))
    return [
        indices[start:start + chunk_size]
        for start in range(0, len(indices), chunk_size)
    ]


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


class BatchSupervisor:
    """Run one sweep's pool generations; recover, watch, and retry.

    A state machine over pool generations: ``DISPATCH -> (drain |
    BROKEN)``; on ``BROKEN``: adopt journaled outcomes, attribute
    in-flight units, bisect repeat offenders, backoff, respawn; on
    watchdog expiry: SIGKILL the worker and fold into ``BROKEN``.  The
    ``journal`` is the heartbeat and outcome channel every one of those
    steps reads.  Outcomes land in ``slots`` (one per unit, ``None``
    until the unit has one), which may arrive pre-filled with cache
    hits and resumed outcomes.
    """

    def __init__(
        self,
        *,
        units: List[BatchUnit],
        slots: List[Optional[UnitOutcome]],
        to_run: List[int],
        config: SweepConfig,
        jobs: int,
        chunk_size: Optional[int],
        journal: RunJournal,
        keys: List[Optional[str]],
    ) -> None:
        self.units = units
        self.slots = slots
        self.to_run = list(to_run)
        self.config = config
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.journal = journal
        self.keys = keys
        #: Hard per-unit wall-clock deadline; ``None`` disarms the
        #: watchdog.
        self.deadline = config.hard_timeout
        if self.deadline is None and config.budget is not None:
            self.deadline = config.budget.hard_deadline()
        hub = current_hub()
        self.tracer = hub.tracer
        self.wiring = hub.wiring()

        self.interrupted = False
        self.stats: Dict[str, int] = defaultdict(int)
        self._fault_specs = faults.snapshot()
        self._crash_count: Dict[int, int] = defaultdict(int)
        self._timeout_count: Dict[int, int] = defaultdict(int)
        #: index -> (pid, started_at) for units currently heartbeating.
        self._running: Dict[int, Tuple[Optional[int], float]] = {}
        #: index -> last pid observed analyzing it (crash attribution).
        self._last_pid: Dict[int, Optional[int]] = {}
        #: index -> journaled ``unit.done`` outcome payload.
        self._journal_done: Dict[int, Dict[str, Any]] = {}
        #: pid -> exitcode of the last generation's workers (best effort).
        self._exitcodes: Dict[int, Optional[int]] = {}
        self._watchdog_killed: set = set()
        self._gen_started: set = set()

    # -- public entry ------------------------------------------------------

    def run(self) -> None:
        """Supervise until every runnable unit has an outcome."""
        # Pool respawns before giving up on the sweep, scaled to the
        # corpus: every unit may cost a crash retry and a bisection.
        max_respawns = 2 * len(self.to_run) + 4
        generation = 0
        while not self.interrupted:
            runnable = self._runnable()
            if not runnable:
                break
            if generation > 0:
                self.stats["respawns"] += 1
                delay = min(
                    _BACKOFF_CAP, _BACKOFF_BASE * (2 ** (generation - 1))
                )
                time.sleep(delay)
                emit_event(
                    "supervisor.respawn",
                    generation=generation,
                    units=len(runnable),
                    backoff_s=round(delay, 3),
                )
            broken = self._generation(runnable)
            if self.interrupted:
                break
            if not broken:
                break  # clean drain (or early stop): nothing to recover
            self._recover(runnable)
            generation += 1
            if generation > max_respawns:
                self._give_up()
                break

    # -- scheduling helpers ------------------------------------------------

    def _runnable(self) -> List[int]:
        pending = [i for i in self.to_run if self.slots[i] is None]
        if not self.config.keep_going:
            first = _first_hard_failure(self.slots)
            if first is not None:
                # Serial semantics: everything after the earliest hard
                # failure stays unrun (reported skipped by the caller),
                # but units *before* it must still complete.
                pending = [i for i in pending if i < first]
        return pending

    def _worker_config(self) -> _WorkerConfig:
        return _WorkerConfig(
            sweep=self.config,
            fault_specs=[replace(spec) for spec in self._fault_specs],
            journal_path=self.journal.path,
            hub=self.wiring,
        )

    # -- one pool generation ----------------------------------------------

    def _generation(self, runnable: List[int]) -> bool:
        order = list(runnable)
        if self.config.keep_going:
            # LPT dispatch: safe because every unit runs regardless of
            # order.
            order.sort(key=lambda i: -len(self.units[i].source))
        workers = min(self.jobs, len(order))
        chunks = _chunked(order, workers, self.chunk_size)
        # No more workers than chunks: an idle worker still pays its
        # fork and gc.freeze.
        workers = max(1, min(workers, len(chunks)))
        self._gen_started = set()
        self._watchdog_killed = set()
        self._running.clear()
        broken = False
        stopping = False
        executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(self._worker_config(),),
        )
        futures: Dict[Any, List[int]] = {}
        try:
            try:
                for indices in chunks:
                    task = [
                        (index, self.units[index], self.keys[index])
                        for index in indices
                    ]
                    futures[executor.submit(_worker_analyze_chunk, task)] = (
                        indices
                    )
            except BrokenProcessPool:
                broken = True  # died during submission: recover below
            not_done = set(futures)
            while not_done:
                done, not_done = wait(
                    not_done,
                    timeout=_POLL_INTERVAL,
                    return_when=FIRST_COMPLETED,
                )
                self._consume_journal()
                bus_event("tick", stats=self.stats)
                for future in done:
                    indices = futures[future]
                    try:
                        results, roots, pid = future.result()
                    except CancelledError:
                        continue
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as error:
                        # A structural dispatch failure (pickling, ...):
                        # deterministic, so retrying cannot help.
                        for index in indices:
                            if self.slots[index] is None:
                                self._record(
                                    index,
                                    _failure(
                                        self.units[index].name,
                                        "internal-error",
                                        error,
                                        message=(
                                            f"worker process failed: {error}"
                                        ),
                                    ),
                                    adjust=False,
                                )
                        continue
                    if self.tracer is not None and roots:
                        self.tracer.adopt(roots, pid=pid)
                    for index, outcome in results:
                        self._record(index, outcome)
                if (
                    not self.config.keep_going
                    and not stopping
                    and _first_hard_failure(self.slots) is not None
                ):
                    stopping = True
                    for future in not_done:
                        future.cancel()
                if not broken and not stopping:
                    self._watchdog()
        except KeyboardInterrupt:
            self.interrupted = True
            self.stats["interrupted"] = 1
            self._drain_interrupt(executor)
            return False
        finally:
            procs = []
            try:  # private API, best effort: crash/signal attribution
                procs = list(executor._processes.values())
            except Exception:
                procs = []
            executor.shutdown(wait=not self.interrupted)
            self._exitcodes = {}
            for proc in procs:
                try:
                    self._exitcodes[proc.pid] = proc.exitcode
                except Exception:
                    continue
        self._consume_journal()
        return broken

    # -- journal consumption ----------------------------------------------

    def _consume_journal(self) -> None:
        for record in self.journal.tail():
            kind = record.get("kind")
            if kind == "unit.start":
                index = record.get("index")
                if not isinstance(index, int):
                    continue
                pid = record.get("pid")
                self._running[index] = (pid, record.get("t", time.time()))
                self._last_pid[index] = pid
                self._gen_started.add(index)
                bus_event(
                    "unit.start",
                    index=index,
                    unit=record.get("unit"),
                    pid=pid,
                )
            elif kind == "telemetry":
                # Worker metric/RSS deltas piggybacked on the heartbeat
                # channel (see _worker_analyze_chunk); forwarded to the
                # live bus, never interpreted here.
                bus_event("worker.delta", record=record)
            elif kind == "unit.done":
                index = record.get("index")
                if not isinstance(index, int):
                    continue
                self._running.pop(index, None)
                if isinstance(record.get("outcome"), dict):
                    self._journal_done[index] = record
            elif kind == "fault.fired":
                self._consume_fault(record)

    def _consume_fault(self, record: Dict[str, Any]) -> None:
        """Replay one destructive fault firing against the master specs.

        The worker that fired a ``kill``/``hang`` never reports back, so
        its local ``times`` decrement died with it; this keeps the
        parent's snapshot -- the one respawned pools are armed from --
        consistent with what actually fired.
        """
        point = record.get("point")
        action = record.get("action")
        unit = record.get("unit")
        if action not in ("kill", "hang"):
            return
        for spec in self._fault_specs:
            if spec.point != point or spec.action != action:
                continue
            if spec.unit is not None and spec.unit != unit:
                continue
            if spec.times is None:
                return  # persistent spec: nothing to decrement
            spec.times -= 1
            if spec.times <= 0:
                self._fault_specs.remove(spec)
            return

    # -- outcome recording -------------------------------------------------

    def _record(
        self, index: int, outcome: UnitOutcome, adjust: bool = True
    ) -> None:
        if adjust:
            retries = self._crash_count[index] + self._timeout_count[index]
            if retries:
                outcome.attempts += retries
        self.slots[index] = outcome
        self._running.pop(index, None)
        bus_event("unit.done", index=index, outcome=outcome)

    def _adopt_journal_done(self) -> None:
        """Units that completed in a worker but never shipped a result."""
        for index, record in self._journal_done.items():
            if self.slots[index] is not None or index not in self.to_run:
                continue
            try:
                outcome = UnitOutcome.from_payload(record["outcome"])
            except (KeyError, TypeError, ValueError):
                continue
            outcome.worker_pid = record.get("pid")
            self.stats["journal_recovered"] += 1
            emit_event(
                "supervisor.journal-recovered", unit=outcome.unit
            )
            self._record(index, outcome)

    def _timed_out(self, index: int, used: float, attempts: int) -> None:
        """Record a unit's ``timeout`` outcome (maps to exit 4)."""
        assert self.deadline is not None
        self.stats["timeouts"] += 1
        self._record(
            index,
            _failure(
                self.units[index].name,
                "timeout",
                HardTimeout(self.deadline, used),
                attempts=attempts,
            ),
            adjust=False,
        )

    def _crashed(
        self, index: int, pid: Optional[int], signum: Optional[int]
    ) -> None:
        """Record a quarantined unit's ``crashed`` outcome (exit 3)."""
        name = self.units[index].name
        self._record(
            index,
            _failure(
                name,
                "crashed",
                WorkerCrash(name, pid=pid, signum=signum),
                attempts=self._crash_count[index] + 1,
            ),
            adjust=False,
        )

    # -- the watchdog ------------------------------------------------------

    def _watchdog(self) -> None:
        if self.deadline is None:
            return
        now = time.time()
        for index, (pid, started) in list(self._running.items()):
            if self.slots[index] is not None:
                continue
            used = now - started
            if used <= self.deadline:
                continue
            self._running.pop(index, None)
            self._watchdog_killed.add(index)
            self._timeout_count[index] += 1
            self.stats["watchdog_kills"] += 1
            emit_event(
                "supervisor.watchdog-kill",
                unit=self.units[index].name,
                pid=pid,
                used_s=round(used, 3),
                limit_s=self.deadline,
            )
            if self._timeout_count[index] > _TIMEOUT_RETRIES:
                self._timed_out(index, used, self._timeout_count[index])
            if pid:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass

    # -- recovery after a broken pool --------------------------------------

    def _signal_for(self, pid: Optional[int]) -> Optional[int]:
        if pid is None:
            return None
        exitcode = self._exitcodes.get(pid)
        if exitcode is not None and exitcode < 0:
            return -exitcode
        return None

    def _recover(self, runnable: List[int]) -> None:
        self._consume_journal()
        self._adopt_journal_done()
        suspects = []
        for index in runnable:
            if self.slots[index] is not None:
                continue
            if (
                index in self._gen_started
                and index not in self._watchdog_killed
            ):
                self._crash_count[index] += 1
                pid = self._last_pid.get(index)
                emit_event(
                    "supervisor.worker-lost",
                    unit=self.units[index].name,
                    pid=pid,
                    signal=self._signal_for(pid),
                    crashes=self._crash_count[index],
                )
                if self._crash_count[index] > _CRASH_RETRIES:
                    suspects.append(index)
        self._running.clear()
        for index in suspects:
            self._bisect(index)

    def _bisect(self, index: int) -> None:
        """One unit, one fresh process: find (and quarantine) poison pills."""
        unit = self.units[index]
        emit_event("supervisor.bisect", unit=unit.name)
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_solo_entry,
            args=(
                self._worker_config(),
                index,
                unit,
                self.keys[index],
                child_conn,
            ),
        )
        proc.start()
        child_conn.close()
        proc.join(self.deadline)
        if proc.is_alive():
            proc.kill()
            proc.join()
            parent_conn.close()
            self._consume_journal()
            self._timeout_count[index] += 1
            self.stats["watchdog_kills"] += 1
            assert self.deadline is not None
            self._timed_out(
                index,
                self.deadline,
                self._crash_count[index] + self._timeout_count[index],
            )
            return
        payload = None
        try:
            if parent_conn.poll(0):
                payload = parent_conn.recv()
        except (EOFError, OSError):
            payload = None
        finally:
            parent_conn.close()
        self._consume_journal()
        if isinstance(payload, dict):
            try:
                outcome = UnitOutcome.from_payload(payload)
            except (KeyError, TypeError, ValueError):
                outcome = None
            if outcome is not None:
                outcome.worker_pid = proc.pid
                outcome.attempts += (
                    self._crash_count[index] + self._timeout_count[index]
                )
                self._record(index, outcome, adjust=False)
                return
        exitcode = proc.exitcode
        signum = -exitcode if exitcode is not None and exitcode < 0 else None
        self.stats["quarantined"] += 1
        emit_event(
            "supervisor.quarantine",
            unit=unit.name,
            pid=proc.pid,
            signal=signum,
        )
        self._crashed(index, proc.pid, signum)

    def _give_up(self) -> None:
        """Respawn budget exhausted: fail what's left, structurally."""
        for index in self._runnable():
            emit_event("supervisor.gave-up", unit=self.units[index].name)
            self._crashed(index, self._last_pid.get(index), None)

    # -- interrupt drain ---------------------------------------------------

    def _drain_interrupt(self, executor) -> None:
        """Ctrl-C/SIGTERM: keep what finished, kill children, come home.

        Completed futures were already harvested; journaled ``unit.done``
        payloads cover results that finished inside workers but never
        shipped.  In-flight analyses are killed rather than awaited --
        the whole point of the drain is to exit promptly without
        orphaning children.

        Pending futures are deliberately NOT cancelled: killing the
        workers breaks the pool, and the executor's management thread
        then settles every pending future with ``BrokenProcessPool``
        itself.  Cancelling first makes that ``set_exception`` call
        raise ``InvalidStateError`` inside the management thread, which
        splats a phantom traceback on stderr mid-drain.
        """
        emit_event("supervisor.interrupted")
        procs = []
        try:  # private API, best effort
            procs = list(executor._processes.values())
        except Exception:
            procs = []
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                continue
        deadline = time.time() + 1.0
        for proc in procs:
            try:
                proc.join(max(0.0, deadline - time.time()))
            except Exception:
                continue
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.kill()
            except Exception:
                continue
        try:
            executor.shutdown(wait=False)
        except Exception:
            pass
        self._consume_journal()
        self._adopt_journal_done()


# ---------------------------------------------------------------------------
# The parallel sweep
# ---------------------------------------------------------------------------


def _run_batch_parallel(
    units: List[BatchUnit],
    config: SweepConfig,
    jobs: int,
    cache: Optional[AnalysisCache],
    keys: List[Optional[str]],
    chunk_size: Optional[int],
    journal: Optional[RunJournal],
    resumed_slots: Dict[int, UnitOutcome],
) -> Tuple[List[Optional[UnitOutcome]], Dict[str, int], bool]:
    """Fan unit chunks out to a supervised warm process pool.

    Returns ``(slots, supervision_stats, interrupted)``.  A ``None``
    slot means the unit never ran (cancelled after an early stop, or
    still in flight when the sweep was interrupted); the caller turns
    those -- and, without ``keep_going``, every slot after the earliest
    hard failure -- into ``skipped`` outcomes.

    The supervisor's heartbeat channel is the caller's ``journal``, or a
    throwaway one opened here when the caller has none and some unit is
    left to analyze.

    Without ``keep_going``, cache stores are deferred until the pool
    drains and flushed only for units *before* the earliest hard
    failure: an in-flight worker may deliver a result after the stop,
    and persisting it would let a warm re-run resurrect an outcome the
    batch report relabelled ``skipped`` (diverging from the serial
    cache state).  The same deferral covers interrupted sweeps -- only
    outcomes the partial report actually carries are persisted.
    """
    slots: List[Optional[UnitOutcome]] = [None] * len(units)
    to_run: List[int] = []
    for index, unit in enumerate(units):
        if index in resumed_slots:
            slots[index] = resumed_slots[index]
            bus_event("unit.done", index=index, outcome=slots[index])
            continue
        hit = _cache_lookup(cache, keys[index], unit)
        if hit is not None:
            slots[index] = hit
            bus_event("unit.done", index=index, outcome=hit)
        else:
            to_run.append(index)
    if not to_run:
        return slots, {}, False

    ephemeral: Optional[str] = None
    if journal is None:
        fd, ephemeral = tempfile.mkstemp(
            prefix="regionwiz-journal-", suffix=".jsonl"
        )
        os.close(fd)
        journal = RunJournal(ephemeral, run_id=config.run_id)
    supervisor = BatchSupervisor(
        units=units,
        slots=slots,
        to_run=to_run,
        config=config,
        jobs=jobs,
        chunk_size=chunk_size,
        journal=journal,
        keys=keys,
    )
    try:
        supervisor.run()
    finally:
        if ephemeral is not None:
            journal.close()
            try:
                os.unlink(ephemeral)
            except OSError:
                pass

    first_failure = (
        None if config.keep_going else _first_hard_failure(slots)
    )
    for index in to_run:
        outcome = slots[index]
        if outcome is None:
            continue
        if first_failure is None or index < first_failure:
            _cache_store(cache, keys[index], outcome)
    return slots, dict(supervisor.stats), supervisor.interrupted
